import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtx import errors
from mrtx.centering import fit_centering, orthogonality_residual
from mrtx.data import Schema
from mrtx.estimators import EstimatorConfig, fit

from conftest import build_panel


def two_row_panel(ptilde, z):
    return build_panel(2, 1, ptilde=ptilde, z=z, a=[1, 0], p=[0.5, 0.5],
                       schema=Schema(aux=("z",), ptilde="ptilde"))


def test_equal_weights_reduce_to_mean():
    ds = two_row_panel([0.5, 0.5], [1.0, 3.0])
    cm = fit_centering(ds)
    assert cm.theta[0, 0] == pytest.approx(2.0)


def test_weighted_ratio_oracle():
    # independent oracle: ratio of weighted sums
    w1, w2 = 0.5 * 0.5, 0.2 * 0.8
    expected = (w1 * 1.0 + w2 * 3.0) / (w1 + w2)
    ds = two_row_panel([0.5, 0.2], [1.0, 3.0])
    cm = fit_centering(ds)
    assert cm.theta[0, 0] == pytest.approx(expected)
    assert expected == pytest.approx(0.73 / 0.41)


def test_exact_projection_onto_own_span():
    c = 2.5
    ds = build_panel(4, 3, z=np.full(12, c))
    cm = fit_centering(ds)
    assert cm.theta[0, 0] == pytest.approx(c)
    resid = ds.z - cm.mu_rows(ds)
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10_000))
def test_orthogonality_after_fit(n, T, seed):
    rng = np.random.default_rng(seed)
    ds = build_panel(n, T, seed=seed,
                     z=rng.standard_normal(n * T) * 3 + 1,
                     ptilde=rng.uniform(0.05, 0.95, n * T),
                     schema=Schema(aux=("z",), ptilde="ptilde"))
    cm = fit_centering(ds)
    assert orthogonality_residual(ds, cm.mu_rows(ds)) <= 1e-8


def test_perturbed_theta_breaks_orthogonality(small_panel):
    cm = fit_centering(small_panel)
    theta = cm.theta.copy()
    theta[0, 0] += 1.0
    mu = small_panel.f @ theta
    assert orthogonality_residual(small_panel, mu) > 1e-3


def test_unweighted_mean_fails_when_weights_vary():
    # 4-row hand case: weighted and unweighted means differ
    z = np.array([1.0, 3.0, 1.0, 3.0])
    pt = np.array([0.5, 0.1, 0.5, 0.1])
    ds = build_panel(2, 2, z=z, ptilde=pt,
                     schema=Schema(aux=("z",), ptilde="ptilde"))
    w = pt * (1 - pt)
    weighted = np.sum(w * z) / np.sum(w)
    unweighted = z.mean()
    assert abs(weighted - unweighted) > 0.1
    resid = orthogonality_residual(ds, np.full((4, 1), unweighted))
    # hand evaluation of the residual at the unweighted mean
    expected = abs(np.sum(w * (z - unweighted)) / 2)
    assert resid == pytest.approx(expected)
    assert resid > 1e-3


def time_indicator_panel(n, T, **overrides):
    """A panel whose moderators are the indicators of t = 2..T, so that f
    spans every per-time mean."""
    t = np.tile(np.arange(1, T + 1), n)
    dummies = {f"d{s}": (t == s).astype(float) for s in range(2, T + 1)}
    return build_panel(n, T, **dummies, **overrides,
                       schema=Schema(moderators=tuple(dummies), aux=("z",)))


def test_naive_centerings_constant():
    ds = build_panel(3, 2, z=np.full(6, 4.2))
    for kind in ("time_specific_mean", "global_mean"):
        cm = fit_centering(ds, kind)
        assert not cm.orthogonal
        np.testing.assert_allclose(cm.mu_rows(ds), 4.2)


def test_naive_centerings_two_by_two():
    # subjects x time: Z = [(1,3),(3,5)] -> time means (2,4); global mean 3
    ds = time_indicator_panel(2, 2, z=[1.0, 3.0, 3.0, 5.0])
    by_time = fit_centering(ds, "time_specific_mean").mu_rows(ds)
    np.testing.assert_allclose(by_time[:, 0], [2.0, 4.0, 2.0, 4.0])
    np.testing.assert_allclose(fit_centering(ds, "global_mean").mu_rows(ds), 3.0)


def test_time_specific_mean_fit_on_time_indicators():
    n, T = 30, 4
    ds = time_indicator_panel(n, T, seed=6)
    res = fit(ds, EstimatorConfig(method="a2wcls", centering_kind="time_specific_mean"))
    assert res.beta0_names == ("beta0:1", "beta0:d2", "beta0:d3", "beta0:d4")
    assert np.isfinite(res.estimates).all() and np.isfinite(res.vcov).all()
    per_time = ds.z[:, 0].reshape(n, T).mean(axis=0)
    cm = fit_centering(ds, "time_specific_mean")
    np.testing.assert_allclose(cm.mu_rows(ds)[:, 0], np.tile(per_time, n), atol=1e-12)


def test_global_mean_averages_usable_rows_at_lag_2():
    ds = build_panel(5, 4, lag=2, seed=2)
    usable_mean = ds.usable(ds.z).mean()
    assert abs(usable_mean - ds.z.mean()) > 1e-3       # the tail rows would move it
    cm = fit_centering(ds, "global_mean")
    assert cm.theta[0, 0] == pytest.approx(usable_mean, rel=1e-12)


def test_affine_equivariance():
    rng = np.random.default_rng(4)
    n, T = 6, 5
    z = rng.standard_normal(n * T)
    f_extra = rng.standard_normal(n * T)
    schema = Schema(moderators=("m1",), aux=("z",))
    ds = build_panel(n, T, z=z, m1=f_extra, schema=schema)
    cm = fit_centering(ds)
    a, b = 2.5, -1.25
    ds2 = build_panel(n, T, z=a * z + b, m1=f_extra, schema=schema)
    cm2 = fit_centering(ds2)
    expected = a * cm.theta[:, 0]
    expected[0] += b                       # intercept is the first f column
    np.testing.assert_allclose(cm2.theta[:, 0], expected, atol=1e-10)
    resid = ds.z - cm.mu_rows(ds)
    resid2 = ds2.z - cm2.mu_rows(ds2)
    np.testing.assert_allclose(resid2, a * resid, atol=1e-10)


def test_constant_numerator_equals_pooled_mean():
    ds = build_panel(5, 4, seed=8)           # default ptilde constant, f = 1
    cm = fit_centering(ds)
    assert cm.theta[0, 0] == pytest.approx(ds.z.mean())


def test_degenerate_moderators_raise():
    ds = build_panel(3, 3, m1=np.zeros(9), m2=np.zeros(9),
                     schema=Schema(moderators=("m1", "m2"), aux=("z",)))
    with pytest.raises(errors.SingularGram):
        fit_centering(ds)


def test_time_specific_mean_not_representable_without_indicators(small_panel):
    # f is the intercept alone, and the per-time means of z differ
    message = "time_specific_mean: requested centering is not representable"
    with pytest.raises(errors.DimensionMismatch, match=message):
        fit_centering(small_panel, "time_specific_mean")
    with pytest.raises(errors.DimensionMismatch, match=message):
        fit(small_panel, EstimatorConfig(method="a2wcls", centering_kind="time_specific_mean"))


def test_verify_orthogonality_dimension_mismatch(small_panel):
    with pytest.raises(errors.DimensionMismatch):
        orthogonality_residual(small_panel, np.zeros((3, 1)))


def test_global_mean_fails_orthogonality_on_drifting_design():
    # time-varying weight numerator + drifting state: the pooled mean is no
    # longer a valid centering
    from mrtx.simulation import DgmSpec, gen_panel
    ds = gen_panel(DgmSpec(kind="centerbias_j1", n=400, horizon=30,
                           beta0=-0.2, beta1=0.8, seed=31))
    mu = fit_centering(ds, "global_mean").mu_rows(ds)
    assert orthogonality_residual(ds, mu) > 1e-3
    cm = fit_centering(ds)
    assert orthogonality_residual(ds, cm.mu_rows(ds)) <= 1e-8


def test_influence_matches_per_subject_loop():
    # influence_j = G^{-1} U_j, with G and each subject's normal-equation
    # residual U_j summed row by row over the usable rows, t <= T - lag + 1
    rng = np.random.default_rng(9)
    n, T = 7, 5
    extra = dict(m1=rng.standard_normal(n * T), z2=rng.standard_normal(n * T),
                 ptilde=rng.uniform(0.2, 0.8, n * T))
    schema = Schema(moderators=("m1",), aux=("z", "z2"), ptilde="ptilde")
    for lag in (1, 2):
        ds = build_panel(n, T, lag=lag, seed=9, schema=schema, **extra)
        cm = fit_centering(ds)
        gram = np.zeros((2, 2))
        u = np.zeros((n, 2, 2))
        for r in range(ds.n_rows):
            if ds.t[r] > T - lag + 1:
                continue
            w = ds.p_tilde[r] * (1 - ds.p_tilde[r])
            gram += w * np.outer(ds.f[r], ds.f[r]) / n
            u[r // T] += w * np.outer(ds.f[r], ds.z[r] - ds.f[r] @ cm.theta)
        expected = np.stack([np.linalg.inv(gram) @ u_j for u_j in u])
        assert cm.orthogonal and cm.influence.shape == (n, 2, 2)
        np.testing.assert_allclose(cm.influence, expected, rtol=1e-10, atol=1e-12)
        assert not fit_centering(ds, "global_mean").orthogonal


@pytest.mark.parametrize("call, message", [
    (lambda: fit_centering(build_panel(4, 3, schema=Schema())), "no auxiliary columns"),
    (lambda: fit_centering(build_panel(4, 3, schema=Schema()), "global_mean"),
     "no auxiliary columns"),
    (lambda: fit_centering(build_panel(4, 3), "bogus"),
     "unknown centering kind 'bogus'"),
    (lambda: fit_centering(build_panel(4, 3)).mu_rows(
        build_panel(4, 3, schema=Schema(moderators=("g1",), aux=("z",)))),
     "moderator dimension does not match"),
], ids=["fit_without_aux", "naive_without_aux", "naive_unknown_kind", "mu_rows_other_q"])
def test_centering_dimension_mismatch(call, message):
    with pytest.raises(errors.DimensionMismatch, match=message):
        call()
