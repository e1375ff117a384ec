import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtx import errors
from mrtx.centering import (
    centering_from_rows,
    fit_centering,
    naive_centerings,
    orthogonality_residual,
)
from mrtx.data import moderator_schema

from conftest import build_panel


def two_row_panel(ptilde, z):
    return build_panel(2, 1, ptilde=ptilde, z=z, a=[1, 0], p=[0.5, 0.5],
                       schema=moderator_schema(aux=("z",), ptilde="ptilde"))


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
                     schema=moderator_schema(aux=("z",), ptilde="ptilde"))
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
                     schema=moderator_schema(aux=("z",), ptilde="ptilde"))
    w = pt * (1 - pt)
    weighted = np.sum(w * z) / np.sum(w)
    unweighted = z.mean()
    assert abs(weighted - unweighted) > 0.1
    resid = orthogonality_residual(ds, np.full((4, 1), unweighted))
    # hand evaluation of the residual at the unweighted mean
    expected = abs(np.sum(w * (z - unweighted)) / 2)
    assert resid == pytest.approx(expected)
    assert resid > 1e-3


def test_naive_centerings_constant():
    ds = build_panel(3, 2, z=np.full(6, 4.2))
    for kind in ("time_specific_mean", "global_mean"):
        np.testing.assert_allclose(naive_centerings(ds, kind), 4.2)


def test_naive_centerings_two_by_two():
    # subjects x time: Z = [(1,3),(3,5)] -> time means (2,4); global mean 3
    ds = build_panel(2, 2, z=[1.0, 3.0, 3.0, 5.0])
    by_time = naive_centerings(ds, "time_specific_mean")
    np.testing.assert_allclose(by_time[:, 0], [2.0, 4.0, 2.0, 4.0])
    np.testing.assert_allclose(naive_centerings(ds, "global_mean"), 3.0)


def test_affine_equivariance():
    rng = np.random.default_rng(4)
    n, T = 6, 5
    z = rng.standard_normal(n * T)
    f_extra = rng.standard_normal(n * T)
    schema = moderator_schema(moderators=("m1",), aux=("z",))
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
                     schema=moderator_schema(moderators=("m1", "m2"), aux=("z",)))
    with pytest.raises(errors.SingularGram):
        fit_centering(ds)


def test_centering_from_rows_not_representable(small_panel):
    mu = np.asarray(small_panel.z) * 0 + np.linspace(0, 1, small_panel.n_rows)[:, None]
    with pytest.raises(errors.DimensionMismatch):
        centering_from_rows(small_panel, mu, "bad")


def test_verify_orthogonality_dimension_mismatch(small_panel):
    with pytest.raises(errors.DimensionMismatch):
        orthogonality_residual(small_panel, np.zeros((3, 1)))


def test_global_mean_fails_orthogonality_on_drifting_design():
    # time-varying weight numerator + drifting state: the pooled mean is no
    # longer a valid centering
    from mrtx.simulation import DgmSpec, gen_panel
    ds = gen_panel(DgmSpec(kind="centerbias_j1", n=400, horizon=30,
                           beta0=-0.2, beta1=0.8, seed=31))
    mu = naive_centerings(ds, "global_mean")
    assert orthogonality_residual(ds, mu) > 1e-3
    cm = fit_centering(ds)
    assert orthogonality_residual(ds, cm.mu_rows(ds)) <= 1e-8
