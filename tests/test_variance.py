import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from mrtx import errors
from mrtx.centering import fit_centering
from mrtx.data import Schema, from_columns
from mrtx.estimators import (
    EstimatorConfig,
    _pooled_design,
    fit,
    with_variance_mode,
)
from mrtx.simulation import DgmSpec, gen_panel, _rng_for
from mrtx.variance import (
    SandwichParts,
    confidence_intervals,
    plain_sandwich,
    score_meat,
    stacked_sandwich,
    stacked_small_sample,
    _leverage,
)

from conftest import build_panel, panel_from_arrays


def hc0_oracle(X, y):
    """Textbook heteroskedasticity-robust OLS vcov, implemented independently."""
    n = X.shape[0]
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    u = y - X @ beta
    meat = X.T @ (X * (u ** 2)[:, None])
    return n * xtx_inv @ meat @ xtx_inv       # scaled so SE = sqrt(diag / n)


def test_single_time_matches_robust_ols_oracle():
    rng = np.random.default_rng(0)
    n = 60
    a = rng.integers(0, 2, n).astype(float)
    y = rng.standard_normal(n) * (1 + a) + a
    ds = build_panel(n, 1, a=a, p=np.full(n, 0.5), y=y)
    res = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=1)
    X = np.column_stack([np.ones(n), a - 0.5])
    expected = hc0_oracle(X, y)
    np.testing.assert_allclose(res.vcov, expected, atol=1e-10)


def test_duplicated_subjects_halve_vcov():
    cols = panel_from_arrays(10, 5, seed=1)
    schema = Schema(aux=("z",), controls=("g1",))
    ds = from_columns(cols, schema)
    doubled = {k: np.concatenate([np.asarray(v), np.asarray(v)]) for k, v in cols.items()}
    doubled["subject_id"] = np.concatenate([cols["subject_id"],
                                            np.asarray(cols["subject_id"]) + 1000])
    ds2 = from_columns(doubled, schema)
    r1, r2 = (fit(d, EstimatorConfig(method="wcls")) for d in (ds, ds2))
    # per-subject moments unchanged, so the scaled vcov is identical and the
    # doubled N halves the squared SE
    np.testing.assert_allclose(r2.vcov, r1.vcov, atol=1e-10)
    np.testing.assert_allclose(r2.se, r1.se / np.sqrt(2), atol=1e-12)


def fd_bread(score_fn, params, dim, eps=1e-6):
    out = np.empty((dim, dim))
    for k in range(dim):
        up, dn = params.copy(), params.copy()
        up[k] += eps
        dn[k] -= eps
        out[:, k] = (score_fn(up) - score_fn(dn)) / (2 * eps)
    return out


def _ls_score(ds, res):
    parts = res.parts
    X = parts.model_matrix.reshape(-1, parts.dim)
    w = parts.weights.reshape(-1)
    y = ds.usable(ds.y)

    def score(params):
        r = y - X @ params
        return X.T @ (w * r) / ds.n_subjects
    return score


@pytest.mark.parametrize("maker", [
    lambda: (gen_panel(DgmSpec(kind="proximal_j2", n=50, horizon=8,
                               beta0=-0.2, beta1=0.5, seed=3)),
             lambda ds: fit(ds, EstimatorConfig(method="a2wcls"))),
    lambda: (gen_panel(DgmSpec(kind="lagged_eq12", n=50, horizon=8,
                               beta0=-0.1, beta1=0.5, seed=3)),
             lambda ds: fit(ds, EstimatorConfig(method="a2wcls_lagged", lag=2))),
    lambda: (gen_panel(DgmSpec(kind="lagged_eq12", n=50, horizon=8,
                               beta0=-0.1, beta1=0.5, seed=4)),
             lambda ds: fit(ds, EstimatorConfig(method="wcls", lag=2))),
])
def test_finite_difference_bread(maker):
    ds, fitter = maker()
    res = fitter(ds)
    numeric = -fd_bread(_ls_score(ds, res), res.estimates.copy(), res.parts.dim)
    scale = np.abs(res.parts.bread).max()
    assert np.abs(numeric - res.parts.bread).max() <= 1e-4 * scale


def test_finite_difference_bread_binary():
    spec = DgmSpec(kind="binary_demo", n=400, horizon=6, beta0=0.2, seed=5)
    ds = gen_panel(spec)
    res = fit(ds, EstimatorConfig(method="emee"))
    from mrtx.estimators import _emee_system
    evaluate, _, _ = _emee_system(ds, None)

    def score(params):
        return evaluate(params)[1]

    numeric = -fd_bread(score, res.estimates.copy(), res.parts.dim)
    assert np.abs(numeric - res.parts.bread).max() <= 1e-4 * max(np.abs(res.parts.bread).max(), 1.0)


def test_vcov_symmetric_psd_over_fits():
    for seed in range(5):
        spec = DgmSpec(kind="proximal_j2", n=40, horizon=7, beta0=-0.2,
                       beta1=0.5, seed=seed)
        ds = gen_panel(spec)
        for mode in ("plain_sandwich", "stacked", "stacked_small_sample"):
            res = fit(ds, EstimatorConfig(method="a2wcls", variance_mode=mode))
            v = res.vcov
            assert np.abs(v - v.T).max() <= 1e-12 * max(np.abs(v).max(), 1.0)
            eig = np.linalg.eigvalsh((v + v.T) / 2)
            assert eig.min() >= -1e-10 * np.trace(v)


def test_scale_equivariance():
    cols = panel_from_arrays(20, 6, seed=7)
    schema = Schema(aux=("z",), controls=("g1",))
    ds = from_columns(cols, schema)
    scaled = dict(cols)
    scaled["y"] = np.asarray(cols["y"]) * 3.0
    ds2 = from_columns(scaled, schema)
    r1, r2 = (fit(d, EstimatorConfig(method="wcls")) for d in (ds, ds2))
    np.testing.assert_allclose(r2.beta0, 3.0 * r1.beta0, atol=1e-12)
    np.testing.assert_allclose(r2.se, 3.0 * r1.se, atol=1e-12)
    np.testing.assert_allclose(r2.ci_lo, 3.0 * r1.ci_lo, atol=1e-12)
    np.testing.assert_allclose(r2.ci_hi, 3.0 * r1.ci_hi, atol=1e-12)


def test_stacked_reduces_to_plain_when_cross_derivative_zero():
    spec = DgmSpec(kind="proximal_j2", n=60, horizon=8, beta0=-0.2, beta1=0.5, seed=8)
    ds = gen_panel(spec)
    res = fit(ds, EstimatorConfig(method="a2wcls"))
    shift = res.parts.centering_shift
    assert np.abs(shift).max() > 0
    zeroed = replace(res.parts, centering_shift=np.zeros_like(shift))
    np.testing.assert_allclose(stacked_sandwich(zeroed),
                               plain_sandwich(res.parts), atol=1e-12)


def test_stacked_exceeds_known_centering_on_average():
    # estimated centering adds variance; its stacked SE dominates the
    # plain SE computed as if the centering were known
    spec = DgmSpec(kind="proximal_j2", n=150, horizon=12, beta0=-0.2,
                   beta1=0.8, seed=0)
    diffs = []
    for rep in range(200):
        ds = gen_panel(spec, rng=_rng_for(spec, rep))
        res = fit(ds, EstimatorConfig(method="a2wcls", variance_mode="stacked"))
        plain = with_variance_mode(res, "plain_sandwich")
        diffs.append(res.se[0] - plain.se[0])
    assert np.mean(diffs) > 0


def test_small_sample_inflates_and_converges():
    spec = DgmSpec(kind="proximal_j2", n=30, horizon=8, beta0=-0.2, beta1=0.5, seed=1)
    inflations = []
    for rep in range(100):
        ds = gen_panel(spec, rng=_rng_for(spec, rep))
        res = fit(ds, EstimatorConfig(method="wcls"))
        corrected = with_variance_mode(res, "stacked_small_sample")
        inflations.append(corrected.se[0] / res.se[0])
    inflations = np.array(inflations)
    assert np.all(inflations >= 1.0 - 1e-9)

    big = DgmSpec(kind="proximal_j2", n=2000, horizon=8, beta0=-0.2, beta1=0.5, seed=2)
    ds = gen_panel(big)
    res = fit(ds, EstimatorConfig(method="wcls"))
    corrected = with_variance_mode(res, "stacked_small_sample")
    assert corrected.se[0] / res.se[0] == pytest.approx(1.0, abs=0.01)


def test_single_subject_guarded():
    ds = build_panel(1, 4, seed=5)
    res = fit(ds, EstimatorConfig(method="wcls"))
    with pytest.raises(errors.MrtxError):
        score_meat(_leverage(res.parts)[1])


def test_confidence_interval_quantile_oracle():
    z = stats.norm.ppf(0.975)
    lo, hi, p = confidence_intervals(np.array([-0.1]), np.array([0.03]),
                                     0.95, False, 100, 2)
    assert lo[0] == pytest.approx(-0.1 - z * 0.03)
    assert hi[0] == pytest.approx(-0.1 + z * 0.03)
    assert lo[0] == pytest.approx(-0.1588, abs=1e-4)
    assert hi[0] == pytest.approx(-0.0412, abs=1e-4)


def test_ci_widens_with_level():
    widths = []
    for level in (0.8, 0.9, 0.95, 0.99):
        lo, hi, _ = confidence_intervals(np.array([0.5]), np.array([0.1]),
                                         level, False, 50, 2)
        widths.append(hi[0] - lo[0])
    assert np.all(np.diff(widths) > 0)


def test_zero_estimate_unit_pvalue():
    _, _, p = confidence_intervals(np.array([0.0]), np.array([0.1]),
                                   0.95, False, 50, 2)
    assert p[0] == 1.0


def test_t_quantiles_for_small_sample():
    lo_n, hi_n, _ = confidence_intervals(np.array([1.0]), np.array([0.2]),
                                         0.95, False, 10, 3)
    lo_t, hi_t, _ = confidence_intervals(np.array([1.0]), np.array([0.2]),
                                         0.95, True, 10, 3)
    assert hi_t[0] - lo_t[0] > hi_n[0] - lo_n[0]
    tq = stats.t.ppf(0.975, 7)
    assert hi_t[0] == pytest.approx(1.0 + tq * 0.2)


CI_LEVELS = np.linspace(0.8, 0.99, 20)
CI_Z = np.concatenate([np.linspace(0.0, 40.0, 4001), [np.inf]])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_normal_intervals_match_scipy_ndtr(sign):
    est = sign * CI_Z
    se = np.where(np.isinf(CI_Z), 0.0, 1.0)
    for level in CI_LEVELS:
        lo, hi, p = confidence_intervals(est, se, level, False, 100, 2)
        crit = special.ndtri(0.5 + level / 2.0)
        np.testing.assert_allclose(lo, est - crit * se, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(hi, est + crit * se, rtol=1e-10, atol=1e-12)
        p_ref = np.where(est == 0.0, 1.0, 2.0 * special.ndtr(-np.abs(CI_Z)))
        np.testing.assert_allclose(p, p_ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("df", [1, 3, 50, 1998, 5000, 100_000, 1_000_000])
def test_t_intervals_match_scipy_stdtr(df):
    # relative only, down to p ~ 1e-257 at df 1998; from df 10^5 on the far tail
    # leaves float64's normal range, where scipy's reference flushes to zero
    est = np.concatenate([-CI_Z[:-1], CI_Z[:-1]])
    se = np.ones_like(est)
    tiny = np.finfo(float).tiny
    for level in CI_LEVELS:
        lo, hi, p = confidence_intervals(est, se, level, True, df + 2, 2)
        crit = special.stdtrit(df, 0.5 + level / 2.0)
        np.testing.assert_allclose((hi - lo) / (2.0 * se), crit, rtol=1e-11)
        p_ref = np.where(est == 0.0, 1.0, 2.0 * special.stdtr(df, -np.abs(est)))
        normal = p_ref >= tiny
        np.testing.assert_allclose(p[normal], p_ref[normal], rtol=1e-11, atol=0)
        assert (p[~normal] < tiny).all()


def _t_crit(level, df):
    lo, hi, _ = confidence_intervals(np.zeros(1), np.ones(1), level, True, df + 2, 2)
    return hi[0]


def test_t_reference_edge_cases():
    # z = 0 gives p = 1 and se = 0 gives p = 0, with no numpy warning at z = 0 or +-inf
    _, _, p = confidence_intervals(np.array([0.0, 0.0, 0.5, -0.5]),
                                   np.array([0.3, 0.0, 0.0, 0.0]), 0.95, True, 20, 3)
    assert p.tolist() == [1.0, 1.0, 0.0, 0.0]
    # df = max(N - dim, 1): N = dim reads df 1
    lo, hi, _ = confidence_intervals(np.zeros(1), np.ones(1), 0.9, True, 3, 3)
    assert hi[0] == _t_crit(0.9, 1)
    # the Cauchy far tail, where Newton needs a start near the root
    assert _t_crit(0.999999, 1) == pytest.approx(636619.7723, rel=1e-10)
    for df in (1, 3, 1998):
        assert _t_crit(0.999999, df) == pytest.approx(special.stdtrit(df, 0.5 + 0.999999 / 2),
                                                      rel=1e-11, abs=0)


@pytest.mark.parametrize("df", [1, 2])
def test_t_reference_closed_forms(df):
    z = np.linspace(0.01, 30.0, 3000)
    _, _, p = confidence_intervals(z, np.ones_like(z), 0.95, True, df + 2, 2)
    root = np.sqrt(2.0 + z * z)
    closed = (2.0 / np.pi * np.arctan(1.0 / z) if df == 1     # 1 - 2 atan(z) / pi
              else 2.0 / (root * (root + z)))                 # 1 - z / sqrt(2 + z^2)
    np.testing.assert_allclose(p, closed, rtol=1e-12, atol=0)
    for level in (1e-6, 0.5, 0.95, 0.999999):
        q = 0.5 + level / 2.0
        closed = (1.0 / np.tan(np.pi * (1.0 - q)) if df == 1     # tan(pi (q - 1/2))
                  else (2.0 * q - 1.0) / np.sqrt(2.0 * q * (1.0 - q)))
        # near level 0 the quantile is found to an absolute 1e-16, like the tail
        assert _t_crit(level, df) == pytest.approx(closed, rel=1e-11, abs=1e-15)


@pytest.mark.parametrize("df", [3, 4, 5, 7, 10, 30, 100, 1000, 10_000])
def test_t_quantile_is_the_root_of_the_tail(df):
    # Newton converges from its start at every level, the extremes included
    for level in (1e-9, 1e-3, 0.5, 0.8, 0.95, 0.99, 0.999999, 1.0 - 1e-12):
        crit = _t_crit(level, df)
        upper = 1.0 - (0.5 + level / 2.0)
        assert special.stdtr(df, -crit) == pytest.approx(upper, rel=1e-10, abs=0)


def test_plain_sandwich_singular_bread():
    parts = SandwichParts(bread=np.zeros((2, 2)), subject_scores=np.zeros((3, 2)))
    with pytest.raises(errors.SingularBread):
        plain_sandwich(parts)


def _duplicated_moderator_emee():
    rng = np.random.default_rng(4)
    m = rng.standard_normal(120)
    ds = build_panel(20, 6, y=(rng.random(120) < 0.3).astype(float), m1=m, m2=m,
                     schema=Schema(moderators=("m1", "m2"), aux=("z",)))
    fit(ds, EstimatorConfig(method="emee"))


def _saturated_single_subject():
    # three usable rows for three parameters: H = I, so I - H vanishes
    ds = build_panel(1, 3, seed=0, a=[1, 0, 1])
    fit(ds, EstimatorConfig(method="wcls", variance_mode="stacked_small_sample"))


@pytest.mark.parametrize("exc, trigger", [
    (errors.SingularJacobian, _duplicated_moderator_emee),
    (errors.SingularLeverage, _saturated_single_subject),
], ids=["jacobian", "leverage"])
def test_typed_singularity_errors(exc, trigger):
    with pytest.raises(exc):
        trigger()


def test_same_variance_mode_reproduces_every_derived_field():
    ds = gen_panel(DgmSpec(kind="proximal_j2", n=40, horizon=6, beta0=-0.2,
                           beta1=0.5, seed=4))
    for mode in ("plain_sandwich", "stacked", "stacked_small_sample"):
        res = fit(ds, EstimatorConfig(method="a2wcls", variance_mode=mode))
        again = with_variance_mode(res, res.config.variance_mode)
        for name in ("alpha", "beta0", "beta1", "beta0_names", "beta1_names", "vcov",
                     "vcov_beta0", "se", "se_all", "ci_lo", "ci_lo_all", "ci_hi",
                     "ci_hi_all", "p_value", "p_value_all"):
            np.testing.assert_array_equal(getattr(again, name), getattr(res, name),
                                          err_msg=f"{mode}: {name}")
        for name in ("subject_scores", "bread"):
            np.testing.assert_array_equal(getattr(again.parts, name),
                                          getattr(res.parts, name), err_msg=f"{mode}: {name}")


_REFUSED = {
    "emee": (DgmSpec(kind="binary_demo", n=150, horizon=6, beta0=0.2, seed=3), "orthogonal",
             "binary methods support plain_sandwich variance only"),
    "a2emee": (DgmSpec(kind="binary_demo", n=150, horizon=6, beta0=0.2, seed=3), "orthogonal",
               "binary methods support plain_sandwich variance only"),
    "a2wcls": (DgmSpec(kind="proximal_j2", n=40, horizon=6, beta0=-0.2, beta1=0.5, seed=4),
               "global_mean", "stacked variance requires an orthogonality-fitted centering"),
}


@pytest.mark.parametrize("mode", ["stacked", "stacked_small_sample"])
@pytest.mark.parametrize("method", list(_REFUSED))
def test_with_variance_mode_refuses_what_a_direct_fit_refuses(method, mode):
    spec, centering, message = _REFUSED[method]
    ds = gen_panel(spec)
    with pytest.raises(errors.DimensionMismatch, match=message):
        fit(ds, EstimatorConfig(method=method, variance_mode=mode, centering_kind=centering))
    res = fit(ds, EstimatorConfig(method=method, centering_kind=centering))
    with pytest.raises(errors.DimensionMismatch, match=message):
        with_variance_mode(res, mode)


@pytest.mark.parametrize("spec, method", [
    (DgmSpec(kind="proximal_j2", n=60, horizon=8, beta0=-0.2, beta1=0.5, seed=3), "a2wcls"),
    (DgmSpec(kind="timevarying_j3", n=60, horizon=8, beta0=(-0.2, 0.02), beta1=0.5, seed=3),
     "a2wcls"),
    (DgmSpec(kind="lagged_eq12", n=60, horizon=8, beta0=-0.1, beta1=0.5, seed=3),
     "a2wcls_lagged"),
], ids=["proximal_j2", "timevarying_j3", "lagged_eq12"])
def test_finite_difference_cross_derivative(spec, method):
    # d/dtheta of the score X' W (y - X beta) / n at the fitted beta, with X
    # rebuilt around each perturbed centering, applied to each subject's
    # influence on theta, is that subject's centering shift
    ds = gen_panel(spec)
    res = fit(ds, EstimatorConfig(method=method, lag=ds.lag, variance_mode="stacked"))
    cm = fit_centering(ds)
    if spec.kind == "timevarying_j3":
        assert cm.q == 2
    y, w = ds.usable(ds.y), ds.usable(ds.weight_w)

    def score(theta):
        X = _pooled_design(ds, replace(cm, theta=theta), method == "a2wcls_lagged")[0]
        return X.T @ (w * (y - X @ res.estimates)) / ds.n_subjects

    h = 1e-6
    fd = np.empty((res.parts.dim, cm.theta.size))
    for j in range(cm.theta.size):
        step = (np.arange(cm.theta.size) == j).reshape(cm.theta.shape) * h
        fd[:, j] = (score(cm.theta + step) - score(cm.theta - step)) / (2 * h)
    shift = res.parts.centering_shift
    fd_shift = cm.influence.reshape(ds.n_subjects, -1) @ fd.T
    assert np.abs(fd_shift - shift).max() <= 1e-6 * np.abs(shift).max()


def test_unknown_variance_mode_rejected():
    res = fit(build_panel(10, 5, seed=1), EstimatorConfig(method="wcls"))
    with pytest.raises(errors.DimensionMismatch, match="unknown variance mode 'bogus'"):
        with_variance_mode(res, "bogus")


def dense_leverage_oracle(ds, parts, estimates):
    """Mancl–DeRouen scores from the explicit (N, T, T) hat matrices."""
    binv = np.linalg.inv(parts.bread) / parts.n_subjects
    d = parts.model_matrix
    resid = (ds.usable(ds.y) - d.reshape(-1, parts.dim) @ estimates).reshape(d.shape[:2])
    dw = d * parts.weights[:, :, None]
    h = np.einsum("ntk,kl,nsl->nts", d, binv, dw)        # H_j = D_j B^-1 D_j' W_j
    i_minus_h = np.eye(h.shape[1]) - h
    adj_resid = np.linalg.solve(i_minus_h, resid[:, :, None])[:, :, 0]
    return np.einsum("ntk,nt->nk", dw, adj_resid)


def _subject_varying_weights_wcls():
    n, T = 40, 8
    p = np.repeat(np.random.default_rng(6).uniform(0.2, 0.8, n), T)
    rng = np.random.default_rng(7)
    ds = build_panel(n, T, seed=7, p=p, a=(rng.random(n * T) < p).astype(float))
    res = fit(ds, EstimatorConfig(method="wcls", variance_mode="stacked_small_sample"))
    assert np.ptp(res.parts.weights.mean(axis=1)) > 0.1     # weights differ across subjects
    return ds, res


def _panel_fit(spec, config):
    ds = gen_panel(spec)
    return ds, fit(ds, config)


_SMALL_SAMPLE_FITS = {
    "a2wcls_proximal": lambda: _panel_fit(
        DgmSpec(kind="proximal_j2", n=60, horizon=10, beta0=-0.2, beta1=0.5, seed=11),
        EstimatorConfig(method="a2wcls", variance_mode="stacked_small_sample")),
    "wcls_lag2": lambda: _panel_fit(
        DgmSpec(kind="lagged_eq12", n=60, horizon=10, beta0=-0.1, beta1=0.5, seed=12),
        EstimatorConfig(method="wcls", lag=2, variance_mode="stacked_small_sample")),
    "a2wcls_lagged_lag2": lambda: _panel_fit(
        DgmSpec(kind="lagged_eq12", n=60, horizon=10, beta0=-0.1, beta1=0.5, seed=13),
        EstimatorConfig(method="a2wcls_lagged", lag=2, variance_mode="stacked_small_sample")),
    "wcls_subject_weights": _subject_varying_weights_wcls,
}


@pytest.mark.parametrize("name", list(_SMALL_SAMPLE_FITS))
def test_leverage_scores_match_dense_oracle(name):
    ds, res = _SMALL_SAMPLE_FITS[name]()
    expected = dense_leverage_oracle(ds, res.parts, res.estimates)
    got = _leverage(res.parts)[1]
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    scores = expected
    if res.parts.centering_shift is not None:
        scores = scores + res.parts.centering_shift
    binv = np.linalg.inv(res.parts.bread)
    vcov = binv @ score_meat(scores) @ binv.T
    assert np.abs(res.vcov - vcov).max() <= 1e-10 * np.abs(vcov).max()


def test_leverage_scores_build_no_hat_array():
    n, T, k = 400, 100, 4
    rng = np.random.default_rng(0)
    d = rng.standard_normal((n, T, k))
    w = rng.uniform(0.5, 2.0, (n, T))
    r = rng.standard_normal((n, T))
    scores = np.einsum("ntk,nt->nk", d, w * r)
    parts = SandwichParts(bread=np.einsum("ntk,nt,ntl->kl", d, w, d) / n,
                          subject_scores=scores, model_matrix=d, weights=w)
    tracemalloc.start()
    try:
        _leverage(parts)[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * T * T * 8          # one (N, T, T) float64 array is 32 MB


# 1 - 2**-53: 0.5 + level / 2 rounds to 1, so the quantile would be infinite
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan"), 1.0 - 2.0 ** -53])
def test_bad_ci_level_is_dimension_mismatch(level):
    res = fit(build_panel(10, 5, seed=1), EstimatorConfig(method="wcls"))
    with pytest.raises(errors.DimensionMismatch, match="ci_level must lie in"):
        with_variance_mode(res, "plain_sandwich", ci_level=level)
    with pytest.raises(errors.DimensionMismatch, match="ci_level must lie in"):
        confidence_intervals(res.estimates, res.se_all, level, False, 10, 3)
    with pytest.raises(errors.DimensionMismatch, match="ci_level must lie in"):
        EstimatorConfig(ci_level=level)


def test_small_sample_needs_retained_model_matrices():
    ds = gen_panel(DgmSpec(kind="binary_demo", n=60, horizon=6, beta0=0.2, seed=3))
    parts = fit(ds, EstimatorConfig(method="emee")).parts
    with pytest.raises(errors.SingularLeverage,
                       match="per-subject model matrices were not retained"):
        stacked_small_sample(parts)
