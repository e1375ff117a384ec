import numpy as np
import pytest

from mrtx import errors, variance
from mrtx.data import Schema
from mrtx.estimators import EstimatorConfig, closed_form_gaps, fit, wls_solve

from conftest import build_panel


def test_identity_design():
    X = np.eye(4)
    y = np.array([1.0, -2.0, 3.0, 0.5])
    beta = wls_solve(X, y, np.ones(4), 4)[0]
    np.testing.assert_allclose(beta, y)


def test_weight_two_equals_duplicated_row():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 2))
    y = rng.standard_normal(5)
    w = np.ones(5)
    w[2] = 2.0
    b_weighted = wls_solve(X, y, w, 5)[0]
    X_dup = np.vstack([X, X[2:3]])
    y_dup = np.append(y, y[2])
    b_dup = wls_solve(X_dup, y_dup, np.ones(6), 6)[0]
    np.testing.assert_allclose(b_weighted, b_dup, atol=1e-12)


def test_three_row_system_against_grid_minimizer():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 3.0]])
    y = np.array([0.5, 1.0, 2.5])
    w = np.array([1.0, 2.0, 0.5])
    beta = wls_solve(X, y, w, 3)[0]

    def objective(b):
        r = y - X @ b
        return np.sum(w * r * r)

    # coarse-to-fine grid search as the independent oracle
    best = None
    center = np.zeros(2)
    half = 4.0
    for _ in range(12):
        g0 = np.linspace(center[0] - half, center[0] + half, 41)
        g1 = np.linspace(center[1] - half, center[1] + half, 41)
        vals = [(objective(np.array([b0, b1])), b0, b1) for b0 in g0 for b1 in g1]
        best = min(vals)
        center = np.array([best[1], best[2]])
        half /= 4.0
    np.testing.assert_allclose(beta, [best[1], best[2]], atol=1e-6)


def test_singular_gram():
    X = np.ones((4, 2))
    with pytest.raises(errors.SingularGram):
        wls_solve(X, np.ones(4), np.ones(4), 4)


def single_time_panel(y, a, p=0.5, g=None):
    n = len(y)
    extra = {} if g is None else {"g1": g}
    schema = Schema(aux=("z",), controls=("g1",) if g is not None else ())
    return build_panel(n, 1, a=a, p=np.full(n, p), y=y, z=np.zeros(n),
                       schema=schema, **extra)


def test_saturated_two_point_fit():
    ds = single_time_panel(y=[1.0, 0.0, 1.0, 0.0], a=[1, 0, 1, 0])
    res = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=1)
    assert res.beta0[0] == pytest.approx(1.0)
    assert res.alpha[0] == pytest.approx(0.5)


def ols_slope_intercept(y, x):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    return slope, y.mean() - slope * x.mean()


def test_four_point_toy_against_ols_oracle():
    # closed-form OLS oracle on the centered-treatment regressor
    y = [1.0, 2.0, 3.0, 4.0]
    for a in ([0, 1, 0, 1], [0, 0, 1, 1]):
        ds = single_time_panel(y=y, a=a)
        res = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=1)
        slope, intercept = ols_slope_intercept(y, np.asarray(a) - 0.5)
        assert res.beta0[0] == pytest.approx(slope)
        assert res.alpha[0] == pytest.approx(intercept)
    # the alternating assignment gives the difference in group means = 1,
    # the blocked assignment gives 2 with intercept 2.5
    ds = single_time_panel(y=y, a=[0, 0, 1, 1])
    res = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=1)
    assert res.beta0[0] == pytest.approx(2.0)
    assert res.alpha[0] == pytest.approx(2.5)


def test_null_effect_limit():
    rng = np.random.default_rng(1)
    n = 200_000
    y = rng.standard_normal(n)
    a = rng.integers(0, 2, n)
    ds = single_time_panel(y=y, a=a)
    res = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=1)
    assert abs(res.beta0[0]) < 4.0 / np.sqrt(n / 4)


def test_constant_control_matches_unadjusted():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(30)
    a = rng.integers(0, 2, 30)
    ds_c = single_time_panel(y=y, a=a, g=np.full(30, 3.0))
    ds_u = single_time_panel(y=y, a=a)
    fit_c = fit(ds_c, EstimatorConfig(method="wcls_per_time"), t=1)
    fit_u = fit(ds_u, EstimatorConfig(method="unadjusted_per_time"), t=1)
    assert fit_c.beta0[0] == pytest.approx(fit_u.beta0[0], abs=1e-12)


def test_control_residual_orthogonality():
    rng = np.random.default_rng(3)
    n = 50
    g = rng.standard_normal(n)
    a = rng.integers(0, 2, n)
    y = 1.0 + 0.5 * g + (a - 0.5) * 0.7 + rng.standard_normal(n)
    ds = single_time_panel(y=y, a=a, g=g)
    res = fit(ds, EstimatorConfig(method="wcls_per_time"), t=1)
    gt = g - g.mean()
    resid = y - res.alpha[0] - gt * res.alpha[1] - (a - 0.5) * res.beta0[0]
    assert abs(np.sum(resid * gt)) / n <= 1e-8


def test_lin_reduces_to_unadjusted_with_degenerate_control():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(40)
    a = rng.integers(0, 2, 40)
    ds = single_time_panel(y=y, a=a, g=np.zeros(40))
    fit_l = fit(ds, EstimatorConfig(method="lin_per_time"), t=1)
    ds_u = single_time_panel(y=y, a=a)
    fit_u = fit(ds_u, EstimatorConfig(method="unadjusted_per_time"), t=1)
    assert fit_l.beta0[0] == pytest.approx(fit_u.beta0[0], abs=1e-12)
    assert fit_l.beta1.size == 0


def test_lin_recovers_noiseless_interaction():
    rng = np.random.default_rng(5)
    n = 40
    g = rng.standard_normal(n)
    a = rng.integers(0, 2, n)
    gt = g - g.mean()
    y = 2.0 + 0.3 * gt + (a - 0.5) * (0.7 + 1.4 * gt)
    ds = single_time_panel(y=y, a=a, g=g)
    res = fit(ds, EstimatorConfig(method="lin_per_time"), t=1)
    assert res.beta0[0] == pytest.approx(0.7, abs=1e-10)
    assert res.beta1[0] == pytest.approx(1.4, abs=1e-10)


# ---------------------------------------------------------------------------
# closed-form gaps


def test_gap_examples_hand_evaluated():
    g = closed_form_gaps(0.5, [1.0], [0.0], [[2.0]])
    assert g["gap_wcls_vs_u"] == pytest.approx(-0.25 * 2.0)
    assert g["gap_lin_vs_wcls"] == pytest.approx(0.0)

    g = closed_form_gaps(0.7, [1.0], [1.0], [[1.0]])
    assert g["gap_wcls_vs_u"] == pytest.approx(-0.21 * (1 + 2 * (1 - 1.4)))
    assert g["gap_wcls_vs_u"] == pytest.approx(-0.042)

    g = closed_form_gaps(0.7, [1.0], [2.0], [[1.0]])
    assert g["gap_wcls_vs_u"] == pytest.approx(-0.21 * (1.0 - 1.6))
    assert g["gap_wcls_vs_u"] == pytest.approx(0.126)


def test_gap_nonnegative_gains():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = rng.integers(1, 4)
        alpha1 = rng.standard_normal(d)
        beta1 = rng.standard_normal(d)
        m = rng.standard_normal((d, d))
        sigma = m @ m.T
        p = rng.uniform(0.05, 0.95)
        g = closed_form_gaps(p, alpha1, beta1, sigma)
        assert g["gap_lin_vs_u"] >= -1e-12
        assert g["gap_lin_vs_wcls"] >= -1e-12


def test_gap_beta_zero_equivalence():
    g = closed_form_gaps(0.3, [0.5, -0.2], [0.0, 0.0], np.eye(2))
    assert g["gap_lin_vs_wcls"] == pytest.approx(0.0)
    # with beta1 = 0 the interacted and control-only estimators coincide,
    # so their gains over the unadjusted baseline agree
    assert g["gap_lin_vs_u"] == pytest.approx(-g["gap_wcls_vs_u"] / (0.3 * 0.7) ** 2)


def test_gap_domain_errors():
    with pytest.raises(ValueError):
        closed_form_gaps(1.2, [1.0], [0.0], [[1.0]])
    with pytest.raises(ValueError):
        closed_form_gaps(0.5, [1.0], [0.0], [[-1.0]])
    with pytest.raises(ValueError):
        closed_form_gaps(0.5, [1.0, 2.0], [0.0], np.eye(2))


def test_gap_asymmetric_sigma_rejected():
    with pytest.raises(ValueError, match="sigma_g must be symmetric"):
        closed_form_gaps(0.5, [1.0, 0.0], [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


def test_row_and_column_major_designs_agree():
    # wls_solve reads X in either memory order, and its blocked sums, over two
    # full blocks and a ragged one, match the one-pass normal equations
    rng = np.random.default_rng(4)
    n = 2 * variance._BLOCK_ROWS + 123
    X = rng.standard_normal((n, 5))
    y = rng.standard_normal(n)
    w = rng.uniform(0.5, 2.0, n)
    beta_c, gram_c, inv_c = wls_solve(X, y, w, 50)
    beta_f, gram_f, _ = wls_solve(np.asfortranarray(X), y, w, 50)
    assert X.flags.c_contiguous and not X.flags.f_contiguous
    np.testing.assert_allclose(beta_f, beta_c, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gram_f, gram_c, rtol=1e-12, atol=0)
    Xw = X * w[:, None]
    np.testing.assert_allclose(gram_c, Xw.T @ X / 50, rtol=1e-12, atol=0)
    # the inverse comes from the same checked solve as the coefficients
    np.testing.assert_allclose(inv_c, np.linalg.inv(gram_c), rtol=1e-12, atol=0)
    np.testing.assert_allclose(beta_c, np.linalg.solve(Xw.T @ X, Xw.T @ y),
                               rtol=1e-12, atol=0)


def test_matrix_right_hand_side_matches_column_solves():
    # one right-hand side per column, over two full blocks and a ragged one,
    # solves as each column does alone: the centering projections rely on it
    rng = np.random.default_rng(5)
    n = 2 * variance._BLOCK_ROWS + 77
    X = rng.standard_normal((n, 3))
    Y = rng.standard_normal((n, 4))
    w = rng.uniform(0.5, 2.0, n)
    theta, gram, _ = wls_solve(X, Y, w, 40)
    assert theta.shape == (3, 4)
    for j in range(Y.shape[1]):
        beta_j, gram_j, _ = wls_solve(X, Y[:, j], w, 40)
        np.testing.assert_allclose(theta[:, j], beta_j, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(gram, gram_j)


@pytest.mark.parametrize("n, t", [(2, variance._BLOCK_ROWS + 9), (40, 300)])
def test_per_unit_views_match_flat_rows(n, t):
    # per-unit views (units, rows, k), strided as the usable-row views of a lagged
    # panel are, solve as the flat rows do; a unit longer than a block is read as
    # flat rows, so no block exceeds _BLOCK_ROWS and the sums are the same bits
    rng = np.random.default_rng(8)
    X = rng.standard_normal((n, t + 1, 3))[:, 1:]
    Y = rng.standard_normal((n, t + 1, 2))[:, 1:]
    w = rng.uniform(0.5, 2.0, (n, t + 1))[:, 1:]
    theta, gram, _ = wls_solve(X, Y, w, n)
    flat_theta, flat_gram, _ = wls_solve(X.reshape(-1, 3), Y.reshape(-1, 2), w.reshape(-1), n)
    if t > variance._BLOCK_ROWS:
        np.testing.assert_array_equal(theta, flat_theta)
        np.testing.assert_array_equal(gram, flat_gram)
    np.testing.assert_allclose(theta, flat_theta, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gram, flat_gram, rtol=1e-12, atol=0)
