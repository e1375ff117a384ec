import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mrtx import errors, estimators
from mrtx.centering import fit_centering
from mrtx.data import Schema, from_columns
from mrtx.estimators import (
    ADJUSTED,
    METHODS,
    PER_TIME,
    PROXIMAL,
    EstimatorConfig,
    fit,
    with_variance_mode,
)
from mrtx.simulation import DgmSpec, McArm, gen_panel, run_monte_carlo
from mrtx.variance import SandwichParts

from conftest import build_panel, panel_from_arrays


def test_exact_linear_recovery():
    rng = np.random.default_rng(0)
    n, T = 20, 5
    a = rng.integers(0, 2, n * T).astype(float)
    c = -0.7
    y = 1.3 + c * (a - 0.5)
    ds = build_panel(n, T, a=a, p=np.full(n * T, 0.5), y=y,
                     ptilde=np.full(n * T, 0.5),
                     schema=Schema(aux=("z",), ptilde="ptilde"))
    res = fit(ds, EstimatorConfig(method="wcls"))
    assert res.beta0[0] == pytest.approx(c, abs=1e-12)


def test_subject_permutation_bit_identical():
    cols = panel_from_arrays(12, 6, seed=11)
    order = np.random.default_rng(5).permutation(72)
    shuffled = {k: np.asarray(v)[order] for k, v in cols.items()}
    schema = Schema(aux=("z",), controls=("g1",))
    f1 = fit(from_columns(cols, schema), EstimatorConfig(method="wcls"))
    f2 = fit(from_columns(shuffled, schema), EstimatorConfig(method="wcls"))
    assert np.array_equal(f1.estimates, f2.estimates)
    assert np.array_equal(f1.vcov, f2.vcov)


@pytest.mark.parametrize("method", ["wcls", "a2wcls", "emee", "a2emee"])
def test_shuffled_string_ids_bit_identical(method):
    ds = gen_panel(DgmSpec(kind="binary_demo", n=150, horizon=6, beta0=0.2, seed=3))
    cols = {k: ds.columns[k] for k in ("t", "a", "p", "y", "z")}
    cols["subject_id"] = np.array([f"s{i:03d}" for i in ds.subject_ids])   # sorted
    order = np.random.default_rng(9).permutation(ds.n_rows)
    shuffled = {k: v[order] for k, v in cols.items()}
    schema = Schema(aux=("z",), controls=("z",))
    config = EstimatorConfig(method=method)
    f1 = fit(from_columns(cols, schema), config)
    f2 = fit(from_columns(shuffled, schema), config)
    assert np.array_equal(f1.estimates, f2.estimates)
    assert np.array_equal(f1.vcov, f2.vcov)


def test_outcome_shift_equivariance():
    cols = panel_from_arrays(15, 6, seed=2)
    schema = Schema(aux=("z",), controls=("g1",))
    ds = from_columns(cols, schema)
    cols_shift = dict(cols)
    cols_shift["y"] = np.asarray(cols["y"]) + 12.5
    ds2 = from_columns(cols_shift, schema)
    for method in ("wcls", "a2wcls"):
        r1, r2 = (fit(d, EstimatorConfig(method=method)) for d in (ds, ds2))
        np.testing.assert_allclose(r1.beta0, r2.beta0, atol=1e-10)
        np.testing.assert_allclose(r1.beta1, r2.beta1, atol=1e-10)
        # only the intercept-type nuisance component moves
        assert r2.alpha[0] - r1.alpha[0] == pytest.approx(12.5, abs=1e-9)


def test_constant_auxiliary_degenerate():
    ds = build_panel(10, 4, z=np.full(40, 1.7))
    with pytest.raises(errors.DegenerateAuxiliary):
        fit(ds, EstimatorConfig(method="a2wcls"))


@pytest.mark.parametrize("method,lag,aux", [
    ("a2wcls", 1, "constant"), ("a2wcls_lagged", 2, "constant"), ("a2emee", 1, "constant"),
    ("a2wcls", 1, "moderator"), ("a2emee", 1, "moderator")],
    ids=["a2wcls-1", "a2wcls_lagged-2", "a2emee-1", "a2wcls-1-moderator", "a2emee-1-moderator"])
def test_constant_auxiliary_degenerate_every_path(method, lag, aux):
    # a constant or moderator-equal auxiliary is its own centering: zc = 0
    y = (np.random.default_rng(12).random(60) < 0.4).astype(float)
    if aux == "constant":
        ds = build_panel(10, 6, lag=lag, y=y, z=np.full(60, 1.7))
    else:
        m1 = np.random.default_rng(13).standard_normal(60)
        ds = build_panel(10, 6, lag=lag, y=y, m1=m1, z=m1, schema=Schema(
            moderators=("m1",), aux=("z",), controls=("g1",)))
    with pytest.raises(errors.DegenerateAuxiliary):
        fit(ds, EstimatorConfig(method=method, lag=lag))


def _assert_finite(res):
    assert np.isfinite(res.estimates).all() and np.isfinite(res.vcov).all()
    assert np.isfinite(res.se_all).all()


@pytest.mark.parametrize("p_edge", [1e-7, 1 - 1e-7])
@pytest.mark.parametrize("a_edge", [0.0, 1.0])
@pytest.mark.parametrize("method", ["wcls", "a2wcls"])
def test_randomization_probability_near_zero_or_one(method, a_edge, p_edge):
    # the likelihood-ratio weight of that row is about 1 or about 5e6
    cols = panel_from_arrays(30, 6, seed=2)
    cols["p"][7], cols["a"][7] = p_edge, a_edge
    ds = from_columns(cols, Schema(aux=("z",), controls=("g1",)))
    _assert_finite(fit(ds, EstimatorConfig(method=method)))


@pytest.mark.parametrize("method", ["wcls", "a2wcls_lagged"])
def test_lag_equal_to_horizon(method):
    ds = build_panel(20, 6, lag=6, seed=4)
    assert ds.n_usable == 1
    _assert_finite(fit(ds, EstimatorConfig(method=method, lag=6)))


@pytest.mark.parametrize("method, mode", [
    ("wcls", "plain_sandwich"), ("a2wcls", "plain_sandwich"), ("a2wcls", "stacked"),
    ("a2wcls", "stacked_small_sample"), ("emee", "plain_sandwich"),
    ("a2emee", "plain_sandwich")])
def test_single_decision_panel(method, mode):
    y = (np.random.default_rng(3).random(40) < 0.4).astype(float)
    ds = build_panel(40, 1, seed=5, y=y)
    _assert_finite(fit(ds, EstimatorConfig(method=method, variance_mode=mode)))


def test_a2_populates_both_blocks():
    spec = DgmSpec(kind="proximal_j2", n=60, horizon=10, beta0=-0.2, beta1=0.5, seed=4)
    ds = gen_panel(spec)
    res = fit(ds, EstimatorConfig(method="a2wcls"))
    assert res.beta0.shape == (1,)
    assert res.beta1.shape == (1,)
    assert res.beta1_names == ("beta1:z",)
    assert res.vcov_beta0.shape == (1, 1)


def test_single_time_wcls_equals_per_time():
    rng = np.random.default_rng(3)
    n = 80
    a = rng.integers(0, 2, n).astype(float)
    y = rng.standard_normal(n) + a
    ds = build_panel(n, 1, a=a, p=np.full(n, 0.5), y=y,
                     ptilde=np.full(n, 0.5),
                     schema=Schema(aux=("z",), ptilde="ptilde"))
    pooled = fit(ds, EstimatorConfig(method="wcls"))
    per_time = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=1)
    assert pooled.beta0[0] == pytest.approx(per_time.beta0[0], abs=1e-12)
    assert pooled.se[0] == pytest.approx(per_time.se[0], abs=1e-12)


def test_residual_orthogonality_all_linear_fits():
    spec = DgmSpec(kind="lagged_eq12", n=40, horizon=8, beta0=-0.1, beta1=0.5, seed=9)
    ds = gen_panel(spec)
    prox = gen_panel(DgmSpec(kind="proximal_j2", n=40, horizon=8,
                             beta0=-0.2, beta1=0.5, seed=9))
    fits = [
        (fit(ds, EstimatorConfig(method="wcls", lag=2)), ds),
        (fit(ds, EstimatorConfig(method="a2wcls_lagged", lag=2)), ds),
        (fit(prox, EstimatorConfig(method="a2wcls")), prox),
    ]
    for res, d in fits:
        parts = res.parts
        w = parts.weights.reshape(-1)
        X = parts.model_matrix.reshape(-1, parts.dim)
        resid = d.usable(d.y) - X @ res.estimates
        gram = np.abs(X.T @ (w * resid)) / d.n_subjects
        assert gram.max() <= 1e-8


def test_lagged_equals_wcls_without_post_effects():
    # noiseless outcome with no next-decision effect terms: the working-model
    # blocks fit exactly zero and the lag-2 effect matches plain pooled WCLS
    rng = np.random.default_rng(12)
    n, T = 400, 8
    a = rng.integers(0, 2, (n, T)).astype(float)
    z = rng.integers(0, 2, (n, T)) * 2.0 - 1.0
    p = np.full((n, T), 0.5)
    y2 = np.zeros((n, T))
    y2[:, :T - 1] = 0.7 - 0.1 * (a[:, :T - 1] - 0.5)
    y_raw = np.zeros((n, T))
    y_raw[:, 1:] = y2[:, :T - 1]       # raw row t is Y_{t+1}; lag 2 aligns it back
    cols = {
        "subject_id": np.repeat(np.arange(n), T),
        "t": np.tile(np.arange(1, T + 1), n),
        "a": a.reshape(-1), "p": p.reshape(-1), "y": y_raw.reshape(-1),
        "z": z.reshape(-1), "pt": np.full(n * T, 0.5),
    }
    schema = Schema(aux=("z",), ptilde="pt")
    ds = from_columns(cols, schema, lag=2)
    lagged = fit(ds, EstimatorConfig(method="a2wcls_lagged", lag=2))
    plain = fit(ds, EstimatorConfig(method="wcls", lag=2))
    assert lagged.beta0[0] == pytest.approx(-0.1, abs=1e-10)
    assert lagged.beta0[0] == pytest.approx(plain.beta0[0], abs=1e-8)
    est = dict(zip(lagged.param_names, lagged.estimates))
    assert est["alpha_l1:1"] == pytest.approx(0.0, abs=1e-8)
    assert est["alpha_l1:z"] == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("mode", ["stacked", "stacked_small_sample"])
def test_lag3_lagged_fit_matches_recorded(mode):
    # lag 3 reads each usable row two steps ahead through two working-model
    # blocks; the values were recorded from the masked full-panel design
    ref = json.loads((Path(__file__).parent / "reference" / "lag3_a2wcls_lagged.json")
                     .read_text())[mode]
    ds = gen_panel(DgmSpec(kind="nonmoderator_robust", n=40, horizon=7, beta0=-0.2, seed=5))
    ds3 = from_columns(ds.columns, ds.schema, lag=3)
    res = fit(ds3, EstimatorConfig(method="a2wcls_lagged", lag=3, variance_mode=mode))
    assert list(res.param_names) == ref["param_names"]
    np.testing.assert_allclose(res.estimates, ref["estimates"], rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(res.vcov, ref["vcov"], rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("kwargs, message", [
    ({"ci_level": "0.9"}, "ci_level must be a real number"),
    ({"ci_level": True}, "ci_level must be a real number"),
    ({"method": "a2wcls_lagged", "lag": "2"}, "lag must be an integer"),
    ({"lag": 2.0}, "lag must be an integer"),
    ({"lag": True}, "lag must be an integer"),
    ({"method": "wcls", "lag": 0}, "lag must be >= 1, got 0"),
    ({"method": "wcls", "lag": -2}, "lag must be >= 1, got -2"),
], ids=["ci_level_str", "ci_level_bool", "lag_str", "lag_float", "lag_bool", "lag_zero",
        "lag_negative"])
def test_config_field_types(kwargs, message):
    with pytest.raises(errors.DimensionMismatch, match=message):
        EstimatorConfig(**kwargs)


def test_config_accepts_numpy_integer_lag():
    config = EstimatorConfig(method="a2wcls_lagged", lag=np.int64(2))
    assert fit(build_panel(8, 6, lag=2, seed=3), config).config.lag == 2


def test_config_validation():
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="a2wcls_lagged", lag=1)
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="a2wcls", lag=2)
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="emee", variance_mode="stacked")
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="nope")


@pytest.mark.parametrize("rule, method", [
    *[("proximal", m) for m in PROXIMAL],
    ("orthogonal kind", "a2emee"),
    *[("auxiliary columns", f"{m}:{kind}") for m in ADJUSTED
      for kind in ("orthogonal", "global_mean")],
    ("auxiliary columns", "a2emee:orthogonal"),
    *[("no decision index", m) for m in METHODS if m not in PER_TIME]])
def test_method_rules(rule, method):
    if rule == "proximal":
        with pytest.raises(errors.DimensionMismatch, match="proximal method"):
            EstimatorConfig(method=method, lag=2)
    elif rule == "orthogonal kind":
        with pytest.raises(errors.DimensionMismatch, match="a2emee solves its own centering"):
            EstimatorConfig(method=method, centering_kind="global_mean")
    elif rule == "auxiliary columns":
        method, _, kind = method.partition(":")
        lag = 2 if method == "a2wcls_lagged" else 1
        ds = build_panel(8, 6, lag=lag, seed=3, y=np.tile([0.0, 1.0], 24),
                         schema=Schema())
        with pytest.raises(errors.DimensionMismatch,
                           match=f"{method} requires auxiliary columns"):
            fit(ds, EstimatorConfig(method=method, lag=lag, centering_kind=kind))
    else:
        lag = 2 if method == "a2wcls_lagged" else 1
        ds = build_panel(8, 6, lag=lag, seed=3)
        with pytest.raises(errors.DimensionMismatch, match="takes no decision index"):
            fit(ds, EstimatorConfig(method=method, lag=lag), t=1)


def test_dispatcher_lag_mismatch():
    ds = build_panel(5, 4)
    with pytest.raises(errors.DimensionMismatch):
        fit(ds, EstimatorConfig(method="wcls", lag=2))


def test_naive_centering_refuses_stacked():
    # the refusal comes when the config is built, before any dataset is seen
    with pytest.raises(errors.DimensionMismatch, match="orthogonality-fitted centering"):
        EstimatorConfig(method="a2wcls", variance_mode="stacked",
                        centering_kind="global_mean")


def test_stacked_equals_plain_without_moderation_signal():
    # beta1-hat near zero makes the centering correction vanish
    spec = DgmSpec(kind="nonmoderator_robust", n=2000, horizon=10,
                   beta0=-0.2, seed=6)
    ds = gen_panel(spec)
    stacked = fit(ds, EstimatorConfig(method="a2wcls", variance_mode="stacked"))
    plain = fit(ds, EstimatorConfig(method="a2wcls"))
    assert stacked.se[0] == pytest.approx(plain.se[0], rel=1e-2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method, mode", [
    ("wcls", "plain_sandwich"), ("a2wcls", "plain_sandwich"),
    ("a2wcls", "stacked"), ("a2wcls", "stacked_small_sample")])
def test_huge_outcome_is_variance_overflow(method, mode):
    # finite outcomes near 1e300: the estimates fit in float64, their variance cannot
    ds = build_panel(8, 6, seed=3, y=panel_from_arrays(8, 6, seed=3)["y"] * 1e300)
    with pytest.raises(errors.VarianceOverflow):
        fit(ds, EstimatorConfig(method=method, variance_mode=mode))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_auxiliary_is_singular_gram():
    ds = build_panel(8, 6, seed=3, z=panel_from_arrays(8, 6, seed=3)["z"] * 1e200)
    with pytest.raises(errors.SingularGram, match="non-finite"):
        fit(ds, EstimatorConfig(method="a2wcls"))


def test_fit_summaries_computed_once(monkeypatch):
    res = fit(build_panel(10, 5, seed=1), EstimatorConfig(method="wcls"))
    calls = []
    real = estimators.confidence_intervals

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimators, "confidence_intervals", counted)
    res.ci_lo, res.ci_hi, res.p_value
    res.coefficient_rows()
    res.report_text()
    assert len(calls) == 1


def test_fit_result_frozen_and_summaries_read_only():
    ds = gen_panel(DgmSpec(kind="proximal_j2", n=40, horizon=6, beta0=-0.2,
                           beta1=0.5, seed=4))
    res = fit(ds, EstimatorConfig(method="a2wcls"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.vcov = 2.0 * res.vcov
    for arr in (res.se_all, res.ci_lo_all, res.ci_hi_all, res.p_value_all):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    stacked = with_variance_mode(res, "stacked")
    expected = np.sqrt(np.diag(stacked.vcov) / ds.n_subjects)
    np.testing.assert_array_equal(stacked.se_all, expected)
    assert not np.array_equal(stacked.se_all, res.se_all)
    assert stacked.n_subjects == res.n_subjects == ds.n_subjects


@pytest.mark.parametrize("method", PER_TIME)
def test_per_time_fit_at_absent_t_is_dimension_mismatch(method):
    ds = build_panel(10, 5, seed=2)
    with pytest.raises(errors.DimensionMismatch, match="t=6 not present"):
        fit(ds, EstimatorConfig(method=method), t=6)


@pytest.mark.parametrize("method", ["wcls_per_time", "lin_per_time"])
def test_per_time_without_controls_equals_unadjusted(method):
    ds = build_panel(30, 4, seed=5, schema=Schema(aux=("z",)))
    unadjusted = fit(ds, EstimatorConfig(method="unadjusted_per_time"), t=2)
    res = fit(ds, EstimatorConfig(method=method), t=2)
    assert res.param_names == unadjusted.param_names
    np.testing.assert_array_equal(res.estimates, unadjusted.estimates)
    np.testing.assert_array_equal(res.vcov, unadjusted.vcov)


def test_per_time_fit_without_t_is_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch, match="per-time methods need a decision index t"):
        fit(build_panel(10, 5, seed=2), EstimatorConfig(method="wcls_per_time"))


def test_unknown_centering_kind_rejected():
    with pytest.raises(errors.DimensionMismatch, match="unknown centering kind 'nope'"):
        EstimatorConfig(centering_kind="nope")


def test_fit_is_a_function_of_dataset_and_config(small_panel):
    config = EstimatorConfig(method="a2wcls", variance_mode="stacked")
    res = fit(small_panel, config)
    assert res.config is config
    assert "converged" not in res.report_text()
    # t is keyword-only: a centering model passed positionally is refused
    with pytest.raises(TypeError):
        fit(small_panel, config, fit_centering(small_panel))


def test_array_holders_compare_by_identity():
    spec = DgmSpec(kind="nonmoderator_robust", n=25, horizon=6, beta0=-0.2, seed=3)
    ds = gen_panel(spec)
    config = EstimatorConfig(method="a2wcls", variance_mode="stacked")
    res, res2 = fit(ds, config), fit(ds, config)
    arms = [McArm("wcls", EstimatorConfig(method="wcls"))]
    pairs = {"MrtDataset": (ds, gen_panel(spec)),
             "CenteringModel": (fit_centering(ds), fit_centering(ds)),
             "FitResult": (res, res2),
             "SandwichParts": (res.parts, res2.parts),
             "McReport": (run_monte_carlo(spec, arms, 1), run_monte_carlo(spec, arms, 1))}
    for name, (one, two) in pairs.items():
        assert type(one).__name__ == name
        assert one == one, name
        assert one != two, name


def _two_aux_panel(lag):
    # two moderators (intercept, g1) and two auxiliaries, with non-unit weights
    rng = np.random.default_rng(23)
    n, T = 60, 9
    cols = panel_from_arrays(n, T, seed=23, p=rng.uniform(0.2, 0.8, n * T),
                             z2=rng.standard_normal(n * T), pt=np.full(n * T, 0.4))
    schema = Schema(moderators=("g1",), aux=("z", "z2"), controls=("z", "g1"), ptilde="pt")
    return from_columns(cols, schema, lag=lag)


def _column_stack_oracle(ds, cm, lagged):
    """The pooled design stacked row-major from usable-row copies."""
    ca, f = ds.usable(ds.centered_a)[:, None], ds.usable(ds.f)
    cols = []
    if lagged:
        for u in range(1, ds.lag):
            ca_u = (ds.usable(ds.a, u) - ds.usable(ds.p, u))[:, None]
            cols += [ca_u, ca_u * ds.usable(ds.z, u)]
        cols.append(f)
    else:
        cols.append(ds.usable(ds.g))
    cols.append(ca * f)
    if cm is not None:
        cols.append(ca * (ds.usable(ds.z) - f @ cm.theta))
    return np.column_stack(cols)


@pytest.mark.parametrize("mode", ["plain_sandwich", "stacked", "stacked_small_sample"])
@pytest.mark.parametrize("method, lag", [
    ("wcls", 1), ("wcls", 2), ("wcls", 3), ("a2wcls", 1),
    ("a2wcls_lagged", 2), ("a2wcls_lagged", 3)])
def test_pooled_fit_matches_column_stack_oracle(method, lag, mode):
    # the in-place column-major design and its per-subject views give the fit
    # that a row-major design stacked from usable-row copies gives
    ds = _two_aux_panel(lag)
    res = fit(ds, EstimatorConfig(method=method, lag=lag, variance_mode=mode))
    cm = fit_centering(ds) if method != "wcls" else None
    X = _column_stack_oracle(ds, cm, method == "a2wcls_lagged")
    assert X.flags.c_contiguous and X.shape[1] == len(res.param_names)
    y, w = ds.usable(ds.y), ds.usable(ds.weight_w)
    beta, gram, gram_inv = estimators.wls_solve(X, y, w, ds.n_subjects)
    shift = None
    if cm is not None:
        b1 = X.shape[1] - ds.p_z
        shift = (cm.influence @ beta[b1:]) @ gram[b1 - ds.q:b1]
    D = X.reshape(ds.n_subjects, ds.n_usable, -1)
    W = w.reshape(ds.n_subjects, ds.n_usable)
    scores = np.einsum("ntk,nt->nk", D, W * (y - X @ beta).reshape(W.shape))
    parts = SandwichParts(bread=gram, bread_inv=gram_inv, subject_scores=scores,
                          model_matrix=D, weights=W, centering_shift=shift)
    np.testing.assert_allclose(res.estimates, beta, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(res.vcov, estimators._vcov(parts, mode), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("method, lag", [("wcls", 2), ("a2wcls", 1), ("a2wcls_lagged", 3)])
def test_pooled_design_is_column_major_and_retained_as_a_view(method, lag, monkeypatch):
    # the per-subject model matrix a fit retains is a view of the design it
    # solved on, so no usable-row copy of the design comes back
    ds = _two_aux_panel(lag)
    lagged = method == "a2wcls_lagged"
    cm = fit_centering(ds) if method != "wcls" else None
    assert estimators._pooled_design(ds, cm, lagged)[0].flags.f_contiguous
    real, built = estimators._pooled_design, []

    def keep(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(estimators, "_pooled_design", keep)
    res = fit(ds, EstimatorConfig(method=method, lag=lag))
    [(X, names)] = built
    D = res.parts.model_matrix
    assert X.flags.f_contiguous
    assert D.shape == (ds.n_subjects, ds.n_usable, len(names))
    assert np.shares_memory(D, X)
    np.testing.assert_array_equal(D.reshape(-1, len(names)), X)
