import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mrtx import errors, estimators
from mrtx.data import from_columns, moderator_schema
from mrtx.estimators import (
    EstimatorConfig,
    fit,
    fit_a2wcls,
    fit_a2wcls_lagged,
    fit_unadjusted_per_time,
    fit_wcls,
    with_variance_mode,
)
from mrtx.simulation import DgmSpec, gen_panel

from conftest import build_panel, panel_from_arrays


def test_exact_linear_recovery():
    rng = np.random.default_rng(0)
    n, T = 20, 5
    a = rng.integers(0, 2, n * T).astype(float)
    c = -0.7
    y = 1.3 + c * (a - 0.5)
    ds = build_panel(n, T, a=a, p=np.full(n * T, 0.5), y=y,
                     ptilde=np.full(n * T, 0.5),
                     schema=moderator_schema(aux=("z",), ptilde="ptilde"))
    res = fit_wcls(ds)
    assert res.beta0[0] == pytest.approx(c, abs=1e-12)


def test_subject_permutation_bit_identical():
    cols = panel_from_arrays(12, 6, seed=11)
    order = np.random.default_rng(5).permutation(72)
    shuffled = {k: np.asarray(v)[order] for k, v in cols.items()}
    schema = moderator_schema(aux=("z",), controls=("g1",))
    f1 = fit_wcls(from_columns(cols, schema))
    f2 = fit_wcls(from_columns(shuffled, schema))
    assert np.array_equal(f1.estimates, f2.estimates)
    assert np.array_equal(f1.vcov, f2.vcov)


@pytest.mark.parametrize("method", ["wcls", "a2wcls", "emee", "a2emee"])
def test_shuffled_string_ids_bit_identical(method):
    ds = gen_panel(DgmSpec(kind="binary_demo", n=150, horizon=6, beta0=0.2, seed=3))
    cols = {k: ds.columns[k] for k in ("t", "a", "p", "y", "z")}
    cols["subject_id"] = np.array([f"s{i:03d}" for i in ds.subject_ids])   # sorted
    order = np.random.default_rng(9).permutation(ds.n_rows)
    shuffled = {k: v[order] for k, v in cols.items()}
    schema = moderator_schema(aux=("z",), controls=("z",))
    config = EstimatorConfig(method=method)
    f1 = fit(from_columns(cols, schema, y_is_aligned=True), config)
    f2 = fit(from_columns(shuffled, schema, y_is_aligned=True), config)
    assert np.array_equal(f1.estimates, f2.estimates)
    assert np.array_equal(f1.vcov, f2.vcov)


def test_outcome_shift_equivariance():
    cols = panel_from_arrays(15, 6, seed=2)
    schema = moderator_schema(aux=("z",), controls=("g1",))
    ds = from_columns(cols, schema)
    cols_shift = dict(cols)
    cols_shift["y"] = np.asarray(cols["y"]) + 12.5
    ds2 = from_columns(cols_shift, schema)
    for fitter in (fit_wcls, lambda d: fit_a2wcls(d)):
        r1, r2 = fitter(ds), fitter(ds2)
        np.testing.assert_allclose(r1.beta0, r2.beta0, atol=1e-10)
        np.testing.assert_allclose(r1.beta1, r2.beta1, atol=1e-10)
        # only the intercept-type nuisance component moves
        assert r2.alpha[0] - r1.alpha[0] == pytest.approx(12.5, abs=1e-9)


def test_constant_auxiliary_degenerate():
    ds = build_panel(10, 4, z=np.full(40, 1.7))
    with pytest.raises(errors.DegenerateAuxiliary):
        fit_a2wcls(ds)


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
        ds = build_panel(10, 6, lag=lag, y=y, m1=m1, z=m1, schema=moderator_schema(
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
    ds = from_columns(cols, moderator_schema(aux=("z",), controls=("g1",)))
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
    res = fit_a2wcls(ds)
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
                     schema=moderator_schema(aux=("z",), ptilde="ptilde"))
    pooled = fit_wcls(ds)
    per_time = fit_unadjusted_per_time(ds, 1)
    assert pooled.beta0[0] == pytest.approx(per_time.beta0[0], abs=1e-12)
    assert pooled.se[0] == pytest.approx(per_time.se[0], abs=1e-12)


def test_residual_orthogonality_all_linear_fits():
    spec = DgmSpec(kind="lagged_eq12", n=40, horizon=8, beta0=-0.1, beta1=0.5, seed=9)
    ds = gen_panel(spec)
    prox = gen_panel(DgmSpec(kind="proximal_j2", n=40, horizon=8,
                             beta0=-0.2, beta1=0.5, seed=9))
    fits = [
        (fit_wcls(ds, EstimatorConfig(method="wcls", lag=2)), ds),
        (fit_a2wcls_lagged(ds), ds),
        (fit_a2wcls(prox), prox),
    ]
    for res, d in fits:
        parts = res.parts
        w = parts.weights.reshape(-1)
        X = parts.model_matrix.reshape(-1, parts.dim)
        resid = d.y[d.usable_mask] - X @ res.estimates
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
    cols = {
        "subject_id": np.repeat(np.arange(n), T),
        "t": np.tile(np.arange(1, T + 1), n),
        "a": a.reshape(-1), "p": p.reshape(-1), "y": y2.reshape(-1),
        "z": z.reshape(-1), "pt": np.full(n * T, 0.5),
    }
    schema = moderator_schema(aux=("z",), ptilde="pt")
    ds = from_columns(cols, schema, lag=2, y_is_aligned=True)
    lagged = fit_a2wcls_lagged(ds)
    plain = fit_wcls(ds, EstimatorConfig(method="wcls", lag=2))
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
    cols = {k: v for k, v in ds.columns.items() if k != "y_raw"}
    ds3 = from_columns(cols, ds.schema, lag=3)
    res = fit(ds3, EstimatorConfig(method="a2wcls_lagged", lag=3, variance_mode=mode))
    assert list(res.param_names) == ref["param_names"]
    np.testing.assert_allclose(res.estimates, ref["estimates"], rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(res.vcov, ref["vcov"], rtol=1e-10, atol=1e-14)


def test_config_validation():
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="a2wcls_lagged", lag=1)
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="a2wcls", lag=2)
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="emee", variance_mode="stacked")
    with pytest.raises(errors.DimensionMismatch):
        EstimatorConfig(method="nope")


def test_dispatcher_lag_mismatch():
    ds = build_panel(5, 4)
    with pytest.raises(errors.DimensionMismatch):
        fit(ds, EstimatorConfig(method="wcls", lag=2))


def test_lag_horizon_exceeded():
    ds = build_panel(5, 1, lag=1)
    object.__setattr__(ds, "lag", 3)
    with pytest.raises(errors.LagHorizonExceeded):
        fit_a2wcls_lagged(ds)


def test_naive_centering_refuses_stacked(small_panel):
    cfg = EstimatorConfig(method="a2wcls", variance_mode="stacked",
                          centering_kind="global_mean")
    with pytest.raises(errors.DimensionMismatch):
        fit_a2wcls(small_panel, config=cfg)


def test_stacked_equals_plain_without_moderation_signal():
    # beta1-hat near zero makes the centering correction vanish
    spec = DgmSpec(kind="nonmoderator_robust", n=2000, horizon=10,
                   beta0=-0.2, seed=6)
    ds = gen_panel(spec)
    stacked = fit_a2wcls(ds, config=EstimatorConfig(method="a2wcls",
                                                    variance_mode="stacked"))
    plain = fit_a2wcls(ds, config=EstimatorConfig(method="a2wcls"))
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
        fit_a2wcls(ds)


def test_fit_summaries_computed_once(monkeypatch):
    res = fit_wcls(build_panel(10, 5, seed=1))
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
    res = fit_a2wcls(ds)
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
