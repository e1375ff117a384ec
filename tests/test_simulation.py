import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mrtx import errors, simulation
from mrtx.data import Schema
from mrtx.estimators import EstimatorConfig, fit
from mrtx.simulation import (
    KINDS,
    DgmSpec,
    McArm,
    compute_metrics,
    expit,
    gen_ar_errors,
    gen_panel,
    run_monte_carlo,
    _rng_for,
)


def test_ar_errors_match_target_correlation():
    rng = np.random.default_rng(0)
    draws = gen_ar_errors(6, rng, n=200_000)
    lag2 = np.corrcoef(draws[:, 1], draws[:, 3])[0, 1]
    assert lag2 == pytest.approx(0.5, abs=0.01)
    lag1 = np.corrcoef(draws[:, 2], draws[:, 3])[0, 1]
    assert lag1 == pytest.approx(0.5 ** 0.5, abs=0.01)
    assert draws[:, 4].var() == pytest.approx(1.0, abs=0.01)
    assert abs(draws.mean()) < 0.01


def test_ar_errors_deterministic():
    a = gen_ar_errors(10, np.random.default_rng(42), n=5)
    b = gen_ar_errors(10, np.random.default_rng(42), n=5)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n, T", [(1, 1), (4, 1), (1, 6), (3, 2), (40, 25)])
def test_ar_errors_match_textbook_recursion(n, T):
    # the in-place recursion rounds each operation as the textbook one does, so
    # the errors are bit-identical to it
    out = np.random.default_rng(7).standard_normal((n, T)).T.copy()    # time-major
    phi, innov_sd = 2.0 ** -0.5, np.sqrt(0.5)
    for t in range(1, T):
        out[t] = phi * out[t - 1] + innov_sd * out[t]
    got = gen_ar_errors(T, np.random.default_rng(7), n=n)
    assert got.shape == (n, T) and np.array_equal(got, out.T)


# sha256 over every generated column (name, then bytes) in sorted key order,
# recorded before the draws moved to time-major buffers; a reordered or
# reshaped draw changes the RNG stream and so the digest
_STREAM_DIGESTS = {
    "lagged_eq12": "813a7b0e7837385dc961432a082dee7c14135dc5376474b9c2b82a2748b88923",
    "proximal_j2": "6e7cee8c97702595b669a04fa51f2e4a9dfbffeb0cd6738cef00f97ce29842a5",
    "timevarying_j3": "b92834ff884f7b6bee821a5ba6e11aec19ad2ceae0836741697117a16a3418e9",
    "nonmoderator_robust": "8f4a09baefa1bbe920c0afff2bf409eb169431ae73e4f5e157d218b8abfbe1eb",
    "centerbias_j1": "f1b1a171589a22eaca96d60022728b48adaf1fbfaa47cd05536117073495bd9e",
    "binary_demo": "6193c89c2b9400841b8a6a02f06ea3641fb5261b02bc06284e419446dc6fede7",
}


@pytest.mark.parametrize("kind", KINDS)
def test_generator_stream_pinned(kind):
    beta0 = (-0.1, 0.02) if kind == "timevarying_j3" else -0.2
    # the digests were recorded at beta1 = 0.3 for every kind; the two kinds
    # without a moderation term never read it, and now refuse it
    beta1 = 0.0 if kind in ("nonmoderator_robust", "binary_demo") else 0.3
    ds = gen_panel(DgmSpec(kind=kind, n=7, horizon=5, beta0=beta0, beta1=beta1, seed=11))
    h = hashlib.sha256()
    # the digests were recorded when the aligned outcome was stored as "y" over
    # every row, zero past the usable ones, and the supplied one as "y_raw"
    padded = np.zeros((ds.n_subjects, ds.horizon))
    padded[:, :ds.n_usable] = ds.per_subject(ds.y)
    cols = {**ds.columns, "y": padded.reshape(-1), "y_raw": ds.y_raw}
    for name in sorted(cols):
        h.update(name.encode())
        h.update(np.ascontiguousarray(cols[name]).tobytes())
    assert h.hexdigest() == _STREAM_DIGESTS[kind]


def test_two_decision_structure_noise_off():
    # with noise off, re-derive the outcome from the emitted columns
    spec = DgmSpec(kind="lagged_eq12", n=50, horizon=6, beta0=-0.1, beta1=0.5, seed=3)
    ds = gen_panel(spec, noise_scale=0.0)
    z = ds.per_subject(ds.z[:, 0])
    a = ds.per_subject(ds.a)
    p = ds.per_subject(ds.p)
    y = ds.per_subject(ds.y)
    T = spec.horizon
    expected = (0.2 * z[:, 1:]
                + (-0.2 + 0.8 * z[:, 1:]) * (a[:, 1:] - p[:, 1:])
                + (-0.1 + 0.5 * z[:, :T - 1]) * (a[:, :T - 1] - p[:, :T - 1]))
    np.testing.assert_allclose(y[:, :T - 1], expected, atol=1e-12)


def test_randomization_rule_matches_columns():
    spec = DgmSpec(kind="lagged_eq12", n=30, horizon=5, beta0=-0.1, beta1=0.2, seed=9)
    ds = gen_panel(spec)
    a = ds.per_subject(ds.a)
    z = ds.per_subject(ds.z[:, 0])
    p = ds.per_subject(ds.p)
    prev_a = np.zeros_like(a)
    prev_a[:, 1:] = a[:, :-1]
    np.testing.assert_allclose(p, expit(-0.8 * prev_a + 0.8 * z), atol=1e-12)


def test_treatment_rate_matches_markov_oracle():
    # two-state chain fixed point for P(A=1) under the randomization rule
    def step(a1):
        p_given = lambda prev: 0.5 * (expit(-0.8 * prev + 0.8)
                                      + expit(-0.8 * prev - 0.8))
        return (1 - a1) * p_given(0.0) + a1 * p_given(1.0)

    a1 = 0.5
    for _ in range(200):
        a1 = step(a1)
    spec = DgmSpec(kind="lagged_eq12", n=40_000, horizon=30, beta0=-0.1,
                   beta1=0.2, seed=1)
    ds = gen_panel(spec)
    sel = ds.t > 5          # discard the burn-in from a0 = 0
    assert ds.p[sel].mean() == pytest.approx(a1, abs=0.01)
    assert ds.a[sel].mean() == pytest.approx(a1, abs=0.01)


def test_gen_panel_deterministic_per_spec():
    spec = DgmSpec(kind="proximal_j2", n=20, horizon=8, beta0=-0.2, beta1=0.5, seed=11)
    d1, d2 = gen_panel(spec), gen_panel(spec)
    np.testing.assert_array_equal(d1.y, d2.y)
    np.testing.assert_array_equal(d1.a, d2.a)


def test_spec_validation():
    with pytest.raises(errors.ConfigParse):
        DgmSpec(kind="unknown", n=5, horizon=5)
    with pytest.raises(errors.ConfigParse):
        DgmSpec(kind="lagged_eq12", n=-1, horizon=5)


@pytest.mark.parametrize("field, value", [
    ("n", 2.5), ("n", True), ("n", "5"), ("horizon", 0), ("horizon", 4.0),
    ("horizon", False), ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", None),
])
def test_spec_size_and_seed_must_be_integral(field, value):
    # each refused value names its field, as a typed error rather than a bare
    # TypeError or a numpy seed error
    kwargs = {"kind": "lagged_eq12", "n": 5, "horizon": 5, "seed": 0, field: value}
    with pytest.raises(errors.ConfigParse, match=f"integral, got {field}={value!r}"):
        DgmSpec(**kwargs)


@pytest.mark.parametrize("kind, field, value", [
    ("nonmoderator_robust", "beta1", 0.9), ("binary_demo", "beta1", -0.3),
    ("centerbias_j1", "eta", (3.0, -3.0)),
])
def test_spec_refuses_a_setting_its_kind_never_reads(kind, field, value):
    # these draws would not change, so the setting is refused rather than ignored
    with pytest.raises(errors.ConfigParse, match=re.escape(f"{kind} ") + ".*"
                       + re.escape(f"{field}, got {field}={value!r}")):
        DgmSpec(kind=kind, n=5, horizon=5, **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("beta1", "0.5", "beta1 must be a real number, got beta1='0.5'"),
    ("beta1", None, "beta1 must be a real number, got beta1=None"),
    ("beta1", True, "beta1 must be a real number, got beta1=True"),
    ("eta", ("a", "b"), "eta must be a pair of real numbers, got eta=('a', 'b')"),
    ("eta", (False, 0.8), "eta must be a pair of real numbers, got eta=(False, 0.8)"),
    ("beta0", True, "beta0 for timevarying_j3 must be a scalar or a pair, got True"),
    ("beta0", ("a", 0.1), "beta0 for timevarying_j3 must be a scalar or a pair, got ('a', 0.1)"),
])
def test_spec_parameters_must_be_real(field, value, message):
    # a string, None or bool would reach the draws, or fail there untyped
    with pytest.raises(errors.ConfigParse, match=re.escape(message)):
        DgmSpec(kind="timevarying_j3", n=5, horizon=5, **{field: value})


@pytest.mark.parametrize("kind, field, value", [
    ("timevarying_j3", "beta0", float("nan")),
    ("timevarying_j3", "beta0", (0.1, float("inf"))),
    ("timevarying_j3", "beta1", float("nan")),
    ("binary_demo", "eta", (float("inf"), 0.8)),
], ids=["beta0", "beta0_pair", "beta1", "eta"])
def test_spec_effect_settings_must_be_finite(kind, field, value):
    # refused at the spec, not later as a bad value in the generated panel
    with pytest.raises(errors.ConfigParse, match=re.escape(f"{field} must be finite, got "
                                                           f"{field}={value!r}")):
        DgmSpec(kind=kind, n=5, horizon=5, **{field: value})


@pytest.mark.parametrize("kind", KINDS)
def test_spec_lag_is_the_generated_panel_lag(kind):
    spec = DgmSpec(kind=kind, n=4, horizon=4)
    assert spec.lag == gen_panel(spec).lag == (2 if kind == "lagged_eq12" else 1)


@pytest.mark.parametrize("kind", KINDS)
def test_spec_columns_are_the_generated_columns(kind):
    spec = DgmSpec(kind=kind, n=4, horizon=4)
    assert spec.columns == tuple(gen_panel(spec).columns)


def test_spec_accepts_numpy_integers():
    spec = DgmSpec(kind="lagged_eq12", n=np.int64(5), horizon=np.int32(4), seed=np.uint8(0))
    assert gen_panel(spec).n_subjects == 5


def test_empty_spec_rejected():
    # an empty panel has no data rows, so it is refused at the spec
    with pytest.raises(errors.ConfigParse, match="n and horizon must be >= 1"):
        DgmSpec(kind="lagged_eq12", n=0, horizon=5, beta0=-0.1, beta1=0.2)


def test_replicate_prefix_property():
    spec = DgmSpec(kind="nonmoderator_robust", n=30, horizon=6, beta0=-0.2, seed=21)
    arms = [McArm("wcls", EstimatorConfig(method="wcls"))]
    short = run_monte_carlo(spec, arms, 4)
    long = run_monte_carlo(spec, arms, 8)
    np.testing.assert_array_equal(short.est, long.est[:4])
    np.testing.assert_array_equal(short.se, long.se[:4])


def test_replicate_working_set_budget():
    # one lagged_large replicate (lagged_eq12 N=500, T=100 with both lagged arms)
    # keeps only the arrays it returns or caches: the generator, the data layer and
    # the pooled fits make no full-size temporary copies. Its tracemalloc peak read
    # 9.84 MB while they did, and 6.71 MB since
    spec = DgmSpec(kind="lagged_eq12", n=500, horizon=100, beta0=-0.1, beta1=0.5, seed=3)
    arms = [McArm("wcls", EstimatorConfig(method="wcls", lag=2)),
            McArm("a2wcls_lagged", EstimatorConfig(method="a2wcls_lagged", lag=2,
                                                   variance_mode="stacked"))]
    truth = np.array([-0.1])
    simulation._fit_one(spec, 1, arms, truth)      # first-call allocations are not its own
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        simulation._fit_one(spec, 1, arms, truth)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 7.0e6, f"replicate peak {peak / 1e6:.2f} MB"


def test_workers_do_not_change_results():
    spec = DgmSpec(kind="proximal_j2", n=30, horizon=8, beta0=-0.2, beta1=0.5, seed=2)
    arms = [McArm("wcls", EstimatorConfig(method="wcls")),
            McArm("a2wcls", EstimatorConfig(method="a2wcls"))]
    serial = run_monte_carlo(spec, arms, 12, workers=1)
    threaded = run_monte_carlo(spec, arms, 12, workers=4)
    np.testing.assert_array_equal(serial.est, threaded.est)
    np.testing.assert_array_equal(serial.varhat, threaded.varhat)
    assert serial.rows == threaded.rows


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_rejected(workers):
    spec = DgmSpec(kind="nonmoderator_robust", n=20, horizon=5, beta0=-0.2, seed=1)
    with pytest.raises(errors.ConfigParse, match="workers must be >= 1"):
        run_monte_carlo(spec, [McArm("wcls", EstimatorConfig(method="wcls"))], 2,
                        workers=workers)


def test_zero_replicates_rejected():
    spec = DgmSpec(kind="nonmoderator_robust", n=20, horizon=5, beta0=-0.2, seed=1)
    with pytest.raises(errors.ConfigParse, match="replicates must be >= 1"):
        run_monte_carlo(spec, [McArm("wcls", EstimatorConfig(method="wcls"))], 0)


@pytest.mark.parametrize("name, value", [
    ("replicates", 2.5), ("replicates", "3"), ("replicates", True),
    ("workers", 1.5), ("workers", "2"), ("workers", True),
])
def test_replicates_and_workers_must_be_integral(name, value):
    spec = DgmSpec(kind="nonmoderator_robust", n=20, horizon=5, beta0=-0.2, seed=1)
    kwargs = {"replicates": 2, "workers": 1, name: value}
    with pytest.raises(errors.ConfigParse,
                       match=re.escape(f"{name} must be >= 1 and integral, got {name}={value!r}")):
        run_monte_carlo(spec, [McArm("wcls", EstimatorConfig(method="wcls"))], **kwargs)


@pytest.mark.parametrize("kind, arms, message", [
    ("proximal_j2", [McArm("wcls", EstimatorConfig(method="wcls")),
                     McArm("pt", EstimatorConfig(method="wcls_per_time"))],
     "arm 'pt': a per-time method needs a decision index"),
    ("lagged_eq12", [McArm("wcls", EstimatorConfig(method="wcls"))],
     "arm 'wcls': lag 1 is not the lagged_eq12 design's lag 2"),
    ("proximal_j2", [McArm("wcls", EstimatorConfig(method="wcls", lag=2))],
     "arm 'wcls': lag 2 is not the proximal_j2 design's lag 1"),
    ("proximal_j2", [McArm("w", EstimatorConfig(method="wcls")),
                     McArm("w", EstimatorConfig(method="a2wcls"))],
     "arm 'w': the label is used twice"),
    ("proximal_j2", [], "a Monte Carlo run needs at least one arm"),
    ("proximal_j2", [McArm("wcls", EstimatorConfig(method="wcls")),
                     McArm("x", EstimatorConfig(method="wcls"), schema=Schema(aux=("nope",)))],
     "arm 'x': column 'nope' is not generated by the proximal_j2 design"),
    ("nonmoderator_robust", [McArm("w", EstimatorConfig(method="wcls"),
                                   schema=Schema(aux=("z",), ptilde="ptilde"))],
     "arm 'w': column 'ptilde' is not generated by the nonmoderator_robust design"),
], ids=["per_time", "lagged_design_lag1_arm", "proximal_design_lag2_arm",
        "repeated_label", "no_arms", "schema_aux_not_generated",
        "schema_ptilde_not_generated"])
def test_run_refused_before_any_replicate(monkeypatch, kind, arms, message):
    import mrtx.simulation as sim

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(sim, "_fit_one", no_replicates)
    spec = DgmSpec(kind=kind, n=20, horizon=5, seed=1)
    with pytest.raises(errors.ConfigParse, match=re.escape(message)):
        run_monte_carlo(spec, arms, 3)


def test_schema_arm_fits_the_reviewed_panel():
    spec = DgmSpec(kind="lagged_eq12", n=40, horizon=8, beta0=-0.1, beta1=0.5, seed=6)
    schema = Schema(aux=("z",), controls=("a_next", "z_next"))
    config = EstimatorConfig(method="wcls", lag=2)
    rep = run_monte_carlo(spec, [McArm("wcls", config),
                                 McArm("naive", config, schema=schema)], 3)
    assert rep.ok.all()
    for r in range(3):
        base = gen_panel(spec, rng=_rng_for(spec, r))
        direct = fit(base.with_schema(schema), config)
        np.testing.assert_array_equal(rep.est[r, 1], direct.beta0)
        np.testing.assert_array_equal(rep.se[r, 1], direct.se)
        np.testing.assert_array_equal(rep.varhat[r, 1], np.diag(direct.vcov_beta0))
        np.testing.assert_array_equal(rep.est[r, 0], fit(base, config).beta0)
        assert not np.array_equal(rep.est[r, 0], rep.est[r, 1])


def test_single_replicate_aggregation():
    spec = DgmSpec(kind="nonmoderator_robust", n=25, horizon=6, beta0=-0.2, seed=3)
    rep = run_monte_carlo(spec, [McArm("wcls", EstimatorConfig(method="wcls"))], 1)
    row = rep.row("wcls")
    assert row["cp"] in (0.0, 1.0)
    assert np.isfinite(row["mre"])
    assert row["rsd"] == 1.0


def test_metrics_self_comparison():
    est = np.array([0.1, 0.2, 0.3])
    se = np.array([0.05, 0.05, 0.05])
    var = np.array([1.0, 1.1, 0.9])
    cover = np.array([True, True, False])
    row = compute_metrics(est, se, var, cover, est, var, truth=0.2)
    assert row["re_gain_pct"] == 0.0
    assert row["mre"] == pytest.approx(1.0)
    assert row["rsd"] == pytest.approx(1.0)
    assert row["cp"] == pytest.approx(2 / 3)


def test_metrics_hand_spreadsheet():
    est_m = np.array([0.10, 0.30, 0.20])
    est_b = np.array([0.05, 0.40, 0.15])
    var_m = np.array([1.0, 2.0, 4.0])
    var_b = np.array([2.0, 1.0, 8.0])
    se_m = np.array([0.1, 0.2, 0.3])
    cover = np.array([True, False, True])
    row = compute_metrics(est_m, se_m, var_m, cover, est_b, var_b, truth=0.2)
    assert row["est_mean"] == pytest.approx(0.2)
    assert row["se_mean"] == pytest.approx(0.2)
    assert row["cp"] == pytest.approx(2 / 3)
    assert row["re_gain_pct"] == pytest.approx(2 / 3)    # strict: 2>1, 1<2, 8>4
    assert row["mre"] == pytest.approx((2 / 1 + 1 / 2 + 8 / 4) / 3)
    assert row["rsd"] == pytest.approx(np.std(est_b, ddof=1) / np.std(est_m, ddof=1))


def test_metrics_zero_variance():
    with pytest.raises(errors.ZeroVariance):
        compute_metrics([0.1, 0.2], [0.1, 0.1], [0.0, 1.0], [1, 1],
                        [0.1, 0.2], [1.0, 1.0], truth=0.1)


@pytest.mark.parametrize("est_m, est_b, message", [
    ([0.1, 0.2], [0.1], "replicate counts differ"),
    ([0.1, 0.1], [0.1, 0.2], "degenerate Monte Carlo spread"),
], ids=["unequal_lengths", "constant_method"])
def test_metrics_degenerate_rows(est_m, est_b, message):
    n_m, n_b = len(est_m), len(est_b)
    with pytest.raises(errors.ZeroVariance, match=message):
        compute_metrics(est_m, [0.1] * n_m, [1.0] * n_m, [1] * n_m, est_b, [1.0] * n_b,
                        truth=0.1)


def test_arm_failing_every_replicate_is_zero_variance():
    spec = DgmSpec(kind="nonmoderator_robust", n=25, horizon=6, beta0=-0.2, seed=3)
    # the re-viewed panel has no auxiliary columns, so every a2wcls fit raises
    arms = [McArm("wcls", EstimatorConfig(method="wcls")),
            McArm("a2", EstimatorConfig(method="a2wcls"), schema=Schema())]
    with pytest.raises(errors.ZeroVariance, match="no successful replicates for a2"):
        run_monte_carlo(spec, arms, 2)


def test_true_beta0_shapes():
    # the run's truth is the design's beta0, one entry per moderator feature
    rep = run_monte_carlo(DgmSpec(kind="lagged_eq12", n=20, horizon=4, beta0=-0.1),
                          [McArm("wcls", EstimatorConfig(method="wcls", lag=2))], 1)
    assert rep.truth.tolist() == [-0.1]
    rep = run_monte_carlo(DgmSpec(kind="timevarying_j3", n=20, horizon=4,
                                  beta0=(-0.2, 0.02)),
                          [McArm("wcls", EstimatorConfig(method="wcls"))], 1)
    np.testing.assert_array_equal(rep.truth, [-0.2, 0.02])
    assert rep.coef_names == ("beta0[0]", "beta0[1]")


def test_report_text_and_csv_rows():
    spec = DgmSpec(kind="nonmoderator_robust", n=30, horizon=6, beta0=-0.2, seed=4)
    rep = run_monte_carlo(spec, [McArm("wcls", EstimatorConfig(method="wcls")),
                                 McArm("a2wcls", EstimatorConfig(method="a2wcls"))], 5)
    text = rep.to_text()
    assert "wcls" in text and "mRE" in text
    rows = rep.replicate_csv_rows()
    assert len(rows) == 5 * 2
    assert {"replicate", "method", "est", "se", "varhat", "covered", "ok", "coef"} \
        <= set(rows[0].keys())


def test_fit_failures_counted_not_dropped():
    # a degenerate auxiliary in one replicate fails only the adjusted arm;
    # the failure is counted and that replicate is excluded pairwise
    spec = DgmSpec(kind="nonmoderator_robust", n=20, horizon=5, beta0=-0.2, seed=6)
    arms = [McArm("wcls", EstimatorConfig(method="wcls")),
            McArm("a2wcls", EstimatorConfig(method="a2wcls"))]

    import mrtx.simulation as sim
    from mrtx.data import from_columns
    original = sim._BUILDERS["nonmoderator_robust"]
    calls = {"n": 0}

    def sometimes_degenerate(spec, rng, noise_scale):
        ds = original(spec, rng, noise_scale)
        calls["n"] += 1
        if calls["n"] == 1:
            cols = dict(ds.columns)
            cols["z"] = np.zeros(ds.n_rows)
            return from_columns(cols, Schema(aux=("z",)), lag=1)
        return ds

    sim._BUILDERS["nonmoderator_robust"] = sometimes_degenerate
    try:
        rep = run_monte_carlo(spec, arms, 4)
    finally:
        sim._BUILDERS["nonmoderator_robust"] = original
    row = rep.row("a2wcls")
    assert row["n_failed"] == 1
    assert row["n_used"] == 3
    assert rep.row("wcls")["n_failed"] == 0


def test_report_row_for_unknown_label_is_key_error():
    spec = DgmSpec(kind="nonmoderator_robust", n=25, horizon=6, beta0=-0.2, seed=3)
    rep = run_monte_carlo(spec, [McArm("wcls", EstimatorConfig(method="wcls"))], 1)
    with pytest.raises(KeyError, match="no row for 'a2wcls'/None"):
        rep.row("a2wcls")
