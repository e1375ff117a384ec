"""Consistency and coverage property suites for every estimator.

Each estimator runs on a reference design where its variance mode is valid;
point estimates must center on the target within Monte Carlo error, and the
95% intervals must cover at close-to-nominal rates.
"""

import numpy as np
import pytest

from mrtx.estimators import PER_TIME, EstimatorConfig, fit, with_variance_mode
from mrtx.simulation import DgmSpec, McArm, gen_panel, run_monte_carlo, _rng_for

from conftest import build_panel


REFERENCE = {
    "wcls": (DgmSpec(kind="lagged_eq12", n=1000, horizon=10, beta0=-0.1,
                     beta1=0.5, seed=101),
             EstimatorConfig(method="wcls", lag=2), -0.1),
    "a2wcls_lagged": (DgmSpec(kind="lagged_eq12", n=1000, horizon=10, beta0=-0.1,
                              beta1=0.5, seed=102),
                      EstimatorConfig(method="a2wcls_lagged", lag=2,
                                      variance_mode="stacked"), -0.1),
    "a2wcls": (DgmSpec(kind="proximal_j2", n=1000, horizon=10, beta0=-0.2,
                       beta1=0.5, seed=103),
               EstimatorConfig(method="a2wcls"), -0.2),
    "emee": (DgmSpec(kind="binary_demo", n=1000, horizon=10, beta0=0.2, seed=104),
             EstimatorConfig(method="emee"), 0.2),
    "a2emee": (DgmSpec(kind="binary_demo", n=1000, horizon=10, beta0=0.2, seed=105),
               EstimatorConfig(method="a2emee"), 0.2),
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_estimator_consistency(name):
    spec, config, truth = REFERENCE[name]
    reps = 500
    rep = run_monte_carlo(spec, [McArm(name, config)], reps)
    row = rep.row(name)
    mc_se = row["mc_sd"] / np.sqrt(reps)
    assert abs(row["est_mean"] - truth) <= 3 * mc_se, \
        f"{name}: mean {row['est_mean']:.4f} vs truth {truth} (mc-se {mc_se:.5f})"


def per_time_panel(rng, n=1000, p=0.5):
    g = rng.standard_normal(n)
    a = (rng.random(n) < p).astype(float)
    y = 0.5 + 0.8 * g + (a - p) * (0.4 + 0.6 * (g - g.mean())) + rng.standard_normal(n)
    return build_panel(n, 1, a=a, p=np.full(n, p), y=y, g1=g)


@pytest.mark.parametrize("method", PER_TIME)
def test_per_time_consistency(method):
    reps = 500
    rng = np.random.default_rng(55)
    config = EstimatorConfig(method=method)
    ests = np.array([fit(per_time_panel(rng), config, t=1).beta0[0] for _ in range(reps)])
    mc_se = ests.std(ddof=1) / np.sqrt(reps)
    assert abs(ests.mean() - 0.4) <= 3 * mc_se


def _coverage(spec, config, truth, modes, reps=1000):
    hits = {m: 0 for m in modes}
    for r in range(reps):
        ds = gen_panel(spec, rng=_rng_for(spec, r))
        res = fit(ds, config)
        for mode in modes:
            out = res if mode == config.variance_mode else with_variance_mode(res, mode)
            ok = np.all((out.ci_lo <= truth) & (truth <= out.ci_hi))
            hits[mode] += bool(ok)
    return {m: hits[m] / reps for m in modes}


def test_coverage_matrix_continuous():
    reps = 1000
    lagged = DgmSpec(kind="lagged_eq12", n=250, horizon=30, beta0=-0.1,
                     beta1=0.2, seed=301)
    cp = _coverage(lagged, EstimatorConfig(method="wcls", lag=2), -0.1,
                   ("plain_sandwich", "stacked_small_sample"), reps)
    cp_lag = _coverage(lagged, EstimatorConfig(method="a2wcls_lagged", lag=2,
                                               variance_mode="stacked"), -0.1,
                       ("stacked", "stacked_small_sample"), reps)
    prox = DgmSpec(kind="proximal_j2", n=250, horizon=30, beta0=-0.2,
                   beta1=0.5, seed=302)
    cp_a2 = _coverage(prox, EstimatorConfig(method="a2wcls",
                                            variance_mode="stacked"), -0.2,
                      ("stacked", "stacked_small_sample"), reps)
    robust = DgmSpec(kind="nonmoderator_robust", n=250, horizon=30,
                     beta0=-0.2, seed=303)
    cp_plain = _coverage(robust, EstimatorConfig(method="a2wcls"), -0.2,
                         ("plain_sandwich",), reps)
    for label, table in (("wcls", cp), ("a2wcls_lagged", cp_lag),
                         ("a2wcls", cp_a2), ("a2wcls-plain", cp_plain)):
        for mode, value in table.items():
            print(f"coverage {label}/{mode}: {value:.3f}")
            assert 0.93 <= value <= 0.96, f"{label}/{mode} CP {value:.3f}"


def test_coverage_binary():
    reps = 1000
    spec = DgmSpec(kind="binary_demo", n=250, horizon=10, beta0=0.2, seed=304)
    hits_e = hits_a = 0
    for r in range(reps):
        ds = gen_panel(spec, rng=_rng_for(spec, r))
        fe = fit(ds, EstimatorConfig(method="emee"))
        fa = fit(ds, EstimatorConfig(method="a2emee"))
        hits_e += bool(fe.ci_lo[0] <= 0.2 <= fe.ci_hi[0])
        hits_a += bool(fa.ci_lo[0] <= 0.2 <= fa.ci_hi[0])
    for label, hits in (("emee", hits_e), ("a2emee", hits_a)):
        cp = hits / reps
        print(f"coverage {label}/plain: {cp:.3f}")
        assert 0.93 <= cp <= 0.96, f"{label} CP {cp:.3f}"
