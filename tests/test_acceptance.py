"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Benchmarks replicate published Monte Carlo tables at their stated sizes and
tolerances; numerical criteria assert solver-grade bounds. The known
benchmark conflict (three criterion-1 cells) is documented in the README's
"Known reproduction gap" note; nothing here is loosened to force a pass.
"""

import json
from pathlib import Path

import numpy as np

from mrtx.data import Schema
from mrtx.estimators import EstimatorConfig, closed_form_gaps, fit
from mrtx.replication import run_table
from mrtx.simulation import DgmSpec, McArm, gen_panel, run_monte_carlo, _rng_for

SEED = 20240901


def report_criterion(k, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k:>2} {name:<34} {status}  {detail}")
    return ok


def run_and_print(name, k, label, replicates=1000):
    report = run_table(name, replicates=replicates, seed=SEED)
    print(report.to_text())
    ok = report.ok
    bad = [c.cell.row + " " + c.cell.metric for c in report.cells if c.ok is False]
    report_criterion(k, label, ok, f"failing cells: {bad}" if bad else "")
    return report, ok


def test_criterion_01_lagged_table():
    report, ok = run_and_print("tab2", 1, "lagged benchmark table")
    assert ok, ("criterion 1: cells outside tolerance; three published cells "
                "are not reproduced (see the README's \"Known reproduction "
                "gap\" note)")


def test_criterion_02_proximal_table():
    _, ok = run_and_print("tabfour", 2, "proximal benchmark table")
    assert ok


def test_criterion_03_robustness():
    _, ok = run_and_print("robust", 3, "non-moderator robustness")
    assert ok


def test_criterion_04_centering_bias():
    report = run_table("centerby-mean", replicates=1000, seed=SEED)
    print(report.to_text())
    big = report.reports[2]                       # beta11 = 0.8 run
    gm = big.row("mean_centered")
    ortho = big.row("a2wcls")
    checks = {
        "global-mean est -0.227+-0.01": abs(gm["est_mean"] + 0.227) <= 0.01,
        "bias detected at 3 mc-se": abs(gm["bias"]) >= 3 * gm["mc_se"],
        "global-mean cp <= 0.90": gm["cp"] <= 0.90,
        "orthogonal centering within 0.005": abs(ortho["est_mean"] + 0.2) <= 0.005,
    }
    ok = all(checks.values())
    report_criterion(4, "global-mean centering bias", ok,
                     f"est={gm['est_mean']:.4f} cp={gm['cp']:.3f} "
                     f"ortho={ortho['est_mean']:.4f} "
                     + str([k for k, v in checks.items() if not v]))
    assert ok


def test_criterion_05_timevarying_table():
    _, ok = run_and_print("timevarying", 5, "time-varying effect table")
    assert ok


def test_criterion_06_sample_size_sweep():
    report = run_table("moreTN", replicates=1000, seed=SEED)
    print(report.to_text())
    ok = report.ok
    mres = [c.value for c in report.cells if c.cell.metric == "mre"]
    report_criterion(6, "N/T efficiency sweep", ok,
                     f"mre range [{min(mres):.3f}, {max(mres):.3f}]")
    assert ok


def test_criterion_07_lemma_oracles():
    # The asymptotic comparisons are stated for controls centered at their
    # known mean, so the verification fits exactly those designs through the
    # shared least-squares engine. (The shipped per-time fits center
    # empirically; at p = 1/2 that cancels the interaction score exactly and
    # realizes a smaller gap, see tests/test_consistency.py for their own
    # calibration.)
    from mrtx.estimators import wls_solve

    n, reps = 100_000, 200
    rows = []
    ok_all = True
    for p, beta1 in ((0.3, 1.0), (0.5, 1.0), (0.7, 1.0), (0.7, 2.0)):
        rng = np.random.default_rng(SEED + int(p * 100) + int(beta1))
        est = np.empty((reps, 3))
        ones = np.ones(n)
        for r in range(reps):
            g = rng.standard_normal(n)
            a = (rng.random(n) < p).astype(float)
            ca = a - p
            y = 0.5 + 1.0 * g + ca * (0.4 + beta1 * g) + rng.standard_normal(n)
            w = np.ones(n)
            est[r, 0] = wls_solve(np.column_stack([ones, ca]), y, w, n)[0][1]
            est[r, 1] = wls_solve(np.column_stack([ones, g, ca]), y, w, n)[0][2]
            est[r, 2] = wls_solve(np.column_stack([ones, g, ca, ca * g]),
                                  y, w, n)[0][2]
        dev = (est - est.mean(axis=0)) ** 2 * n
        gaps = closed_form_gaps(p, [1.0], [beta1], [[1.0]])
        pq2 = (p * (1 - p)) ** 2

        def check(d_r, predicted, label):
            nonlocal ok_all
            diff = d_r.mean()
            se = d_r.std(ddof=1) / np.sqrt(reps)
            good = abs(diff - predicted) <= 3 * se
            ok_all &= good
            rows.append(f"  p={p} b1={beta1} {label}: mc={diff:+.3f} "
                        f"pred={predicted:+.3f} se={se:.3f} {'ok' if good else 'BAD'}")
            return diff, se

        check(dev[:, 1] - dev[:, 0], gaps["gap_wcls_vs_u"] / pq2, "wcls-u")
        du, se_u = check(dev[:, 0] - dev[:, 2], gaps["gap_lin_vs_u"], "u-lin")
        dw, se_w = check(dev[:, 1] - dev[:, 2], gaps["gap_lin_vs_wcls"], "wcls-lin")
        # interacted estimator no worse than either alternative
        ok_all &= du >= -3 * se_u and dw >= -3 * se_w
        if p == 0.7 and beta1 == 2.0:
            # adjustment must demonstrably hurt here
            hurt = dev[:, 1] - dev[:, 0]
            ok_all &= hurt.mean() > 3 * hurt.std(ddof=1) / np.sqrt(reps)
    print("\n".join(rows))
    report_criterion(7, "closed-form gap oracles", ok_all)
    assert ok_all


def test_criterion_08_post_treatment_bias():
    spec = DgmSpec(kind="lagged_eq12", n=250, horizon=30, beta0=-0.1,
                   beta1=0.5, seed=SEED)
    rep = run_monte_carlo(
        spec,
        [McArm("wcls", EstimatorConfig(method="wcls", lag=2)),
         # the next decision's raw treatment and state entered directly as
         # controls (the adjustment the centered working models avoid)
         McArm("naive", EstimatorConfig(method="wcls", lag=2),
               schema=Schema(aux=("z",), controls=("a_next", "z_next"))),
         McArm("a2", EstimatorConfig(method="a2wcls_lagged", lag=2,
                                     variance_mode="stacked"))],
        600)
    naive, a2 = rep.row("naive"), rep.row("a2")
    biased = abs(naive["bias"]) >= 3 * naive["mc_se"]
    clean = abs(a2["est_mean"] + 0.1) <= 0.005
    ok = biased and clean
    report_criterion(8, "post-treatment adjustment bias", ok,
                     f"naive={naive['est_mean']:.4f} "
                     f"({abs(naive['bias']) / naive['mc_se']:.1f} sigma), "
                     f"adjusted={a2['est_mean']:.4f}")
    assert ok


def _criterion_09_values():
    """Criterion 9's summary numbers, and whether the last A2-EMEE fit's
    estimating-equation norm reached the solver bound."""
    reps = 30
    spec = DgmSpec(kind="binary_demo", n=100_000, horizon=10, beta0=0.2, seed=SEED)
    ests = []
    for r in range(reps):
        ds = gen_panel(spec, rng=_rng_for(spec, r))
        ests.append(fit(ds, EstimatorConfig(method="emee")).beta0[0])
    ests = np.array(ests)

    pair_spec = DgmSpec(kind="binary_demo", n=20_000, horizon=10, beta0=0.2,
                        seed=SEED + 1)
    diffs, ratios, a2_ests = [], [], []
    last = None
    for r in range(100):
        ds = gen_panel(pair_spec, rng=_rng_for(pair_spec, r))
        fe = fit(ds, EstimatorConfig(method="emee"))
        fa = fit(ds, EstimatorConfig(method="a2emee"))
        diffs.append(fa.beta0[0] - fe.beta0[0])
        ratios.append(fe.vcov_beta0[0, 0] / fa.vcov_beta0[0, 0])
        a2_ests.append(fa.beta0[0])
        last = fa
    values = {"logrr_mean": float(ests.mean()),
              "logrr_mc_se": float(ests.std(ddof=1) / np.sqrt(reps)),
              "a2_mc_se": float(np.std(a2_ests, ddof=1) / np.sqrt(len(a2_ests))),
              "pair_diff_mean": float(np.mean(diffs)),
              "mre": float(np.mean(ratios))}
    return values, last.ee_norm_trace[-1] <= 1e-8


def test_criterion_09_binary_properties():
    v, root_ok = _criterion_09_values()
    recovers = abs(v["logrr_mean"] - 0.2) <= 3 * v["logrr_mc_se"]
    # agreement at the Monte Carlo scale of the estimates themselves
    matches = abs(v["pair_diff_mean"]) <= 2 * v["a2_mc_se"]
    mre_ok = abs(v["mre"] - 1.0) <= 0.02

    # the values themselves, recorded at seed 20240901: a rewrite of the binary
    # path may not move them inside the published bands unnoticed
    ref = json.loads((Path(__file__).parent / "reference" / "criterion_09_binary.json")
                     .read_text())
    recorded = all(np.isclose(v[k], ref[k], rtol=1e-10, atol=1e-12) for k in ref)

    ok = recovers and matches and mre_ok and root_ok and recorded
    report_criterion(9, "binary estimating equations", ok,
                     f"logRR mean={v['logrr_mean']:.4f} (mc-se {v['logrr_mc_se']:.5f}), "
                     f"pair diff={v['pair_diff_mean']:+.5f}, mre={v['mre']:.3f}, "
                     f"root norm ok={root_ok}, matches record={recorded}")
    assert ok


def test_criterion_10_numerical_invariants():
    checks = {}
    spec = DgmSpec(kind="lagged_eq12", n=120, horizon=12, beta0=-0.1,
                   beta1=0.5, seed=SEED)
    ds = gen_panel(spec)
    res = fit(ds, EstimatorConfig(method="a2wcls_lagged", lag=2))
    parts = res.parts
    X = parts.model_matrix.reshape(-1, parts.dim)
    w = parts.weights.reshape(-1)
    y_vec = ds.usable(ds.y)
    r = y_vec - X @ res.estimates
    checks["residual orthogonality"] = \
        np.abs(X.T @ (w * r)).max() / ds.n_subjects <= 1e-8

    eps = 1e-6

    def score(params):
        return X.T @ (w * (y_vec - X @ params)) / ds.n_subjects

    fd = np.empty_like(res.parts.bread)
    for k in range(parts.dim):
        up, dn = res.estimates.copy(), res.estimates.copy()
        up[k] += eps
        dn[k] -= eps
        fd[:, k] = (score(dn) - score(up)) / (2 * eps)
    checks["finite-difference bread"] = \
        np.abs(fd - res.parts.bread).max() <= 1e-4 * np.abs(res.parts.bread).max()

    v = res.vcov
    checks["vcov symmetry"] = np.abs(v - v.T).max() <= 1e-12 * max(np.abs(v).max(), 1)
    checks["vcov psd"] = np.linalg.eigvalsh((v + v.T) / 2).min() >= -1e-10 * np.trace(v)

    mc_spec = DgmSpec(kind="proximal_j2", n=40, horizon=8, beta0=-0.2,
                      beta1=0.5, seed=SEED)
    arms = [McArm("wcls", EstimatorConfig(method="wcls")),
            McArm("a2", EstimatorConfig(method="a2wcls"))]
    serial = run_monte_carlo(mc_spec, arms, 16, workers=1)
    threaded = run_monte_carlo(mc_spec, arms, 16, workers=4)
    checks["threaded determinism"] = (np.array_equal(serial.est, threaded.est)
                                      and serial.rows == threaded.rows)
    rerun = run_monte_carlo(mc_spec, arms, 16, workers=1)
    checks["seeded determinism"] = np.array_equal(serial.est, rerun.est)

    ok = all(checks.values())
    report_criterion(10, "numerical invariants", ok,
                     str([k for k, good in checks.items() if not good]))
    assert ok
