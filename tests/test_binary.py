import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrtx import errors, estimators
from mrtx.data import Schema, from_columns
from mrtx.estimators import EstimatorConfig, fit
from mrtx.simulation import DgmSpec, gen_panel

from conftest import build_panel


def binary_panel(n, T, rr=0.2, seed=0, half_prob=True):
    """Bernoulli outcomes with constant conditional risk ratio exp(rr)."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, (n, T)) * 2.0 - 1.0
    a = rng.integers(0, 2, (n, T)).astype(float)
    prob = 0.3 * np.exp(rr * a)
    y = (rng.random((n, T)) < prob).astype(float)
    cols = {
        "subject_id": np.repeat(np.arange(n), T),
        "t": np.tile(np.arange(1, T + 1), n),
        "a": a.reshape(-1), "p": np.full(n * T, 0.5), "y": y.reshape(-1),
        "z": z.reshape(-1),
    }
    if half_prob:
        cols["pt"] = np.full(n * T, 0.5)
        schema = Schema(aux=("z",), ptilde="pt")
    else:
        schema = Schema(aux=("z",))
    return from_columns(cols, schema, lag=1)


def bisection_oracle(ds, lo=-2.0, hi=2.0, tol=1e-12):
    """Independent 1-D root finder on the pooled estimating equation.

    For intercept-only nuisance, alpha is profiled in closed form at each
    candidate beta0, leaving one equation in one unknown.
    """
    w, ca, a, y = ds.weight_w, ds.centered_a, ds.a, ds.y

    def equation(b0):
        blip = np.exp(-a * b0)
        ealpha = np.sum(w * blip * y) / np.sum(w * blip * np.exp(a * b0))
        resid = w * blip * (y - ealpha * np.exp(a * b0))
        return np.sum(resid * ca)

    flo, fhi = equation(lo), equation(hi)
    assert flo * fhi < 0
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = equation(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return (lo + hi) / 2


def test_emee_matches_bisection_oracle_and_truth():
    ds = binary_panel(100_000, 10, rr=0.2, seed=1)
    res = fit(ds, EstimatorConfig(method="emee"))
    oracle = bisection_oracle(ds)
    assert res.beta0[0] == pytest.approx(oracle, abs=1e-8)
    assert abs(res.beta0[0] - 0.2) <= 3 * res.se[0]


def test_emee_null_effect():
    ds = binary_panel(50_000, 10, rr=0.0, seed=2)
    res = fit(ds, EstimatorConfig(method="emee"))
    assert abs(res.beta0[0]) <= 3 * res.se[0]


def test_emee_root_residual():
    ds = binary_panel(2_000, 8, rr=0.2, seed=3)
    res = fit(ds, EstimatorConfig(method="emee"))
    from mrtx.estimators import _emee_system
    evaluate, _ = _emee_system(ds, ds.f)
    _, u, _ = evaluate(res.estimates)
    assert np.abs(u).max() <= 1e-8


def test_cross_sectional_log_ratio_oracle():
    # one decision point, p = ptilde = 0.5: the estimating equations separate
    # into the two arm means exactly
    ds = binary_panel(50_000, 1, rr=0.2, seed=4)
    y, a = ds.y, ds.a
    log_ratio = np.log(y[a == 1].mean() / y[a == 0].mean())
    res = fit(ds, EstimatorConfig(method="emee"))
    assert res.beta0[0] == pytest.approx(log_ratio, abs=1e-10)
    # with a pure-noise auxiliary the adjusted fit agrees asymptotically
    adj = fit(ds, EstimatorConfig(method="a2emee"))
    assert adj.beta0[0] == pytest.approx(log_ratio, abs=0.5 * res.se[0])


def test_a2emee_matches_emee_under_null_moderation():
    spec = DgmSpec(kind="binary_demo", n=20_000, horizon=10, beta0=0.2, seed=5)
    ds = gen_panel(spec)
    base = fit(ds, EstimatorConfig(method="emee"))
    adj = fit(ds, EstimatorConfig(method="a2emee"))
    assert abs(adj.beta1[0]) <= 4 * adj.se_all[-1]
    assert adj.beta0[0] == pytest.approx(base.beta0[0], abs=2 * base.se[0])


def test_a2emee_trace_decreases():
    spec = DgmSpec(kind="binary_demo", n=3_000, horizon=10, beta0=0.2, seed=6)
    ds = gen_panel(spec)
    adj = fit(ds, EstimatorConfig(method="a2emee"))
    trace = adj.ee_norm_trace
    # recorded for inspection: the alternating loop settles after a few passes
    assert len(trace) >= 1
    assert trace[-1] <= 1e-8


def test_binary_outcome_validation():
    ds = build_panel(10, 4, y=np.random.default_rng(0).standard_normal(40))
    with pytest.raises(errors.DimensionMismatch):
        fit(ds, EstimatorConfig(method="emee"))


def test_newton_nonconvergence_reported(monkeypatch):
    ds = binary_panel(500, 6, rr=0.2, seed=7)
    monkeypatch.setattr(estimators, "_MAX_ITER", 1)
    with pytest.raises(errors.NonConvergence):
        fit(ds, EstimatorConfig(method="emee"))


def test_a2emee_requires_auxiliary():
    rng = np.random.default_rng(8)
    y = (rng.random(60) < 0.3).astype(float)
    cols = {
        "subject_id": np.repeat(np.arange(10), 6),
        "t": np.tile(np.arange(1, 7), 10),
        "a": rng.integers(0, 2, 60).astype(float),
        "p": np.full(60, 0.5), "y": y,
    }
    ds = from_columns(cols, Schema(), lag=1)
    with pytest.raises(errors.DimensionMismatch):
        fit(ds, EstimatorConfig(method="a2emee"))


def test_a2emee_refuses_outside_centering():
    ds = binary_panel(200, 6, rr=0.2, seed=11)
    for kind in ("global_mean", "time_specific_mean"):
        with pytest.raises(errors.DimensionMismatch, match="a2emee solves its own centering"):
            fit(ds, EstimatorConfig(method="a2emee", centering_kind=kind))
    assert fit(ds, EstimatorConfig(method="a2emee")).n_iter >= 2


@pytest.mark.parametrize("value, word", [(0.0, "zero"), (1.0, "one")])
@pytest.mark.parametrize("method", ["emee", "a2emee"])
def test_constant_binary_outcome_rejected(method, value, word):
    ds = build_panel(10, 4, y=np.full(40, value))
    with pytest.raises(errors.DimensionMismatch, match=f"identically {word}"):
        fit(ds, EstimatorConfig(method=method))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["emee", "a2emee"])
def test_huge_control_is_typed_error(method):
    # the aux column z is also a control, so it enters every EMEE design
    ds = binary_panel(200, 6, seed=3)
    cols = {k: np.asarray(v) for k, v in ds.columns.items()}
    cols["z"] = cols["z"] * 1e200
    ds = from_columns(cols, Schema(aux=("z",), controls=("z",)), lag=1)
    with pytest.raises(errors.SingularJacobian, match="non-finite"):
        fit(ds, EstimatorConfig(method=method))


_POOL_PROBE = """
import os, threading, time
from mrtx.estimators import EstimatorConfig, fit
from mrtx.simulation import DgmSpec, gen_panel

def other_threads_cpu_s():
    main, ticks = threading.get_native_id(), 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == main:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])     # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")

ds = gen_panel(DgmSpec(kind="binary_demo", n=2000, horizon=10, beta0=0.2, seed=1))
print(len(os.listdir("/proc/self/task")))
time.sleep(0.5)         # let the BLAS threads' start-up spin end
before = other_threads_cpu_s()
fit(ds, EstimatorConfig(method="emee"))
fit(ds, EstimatorConfig(method="a2emee"))
time.sleep(0.3)         # a woken thread spins on after the call returns
print(other_threads_cpu_s() - before)
"""


def test_binary_fits_leave_blas_threads_idle():
    """At 20 000 rows a one-column ``F' Z`` through ``@`` is a threaded BLAS
    ``ddot`` whose woken thread then spins idle; the binary fits form such
    products by einsum or broadcasting, so the other threads stay idle."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    env = {**os.environ, "PYTHONPATH": str(Path(estimators.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _POOL_PROBE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    n_threads, other_cpu_s = proc.stdout.split()
    if int(n_threads) == 1:
        pytest.skip("BLAS runs single-threaded here")
    assert float(other_cpu_s) < 0.020


# (method, n, horizon, seed) of the binary_demo panels whose EMEE and A2-EMEE
# fits were recorded before the evaluator and Newton loop were rewritten
RECORDED_BINARY = [(m, n, T, seed) for m in ("emee", "a2emee")
                   for n, T, seed in [(500, 8, 0), (500, 8, 1), (500, 8, 2), (500, 8, 3),
                                      (2000, 10, 20240901)]]


@pytest.mark.parametrize("method, n, horizon, seed", RECORDED_BINARY)
def test_binary_fit_matches_recorded(method, n, horizon, seed):
    ref = json.loads((Path(__file__).parent / "reference" / "binary_emee_a2emee.json")
                     .read_text())[f"{method}:n{n}:T{horizon}:seed{seed}"]
    ds = gen_panel(DgmSpec(kind="binary_demo", n=n, horizon=horizon, beta0=0.2, seed=seed))
    res = fit(ds, EstimatorConfig(method=method))
    np.testing.assert_allclose(res.estimates, ref["estimates"], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.vcov, ref["vcov"], rtol=1e-10, atol=1e-12)
    assert res.n_iter == ref["n_iter"]
    assert len(res.ee_norm_trace) == ref["trace_len"]


def _count_evaluations(monkeypatch):
    """Log every EMEE evaluation as ``(solve, params, norm)`` and every Newton
    solve's iteration count; ``solve`` is None outside any Newton solve."""
    calls, solves, current = [], [], [None]
    system, newton = estimators._emee_system, estimators._newton

    def counted_system(*args, **kwargs):
        evaluate, X = system(*args, **kwargs)

        def counted(params, *rest):
            out = evaluate(params, *rest)
            calls.append((current[0], params.copy(), float(np.abs(out[1]).max())))
            return out

        return counted, X

    def counted_newton(*args, **kwargs):
        current[0] = len(solves)
        solves.append(None)
        try:
            out = newton(*args, **kwargs)
        finally:
            current[0] = None
        solves[-1] = out[1]
        return out

    monkeypatch.setattr(estimators, "_emee_system", counted_system)
    monkeypatch.setattr(estimators, "_newton", counted_newton)
    return calls, solves


@pytest.mark.parametrize("method", ["emee", "a2emee"])
def test_one_evaluation_per_newton_iterate(method, monkeypatch):
    calls, solves = _count_evaluations(monkeypatch)
    ds = gen_panel(DgmSpec(kind="binary_demo", n=2000, horizon=10, beta0=0.2, seed=1))
    res = fit(ds, EstimatorConfig(method=method))
    # the sandwich is read off the last accepted iterate: no evaluation outside a solve
    assert [c for c in calls if c[0] is None] == []
    assert len(solves) == (1 if method == "emee" else 1 + res.n_iter)
    for s, n_iter in enumerate(solves):
        mine = [c for c in calls if c[0] == s]
        # each candidate is evaluated once: accepted if it lowers the norm,
        # else a step halving
        best, halvings = mine[0][2], 0
        for _, _, norm in mine[1:]:
            if norm < best:
                best = norm
            else:
                halvings += 1
        assert len(mine) == 1 + n_iter + halvings
        for i in range(len(mine)):
            for j in range(i):
                assert not np.array_equal(mine[i][1], mine[j][1])
    if method == "emee":
        assert len(calls) == res.n_iter + 1
