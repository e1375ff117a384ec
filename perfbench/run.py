"""mrtx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tab2_small --seed 1 --seconds 15 --trace 0

Every timed call runs in a fresh Python process that imports this
checkout's ``src/mrtx``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A fuller result file, with the environment block, sample
counts, quartiles and every failure, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CACHE = HERE / "cache"
SETUP_SAMPLES = 5          # set-up is measured this many times per run
DEADLINE_S = 170.0         # a run must end within 180 s

NOTES = {
    "tab2_small": "BLAS threads are left at the library default. A probe found "
                  "default BLAS threading slows this workload (about 122 vs 156 "
                  "replicate-cells/s with BLAS pinned to one thread); that gap "
                  "is left for a later change to claim.",
    "lagged_large": "BLAS is pinned to one thread (OPENBLAS_NUM_THREADS, "
                    "OMP_NUM_THREADS, MKL_NUM_THREADS = 1) so that workers x BLAS "
                    "threads stays at or below nproc. With default BLAS threads the "
                    "two pool threads oversubscribe the cores (a probe found 1.16x "
                    "from workers=2 instead of 1.55x).",
    "binary_mc": "BLAS threads are left at the library default; workers=1.",
    "fit_csv": "BLAS threads are left at the library default; each fit is a "
               "fresh `python -m mrtx.cli fit` process.",
}


class BenchError(Exception):
    """The program or the benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, workload: str, size: str, seed: int, seconds: float):
        self.w = wl.WORKLOADS[workload]
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in wl.BLAS_THREAD_VARS:
            self.env.pop(var, None)
            if self.w.pin_blas:
                self.env[var] = "1"
        self.work = OUT / "work"
        self.work.mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1.0:
            raise BenchError("out of time before the run finished")
        return left

    def python(self, *args) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(args[:3])}") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:])
        return proc

    def worker(self, *args) -> dict:
        proc = self.python(str(HERE / "worker.py"), *map(str, args))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_probes(self, count: int) -> list[dict]:
        return [self.worker("probe", self.w.name, self.size, time.monotonic_ns())
                for _ in range(count)]

    def import_times(self) -> dict[str, float]:
        proc = self.python("-X", "importtime", "-c", "import mrtx.cli")
        return tracing.parse_importtime(proc.stderr)

    # -- fit_csv ------------------------------------------------------------

    def panel(self, spec_seed: int) -> Path:
        """The cached input CSV for ``spec_seed``, generated outside all timing."""
        p = wl.SIZES[self.size]["fit_csv"]
        path = CACHE / f"panel-{self.size}-{spec_seed}.csv"
        if not path.exists():
            CACHE.mkdir(exist_ok=True)
            keep = {path.name, f"panel-{self.size}-{wl.REFERENCE_SEED}.csv"}
            for old in CACHE.glob("panel-*.csv"):
                if old.name not in keep:
                    old.unlink()
            self.worker("panel", p["n"], p["horizon"], spec_seed, path)
        return path

    def process(self, args: list[str], tag: str) -> tuple[float, float, int, float, str]:
        """Run one process; (wall s from spawn to exit, CPU s of the process and
        its threads, exit code, peak RSS MB, stderr)."""
        err_path = self.work / f"{tag}.err"
        timeout = self.remaining()
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                usage.ru_maxrss / 1024.0, err_path.read_text()[-500:])

    def fit(self, panel: Path, tag: str, traced_spans: Path | None = None):
        """One ``mrtx fit``; returns (timing, coefficient rows or None, error),
        where timing holds the wall s, CPU s and peak RSS MB of the process."""
        out = self.work / tag
        argv = ["fit", "--data", str(panel), *wl.FIT_ARGS, "--out", str(out)]
        if traced_spans is None:
            cmd = ["-m", "mrtx.cli", *argv]
        else:
            cmd = [str(HERE / "worker.py"), "cli-trace", str(traced_spans), "--", *argv]
        wall, cpu, code, rss, err = self.process(cmd, tag)
        timing = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        if code != 0:
            return timing, None, f"{tag}: exit {code}: {err.strip()}"
        try:
            rows = wl.read_coefficients(out.with_suffix(".csv"))
        except (OSError, ValueError, KeyError) as exc:
            return timing, None, f"{tag}: unreadable coefficient CSV: {exc}"
        if not rows or not all(isinstance(v, str) or v == v for r in rows for v in r.values()):
            return timing, None, f"{tag}: empty or NaN coefficient CSV"
        return timing, rows, None


def _quantiles(values: list[float], times: bool) -> dict:
    """Median, quartiles, sample count and, for times, the highest percentile
    with at least ten samples beyond it (None when there are too few)."""
    vals = sorted(values)
    n = len(vals)
    q = statistics.quantiles(vals, n=4) if n >= 2 else [vals[0]] * 3
    tail = None
    for pct in (99, 95, 90, 80, 75):
        if times and n * (100 - pct) / 100 >= 10:
            tail = {"pct": pct, "value": vals[min(n - 1, int(round(pct / 100 * n)) - 1)]}
            break
    return {"median": statistics.median(vals), "p25": q[0], "p75": q[2], "n": n,
            "tail": tail}


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() if proc.returncode == 0 else \
        "unknown (the checkout is not a git repository)"


def run_mc(r: Runner) -> dict:
    probes = r.setup_probes(SETUP_SAMPLES - 1)
    res = r.worker("run", r.w.name, r.size, r.seed, r.seconds, time.monotonic_ns())
    cpus = res["call_cpu_s"]
    rates = [res["replicate_cells_per_call"] / t for t in cpus]
    per_fit = [t / res["fits_per_call"] for t in cpus]
    setups = [p["setup_cpu_s"] for p in probes] + [res["setup_cpu_s"]]
    return {
        "env": res["env"],
        "samples": {"replicates_per_s": rates, "fit_s_p50": per_fit, "setup_s": setups,
                    "call_cpu_s": cpus, "call_wall_s": res["call_wall_s"],
                    "setup_wall_s": [p["setup_wall_s"] for p in probes]
                    + [res["setup_wall_s"]]},
        "values": {"replicates_per_s": statistics.median(rates),
                   "fit_s_p50": statistics.median(per_fit),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]},
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"],
        "detail": {"replicate_cells_per_call": res["replicate_cells_per_call"],
                   "fits_per_call": res["fits_per_call"]},
    }


def run_cli(r: Runner) -> dict:
    ref_panel = r.panel(wl.REFERENCE_SEED)
    seed_panel = r.panel(wl.call_seed(r.seed, 1))
    probes = r.setup_probes(SETUP_SAMPLES)
    reference = wl.load_reference("fit_csv", r.size)["output"]
    timings, failures = [], []
    attempted = failed = 0
    first_seed_rows = None
    start = time.perf_counter()
    i = 0
    # call 0 fits the reference panel; later calls fit the seed's panel
    while i < 3 or time.perf_counter() - start < r.seconds:
        timing, rows, err = r.fit(ref_panel if i == 0 else seed_panel, f"fit{i}")
        timings.append(timing)
        attempted += 1
        if err:
            failed += 1
            failures.append(err)
        elif i == 0:
            units, bad = wl.compare(rows, reference, "cli")
            attempted += units
            failed += len(bad)
            if bad:
                failures.append(f"reference panel: coefficients differ: {bad}")
        elif first_seed_rows is None:
            first_seed_rows = rows
        else:
            units, bad = wl.compare(rows, first_seed_rows, "cli", exact=True)
            attempted += units
            failed += len(bad)
            if bad:
                failures.append(f"fit{i}: differs from fit1 on the same panel: {bad}")
        i += 1
    cpus = [t["cpu_s"] for t in timings]
    rss = [t["peak_rss_mb"] for t in timings]
    setups = [p["setup_cpu_s"] for p in probes]
    return {
        "env": probes[0]["env"],
        "samples": {"fit_s_p50": cpus, "replicates_per_s": [1.0 / t for t in cpus],
                    "setup_s": setups,
                    "fit_wall_s": [t["wall_s"] for t in timings],
                    "setup_wall_s": [p["setup_wall_s"] for p in probes]},
        "values": {"replicates_per_s": statistics.median([1.0 / t for t in cpus]),
                   "fit_s_p50": statistics.median(cpus),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": max(rss)},
        "attempted": attempted, "failed": failed, "failures": failures,
        "detail": {"panel_rows": wl.SIZES[r.size]["fit_csv"]["n"]
                   * wl.SIZES[r.size]["fit_csv"]["horizon"], "peak_rss_mb_per_fit": rss},
    }


def trace_mc(r: Runner) -> dict:
    spans_path = OUT / f"{r.w.name}-seed{r.seed}-spans.json"
    res = r.worker("trace", r.w.name, r.size, r.seed, r.seconds, spans_path)
    return {**res, "spans_file": str(spans_path.relative_to(ROOT))}


def trace_cli(r: Runner) -> dict:
    panel = r.panel(wl.call_seed(r.seed, 1))
    plain, traced, spans, absent, failures, env = [], [], [], {}, [], {}
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < r.seconds:
        spans_path = r.work / f"spans{i}.json"
        timing_p, rows_p, err_p = r.fit(panel, f"plain{i}")
        timing_t, rows_t, err_t = r.fit(panel, f"traced{i}", traced_spans=spans_path)
        attempted += 2
        plain.append(timing_p["cpu_s"])
        traced.append(timing_t["cpu_s"])
        for err in (err_p, err_t):
            if err:
                failed += 1
                failures.append(err)
        if rows_p is not None and rows_t is not None:
            units, bad = wl.compare(rows_t, rows_p, "cli", exact=True)
            attempted += units
            failed += len(bad)
            if bad:
                failures.append(f"pair {i}: tracing changed the coefficients: {bad}")
        if err_t is None:
            data = json.loads(spans_path.read_text())
            offset = 1 + max((s["id"] for s in spans), default=0)
            for s in data["spans"]:
                s["id"] += offset
                if s["parent"] is not None:
                    s["parent"] += offset
            spans += data["spans"]
            absent.update(data["absent"])
            env = data["env"]
        i += 1
    values, missing, by_class = tracing.layer_metrics(spans)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    spans_file = OUT / f"fit_csv-seed{r.seed}-spans.json"
    spans_file.write_text(json.dumps({"spans": spans, "absent": absent}))
    return {"env": env, "per_layer": values, "missing": missing, "absent": absent,
            "fits_failed_by_class": by_class, "attempted": attempted, "failed": failed,
            "failures": failures, "spans_file": str(spans_file.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                    help="'tiny' is for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mrtx" / "__init__.py").is_file():
        print(f"error: no mrtx source at {ROOT / 'src' / 'mrtx'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    r = Runner(args.workload, args.size, args.seed, args.seconds)
    try:
        if args.trace:
            res = trace_cli(r) if r.w.kind == "cli" else trace_mc(r)
            imports = r.import_times()
            for module in tracing.IMPORT_MODULES:
                if module in imports:
                    res["per_layer"][f"cli.import_ms.{module}"] = imports[module]
                else:
                    res["missing"][f"cli.import_ms.{module}"] = \
                        "not imported by `import mrtx.cli`"
            values = res["per_layer"]
        else:
            res = run_cli(r) if r.w.kind == "cli" else run_mc(r)
            values = dict(res["values"])
            values["ok_frac"] = 1.0 - res["failed"] / max(res["attempted"], 1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in metrics_spec}
    result = {
        "workload": r.w.name, "why": r.w.why, "size": r.size, "seed": r.seed,
        "second_seed": wl.SECOND_SEED, "reference_seed": wl.REFERENCE_SEED,
        "seconds": r.seconds, "trace": args.trace,
        "env": {"git_commit": _git_commit(), **res.get("env", {}),
                "note": NOTES[r.w.name]},
        "correct": res["failed"] == 0,
        "attempted": res["attempted"], "failed": res["failed"],
        "failed_frac": res["failed"] / max(res["attempted"], 1),
        "failures": res["failures"],
        "metrics": metrics,
    }
    if args.trace:
        result["not_measured"] = {m["name"]: res["missing"].get(m["name"], "")
                                  for m in metrics_spec if m["name"] not in values}
        result["absent_wrappers"] = res["absent"]
        result["fits_failed_by_class"] = res["fits_failed_by_class"]
        result["spans_file"] = res["spans_file"]
    else:
        result["samples"] = {k: _quantiles(v, times=k != "replicates_per_s")
                             for k, v in res["samples"].items()}
        result["detail"] = res["detail"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{r.w.name}-seed{r.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
