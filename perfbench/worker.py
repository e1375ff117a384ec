"""One fresh benchmark process; started by ``run.py``, never by hand.

Modes (first argument):

* ``probe WORKLOAD SIZE SPAWN_NS``: set up (import, warm-up) and report the
  set-up time and the environment.
* ``run WORKLOAD SIZE SEED SECONDS SPAWN_NS``: set up, then run the timed
  Monte Carlo loop and check every output.
* ``trace WORKLOAD SIZE SEED SECONDS SPANS_PATH``: run the calls untraced,
  then again with spans, and report per-layer metrics.
* ``panel N HORIZON SEED PATH``: write a fit_csv input panel.
* ``cli-trace SPANS_PATH -- MRTX_FIT_ARGS...``: run ``mrtx fit`` with spans.

Each mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _check_source() -> None:
    """Refuse to measure an mrtx that is not this checkout's ``src/mrtx``."""
    import mrtx
    if not Path(mrtx.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"mrtx imported from {mrtx.__file__}, not from this checkout's src/")


def environment(workers: int) -> dict:
    """Versions, BLAS vendor and thread count as this process sees them."""
    import ctypes
    import glob
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    set_vars = {v: os.environ[v] for v in wl.BLAS_THREAD_VARS if v in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_set_by": (", ".join(f"{k}={v}" for k, v in set_vars.items())
                                if set_vars else "library default (no thread variables set)"),
        "workers": workers,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup(name: str, size: str) -> None:
    """Import what the workload needs and warm it up."""
    w = wl.WORKLOADS[name]
    if w.kind == "cli":
        import mrtx.cli  # noqa: F401  (a fit process does nothing else before fitting)
        _check_source()
        return
    import mrtx  # noqa: F401
    _check_source()
    wl.mc_call(name, "tiny", wl.REFERENCE_SEED, w.workers)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_calls(name: str, size: str, seed: int, seconds: float | None,
                count: int | None = None) -> tuple[list[float], list[float], list[dict]]:
    """Run calls 0, 1, ... for ``seconds`` of wall time (at least two calls)
    or exactly ``count`` calls; returns (wall s, CPU s, outputs) per call.

    CPU time is that of the whole process, every thread included.
    """
    workers = wl.WORKLOADS[name].workers
    walls, cpus, outputs = [], [], []
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else \
            (i < 2 or time.perf_counter() - start < seconds):
        t0, c0 = time.perf_counter(), time.process_time()
        reports, table = wl.mc_call(name, size, wl.call_seed(seed, i), workers)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        outputs.append(wl.mc_outputs(reports, table))
        i += 1
    return walls, cpus, outputs


def check_calls(name: str, size: str, outputs: list[dict]) -> tuple[int, int, list[str]]:
    """Count fits and reference checks; return (attempted, failed, reasons).

    Every fit is one operation, and so is every unit (one replicate-arm fit
    or one table cell) of call 0 compared with the stored reference.
    """
    attempted = failed = 0
    reasons = []
    for i, out in enumerate(outputs):
        n, bad = wl.fit_counts(out)
        attempted += n
        failed += bad
        if bad:
            reasons.append(f"call {i}: {bad} fits raised")
    units, bad = wl.compare(outputs[0], wl.load_reference(name, size)["output"], "mc")
    attempted += units
    failed += len(bad)
    if bad:
        reasons.append(f"call 0 differs from the stored reference in {len(bad)} of "
                       f"{units} units, first {bad[:3]}")
    return attempted, failed, reasons


def timed_setup(name, size, spawn_ns) -> dict:
    """Set up; CPU time of this process and wall time since spawn, at ready."""
    setup(name, size)
    return {"setup_cpu_s": time.process_time(),
            "setup_wall_s": (time.monotonic_ns() - int(spawn_ns)) * 1e-9}


def mode_probe(name, size, spawn_ns):
    return {**timed_setup(name, size, spawn_ns),
            "env": environment(wl.WORKLOADS[name].workers)}


def mode_run(name, size, seed, seconds, spawn_ns):
    ready = timed_setup(name, size, spawn_ns)
    w = wl.WORKLOADS[name]
    walls, cpus, outputs = timed_calls(name, size, int(seed), float(seconds))
    rss = peak_rss_mb()
    attempted, failed, reasons = check_calls(name, size, outputs)
    if w.workers > 1:
        # results must be bit-identical across worker counts
        serial = wl.mc_outputs(*wl.mc_call(name, size, wl.REFERENCE_SEED, 1))
        units, bad = wl.compare(outputs[0], serial, "mc", exact=True)
        attempted += units
        failed += len(bad)
        if bad:
            reasons.append(f"workers={w.workers} differs bitwise from workers=1 in "
                           f"{len(bad)} of {units} units")
    return {
        **ready,
        "env": environment(w.workers),
        "call_wall_s": walls,
        "call_cpu_s": cpus,
        "replicate_cells_per_call": wl.replicate_cells(name, size),
        "fits_per_call": wl.fit_counts(outputs[0])[0],
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "peak_rss_mb": rss,
    }


def mode_trace(name, size, seed, seconds, spans_path):
    import tracing
    setup(name, size)
    w = wl.WORKLOADS[name]
    _, plain_cpu, plain = timed_calls(name, size, int(seed), float(seconds) / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    _, traced_cpu, traced = timed_calls(name, size, int(seed), None, count=len(plain))
    attempted, failed, reasons = check_calls(name, size, traced)
    for i, (a, b) in enumerate(zip(plain, traced)):
        units, bad = wl.compare(b, a, "mc", exact=True)
        attempted += units
        failed += len(bad)
        if bad:
            reasons.append(f"call {i}: tracing changed {len(bad)} of {units} outputs")
    spans = [s.as_dict() for s in tracer.spans]
    Path(spans_path).write_text(json.dumps({"spans": spans, "absent": tracer.absent}))
    values, missing, by_class = tracing.layer_metrics(spans)
    values["trace.overhead_frac"] = sum(traced_cpu) / sum(plain_cpu) - 1.0
    return {
        "env": environment(w.workers),
        "per_layer": values,
        "missing": missing,
        "absent": tracer.absent,
        "fits_failed_by_class": by_class,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
    }


def mode_panel(n, horizon, seed, path):
    _check_source()
    tmp = Path(path + ".tmp")
    wl.write_panel(tmp, int(n), int(horizon), int(seed))
    tmp.replace(path)
    return {"path": path}


def mode_cli_trace(spans_path, *argv):
    import tracing
    import mrtx.cli as cli
    _check_source()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    span = tracer.open("cli.main")
    try:
        code = cli.main(list(argv))
    finally:
        tracer.close(span)
    spans = [s.as_dict() for s in tracer.spans]
    Path(spans_path).write_text(json.dumps({"spans": spans, "absent": tracer.absent,
                                            "env": environment(1)}))
    return code


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "cli-trace":
        sep = args.index("--")
        return mode_cli_trace(*args[:sep], *args[sep + 1:])
    modes = {"probe": mode_probe, "run": mode_run, "trace": mode_trace,
             "panel": mode_panel}
    result = modes[mode](*args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
