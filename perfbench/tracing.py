"""Spans around the calls one mrtx layer makes into the next.

``install`` replaces module-level names (the ones each layer looks up when it
calls the next) with wrappers that record a span: name, start, end, parent,
thread and replicate id. Calls to ``numpy.linalg`` are counted and charged
to the innermost open span. Nothing inside ``src/`` changes; a name that a
later refactor removed is reported as absent and the run keeps going.

``layer_metrics`` turns the spans into the per-layer metrics. A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

LINALG = ("cond", "solve", "svd", "eigh", "cholesky", "inv", "lstsq")
FIT_METHODS = ("wcls", "a2wcls", "a2wcls_lagged", "emee", "a2emee")
IMPORT_MODULES = ("mrtx", "mrtx.errors", "mrtx.data", "mrtx.centering",
                  "mrtx.variance", "mrtx.estimators", "mrtx.simulation",
                  "mrtx.replication", "mrtx.cli", "scipy.stats")

# (metric, unit) for every per-layer metric, in report order
PER_LAYER = [
    ("simulation.generate_ms", "ms"),
    ("simulation.aggregate_ms", "ms"),
    ("simulation.pool_busy_frac", "ratio"),
    ("simulation.fits_attempted", "count"),
    ("simulation.fits_failed", "count"),
    ("data.from_columns_ms", "ms"),
    ("data.load_csv_s", "s"),
    ("data.load_csv_rows_per_s", "rows/s"),
    ("data.design_blocks_calls_per_fit", "count"),
    ("data.design_blocks_ms", "ms"),
    ("data.fingerprint_calls_per_fit", "count"),
    ("data.fingerprint_ms", "ms"),
    ("centering.fit_ms", "ms"),
    *[(f"estimators.fit_self_ms.{m}", "ms") for m in FIT_METHODS],
    ("estimators.wls_solve_ms", "ms"),
    ("estimators.wls_solve_calls_per_fit", "count"),
    ("estimators.newton_ms", "ms"),
    ("estimators.newton_iters_per_fit", "count"),
    ("estimators.a2emee_passes_per_fit", "count"),
    ("centering.linalg_calls_per_fit", "count"),
    ("estimators.linalg_calls_per_fit", "count"),
    ("variance.linalg_calls_per_fit", "count"),
    ("variance.ms.plain_sandwich", "ms"),
    ("variance.ms.stacked", "ms"),
    ("variance.ms.stacked_small_sample", "ms"),
    ("variance.leverage_bytes_computed", "bytes"),
    ("replication.gate_ms", "ms"),
    *[(f"cli.import_ms.{m}", "ms") for m in IMPORT_MODULES],
    ("cli.fit_s", "s"),
    ("cli.write_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "replicate",
                 "attrs", "linalg")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self.pool_parent: Span | None = None   # parent for spans opened on pool threads
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, replicate=None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.pool_parent
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.parent = parent.id if parent is not None else None
        span.thread = threading.get_ident()
        span.replicate = replicate if replicate is not None else (
            parent.replicate if parent is not None else None)
        span.attrs = attrs
        span.linalg = 0
        span.end = None
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count_linalg(self) -> None:
        stack = self._stack()
        if stack:
            stack[-1].linalg += 1

    def wrap(self, owner, attr: str, span_name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a traced call.

        ``before(args, kwargs)`` returns span attributes; ``after(span, result)``
        records what the result says (iterations, passes).
        """
        is_dict = isinstance(owner, dict)
        target = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if target is None:
            self.absent[span_name] = f"{getattr(owner, '__name__', 'dict')}.{attr} not found"
            return
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            span = tracer.open(span_name, **attrs)
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if after:
                after(span, result)
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported mrtx package."""
    import numpy
    import mrtx.cli as cli
    import mrtx.data as data
    import mrtx.estimators as estimators
    import mrtx.replication as replication
    import mrtx.simulation as simulation

    def replicate(args, kwargs):
        return {"replicate": args[1] if len(args) > 1 else kwargs.get("rep")}

    def method(args, kwargs):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        return {"method": getattr(config, "method", None)}

    def mc_open(args, kwargs):
        return {"workers": kwargs.get("workers", 1)}

    def record_iters(span, result):
        span.attrs["n_iter"] = int(result[1])

    def record_passes(span, result):
        if span.attrs.get("method") == "a2emee":
            span.attrs["n_iter"] = int(result.n_iter)

    def leverage_bytes(args, kwargs):
        d = getattr(args[0], "model_matrix", None) if args else None
        if d is None or d.ndim != 3:
            return {}
        n, t, _ = d.shape
        return {"hat_bytes": int(n) * int(t) * int(t) * 8}

    # the Monte Carlo pool runs replicates on threads with empty span stacks;
    # their parent is the open run_monte_carlo span
    for owner in (simulation, replication):
        target = getattr(owner, "run_monte_carlo", None)
        if target is None:
            tracer.absent["simulation.run_monte_carlo"] = \
                f"{owner.__name__}.run_monte_carlo not found"
            continue

        def pooled(*args, _target=target, **kwargs):
            span = tracer.open("simulation.run_monte_carlo", **mc_open(args, kwargs))
            outer, tracer.pool_parent = tracer.pool_parent, span
            try:
                return _target(*args, **kwargs)
            finally:
                tracer.pool_parent = outer
                tracer.close(span)

        setattr(owner, "run_monte_carlo", functools.wraps(target)(pooled))

    tracer.wrap(replication, "run_table", "replication.run_table")
    tracer.wrap(simulation, "_fit_one", "simulation.replicate", before=replicate)
    builders = getattr(simulation, "_BUILDERS", None)
    if isinstance(builders, dict):
        for kind in list(builders):
            tracer.wrap(builders, kind, "simulation.generate")
    else:
        tracer.absent["simulation.generate"] = "mrtx.simulation._BUILDERS not found"
    tracer.wrap(simulation, "from_columns", "data.from_columns")
    tracer.wrap(simulation, "run_fit", "estimators.fit", before=method, after=record_passes)
    tracer.wrap(simulation, "compute_metrics", "simulation.compute_metrics")
    tracer.wrap(estimators, "fit_centering", "centering.fit")
    tracer.wrap(estimators, "design_blocks", "data.design_blocks")
    tracer.wrap(estimators, "wls_solve", "estimators.wls_solve")
    tracer.wrap(estimators, "_newton", "estimators.newton", after=record_iters)
    tracer.wrap(estimators, "plain_sandwich", "variance.plain_sandwich")
    tracer.wrap(estimators, "stacked_sandwich", "variance.stacked")
    tracer.wrap(estimators, "stacked_small_sample", "variance.stacked_small_sample",
                before=leverage_bytes)
    tracer.wrap(data.MrtDataset, "fingerprint", "data.fingerprint")
    tracer.wrap(cli, "load_csv", "data.load_csv",
                after=lambda span, ds: span.attrs.update(rows=int(ds.n_rows)))
    tracer.wrap(cli, "run_fit", "estimators.fit", before=method)

    for name in LINALG:
        target = getattr(numpy.linalg, name)

        def counted(*args, _target=target, **kwargs):
            tracer.count_linalg()
            return _target(*args, **kwargs)

        setattr(numpy.linalg, name, functools.wraps(target)(counted))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[dict]) -> dict[int, int]:
    """Self time (ns) of every span: duration minus the union of its children."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], dict[str, str], dict[str, int]]:
    """Per-layer metrics from one traced run.

    Returns (values, reasons for metrics this run could not measure, fit
    failures by exception class). Times are per replicate or per fit unless
    the metric says otherwise.
    """
    ms = 1e-6
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def dur(s):
        return s["end"] - s["start"]

    fits = named("estimators.fit")
    reps = named("simulation.replicate")
    n_fits, n_reps = len(fits), len(reps)
    values: dict[str, float] = {}
    missing: dict[str, str] = {}

    def per(metric, total, count, what):
        if count:
            values[metric] = total / count
        else:
            missing[metric] = f"no {what} in this workload"

    per("simulation.generate_ms", sum(own[s["id"]] for s in named("simulation.generate")) * ms,
        n_reps, "replicates")
    per("data.from_columns_ms", sum(dur(s) for s in named("data.from_columns")) * ms,
        n_reps, "replicates")

    def tail_after_children(parent_name, child_name):
        total, count = 0, 0
        for p in named(parent_name):
            ends = [c["end"] for c in named(child_name) if c["parent"] == p["id"]]
            if ends:
                total += p["end"] - max(ends)
                count += 1
        return total, count

    total, cells = tail_after_children("simulation.run_monte_carlo", "simulation.replicate")
    per("simulation.aggregate_ms", total * ms, cells, "Monte Carlo cells")
    total, tables = tail_after_children("replication.run_table", "simulation.run_monte_carlo")
    per("replication.gate_ms", total * ms, tables, "tables")

    pools = named("simulation.run_monte_carlo")
    capacity = sum(dur(p) * p["attrs"].get("workers", 1) for p in pools)
    if capacity and n_reps:
        values["simulation.pool_busy_frac"] = sum(dur(s) for s in reps) / capacity
    else:
        missing["simulation.pool_busy_frac"] = "no Monte Carlo cells in this workload"

    failures: dict[str, int] = {}
    for s in fits:
        err = s["attrs"].get("error")
        if err:
            failures[err] = failures.get(err, 0) + 1
    if pools:
        values["simulation.fits_attempted"] = float(n_fits)
        values["simulation.fits_failed"] = float(sum(failures.values()))
    else:
        for m in ("simulation.fits_attempted", "simulation.fits_failed"):
            missing[m] = "no Monte Carlo cells in this workload"

    loads = named("data.load_csv")
    if loads:
        secs = sorted(dur(s) * 1e-9 for s in loads)
        values["data.load_csv_s"] = secs[len(secs) // 2]
        rows = [s["attrs"].get("rows") for s in loads if s["attrs"].get("rows")]
        if rows:
            values["data.load_csv_rows_per_s"] = rows[0] / values["data.load_csv_s"]
        else:
            missing["data.load_csv_rows_per_s"] = "row count not recorded"
    else:
        for m in ("data.load_csv_s", "data.load_csv_rows_per_s"):
            missing[m] = "load_csv is not run by this workload"

    def per_fit(metric, name, measure, what):
        spans_ = named(name)
        if spans_ and n_fits:
            values[metric] = sum(measure(s) for s in spans_) / n_fits
        else:
            missing[metric] = f"{what} is not run by this workload"

    per_fit("data.design_blocks_calls_per_fit", "data.design_blocks", lambda s: 1, "design_blocks")
    per_fit("data.design_blocks_ms", "data.design_blocks", lambda s: dur(s) * ms, "design_blocks")
    per_fit("data.fingerprint_calls_per_fit", "data.fingerprint", lambda s: 1, "fingerprint")
    per_fit("data.fingerprint_ms", "data.fingerprint", lambda s: dur(s) * ms, "fingerprint")
    per_fit("centering.fit_ms", "centering.fit", lambda s: own[s["id"]] * ms, "fit_centering")
    per_fit("estimators.wls_solve_ms", "estimators.wls_solve", lambda s: dur(s) * ms, "wls_solve")
    per_fit("estimators.wls_solve_calls_per_fit", "estimators.wls_solve", lambda s: 1, "wls_solve")
    per_fit("estimators.newton_ms", "estimators.newton", lambda s: dur(s) * ms, "the Newton solve")
    per_fit("estimators.newton_iters_per_fit", "estimators.newton",
            lambda s: s["attrs"].get("n_iter", 0), "the Newton solve")
    per_fit("variance.ms.plain_sandwich", "variance.plain_sandwich", lambda s: dur(s) * ms,
            "plain_sandwich")
    per_fit("variance.ms.stacked", "variance.stacked", lambda s: dur(s) * ms, "stacked_sandwich")
    per_fit("variance.ms.stacked_small_sample", "variance.stacked_small_sample",
            lambda s: dur(s) * ms, "stacked_small_sample")

    for method in FIT_METHODS:
        mine = [s for s in fits if s["attrs"].get("method") == method]
        per(f"estimators.fit_self_ms.{method}", sum(own[s["id"]] for s in mine) * ms,
            len(mine), f"{method} fits")
    a2emee = [s for s in fits if s["attrs"].get("method") == "a2emee" and "n_iter" in s["attrs"]]
    per("estimators.a2emee_passes_per_fit", sum(s["attrs"]["n_iter"] for s in a2emee),
        len(a2emee), "a2emee fits")

    hats = [s["attrs"]["hat_bytes"] for s in named("variance.stacked_small_sample")
            if "hat_bytes" in s["attrs"]]
    if hats:
        values["variance.leverage_bytes_computed"] = float(hats[0])
    else:
        missing["variance.leverage_bytes_computed"] = \
            "the leverage correction is not run by this workload"

    for layer in ("centering", "estimators", "variance"):
        metric = f"{layer}.linalg_calls_per_fit"
        if n_fits:
            values[metric] = sum(s["linalg"] for s in spans
                                 if s["name"].split(".")[0] == layer) / n_fits
        else:
            missing[metric] = "no fits in this trace"

    mains = named("cli.main")
    if mains:
        fit_s, write_s = [], []
        for main in mains:
            inner = [f for f in fits if f["parent"] == main["id"]]
            if inner:
                fit_s.append(dur(inner[-1]) * 1e-9)
                write_s.append((main["end"] - inner[-1]["end"]) * 1e-9)
        if fit_s:
            values["cli.fit_s"] = sorted(fit_s)[len(fit_s) // 2]
            values["cli.write_s"] = sorted(write_s)[len(write_s) // 2]
    for m in ("cli.fit_s", "cli.write_s"):
        if m not in values:
            missing[m] = "no mrtx fit process in this workload"
    return values, missing, failures


def parse_importtime(stderr: str, modules=IMPORT_MODULES) -> dict[str, float]:
    """Cumulative import time (ms) per module from ``python -X importtime``.

    A package whose own line is missing (scipy imports ``scipy.stats``
    lazily) is charged the cumulative time of its topmost submodule lines.
    """
    lines = []          # (depth, name, cumulative us), children before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except (IndexError, ValueError):
            continue                       # the header line
        name = parts[2].rstrip()
        lines.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    out = {}
    for module in modules:
        exact = [c for _, n, c in lines if n == module]
        if exact:
            out[module] = exact[0] / 1000.0
            continue

        def inside(name):
            return name.startswith(module + ".")
        total, found = 0, False
        for i, (depth, name, cumulative) in enumerate(lines):
            if not inside(name):
                continue
            parent = next((n for d, n, _ in lines[i + 1:] if d < depth), None)
            if parent is None or not inside(parent):
                total += cumulative
                found = True
        if found:
            out[module] = total / 1000.0
    return out
