"""Workload definitions shared by the runner, the worker process and the
reference tool.

Four workloads stress different layers of mrtx:

* ``tab2_small``: the published lagged table size, where per-call Python
  overhead dominates; the only workload through ``replication``.
* ``lagged_large``: the largest lagged cell, where numerics dominate; the
  only workload that runs the Monte Carlo thread pool.
* ``binary_mc``: the only workload through the damped-Newton solve and the
  a2emee alternating loop.
* ``fit_csv``: fresh ``mrtx fit`` processes on a 200k-row CSV; the only
  workload through ``load_csv`` and the leverage-corrected variance.

Every timed loop starts with call 0 on the stored reference inputs
(``REFERENCE_SEED``); later calls use inputs derived from the run's seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_SEED = 20240901     # the seed the published tables are gated at
SECOND_SEED = 7919            # documented hold-out seed for checking claims
REL_TOL = 1e-10               # ROADMAP aim 3: rewrites match to ~1e-10 relative
ABS_TOL = 1e-12               # absolute floor for values near zero


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "mc": in-process Monte Carlo calls; "cli": mrtx fit processes
    workers: int
    pin_blas: bool       # pin BLAS to one thread so workers x BLAS threads <= nproc
    why: str


WORKLOADS = {
    "tab2_small": Workload(
        "tab2_small", "mc", 1, False,
        "published table size (N=250, T=30) where per-call Python overhead "
        "dominates; the only workload through replication"),
    "lagged_large": Workload(
        "lagged_large", "mc", 2, True,
        "largest lagged cell (N=500, T=100): numerics dominate; the only "
        "workload that runs the thread pool, with BLAS pinned to one thread"),
    "binary_mc": Workload(
        "binary_mc", "mc", 1, False,
        "binary outcomes (N=2000, T=10): the only path through the damped "
        "Newton solve and the a2emee alternating loop"),
    "fit_csv": Workload(
        "fit_csv", "cli", 1, False,
        "fresh mrtx fit processes on a 200k-row CSV: the only path through "
        "load_csv and the leverage-corrected variance"),
}

# "tiny" sizes exist for the benchmark's own smoke tests
SIZES = {
    "full": {
        "tab2_small": {"replicates": 20, "n": 250, "horizon": 30},
        "lagged_large": {"replicates": 8, "n": 500, "horizon": 100},
        "binary_mc": {"replicates": 8, "n": 2000, "horizon": 10},
        "fit_csv": {"n": 2000, "horizon": 100},
    },
    "tiny": {
        "tab2_small": {"replicates": 3, "n": 40, "horizon": 10},
        "lagged_large": {"replicates": 4, "n": 40, "horizon": 12},
        "binary_mc": {"replicates": 3, "n": 200, "horizon": 5},
        "fit_csv": {"n": 60, "horizon": 10},
    },
}

FIT_ARGS = ["--method", "a2wcls", "--aux", "z", "--controls", "z",
            "--variance", "stacked_small_sample"]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def call_seed(seed: int, i: int) -> int:
    """Input seed of call ``i`` in a run with ``seed``; call 0 is the reference."""
    if i == 0:
        return REFERENCE_SEED
    return int(np.random.SeedSequence([seed % (1 << 64), i]).generate_state(1)[0])


def _arms(name: str):
    from mrtx.estimators import EstimatorConfig
    from mrtx.simulation import McArm
    if name == "binary_mc":
        return [McArm("emee", EstimatorConfig(method="emee")),
                McArm("a2emee", EstimatorConfig(method="a2emee"))]
    return [McArm("wcls", EstimatorConfig(method="wcls", lag=2)),
            McArm("a2wcls_lagged", EstimatorConfig(
                method="a2wcls_lagged", lag=2, variance_mode="stacked"))]


def mc_call(name: str, size: str, spec_seed: int, workers: int):
    """Run one Monte Carlo call; returns (reports, table or None).

    Module attributes are looked up at call time so that a traced run sees
    the wrapped names.
    """
    import mrtx.replication as replication
    import mrtx.simulation as simulation
    p = SIZES[size][name]
    if name == "tab2_small":
        table = replication.run_table("tab2", replicates=p["replicates"],
                                      seed=spec_seed, n=p["n"],
                                      horizon=p["horizon"], workers=workers)
        return table.reports, table
    if name == "lagged_large":
        spec = simulation.DgmSpec(kind="lagged_eq12", n=p["n"], horizon=p["horizon"],
                                  beta0=-0.1, beta1=0.5, seed=spec_seed)
    else:
        spec = simulation.DgmSpec(kind="binary_demo", n=p["n"], horizon=p["horizon"],
                                  beta0=0.2, seed=spec_seed)
    report = simulation.run_monte_carlo(spec, _arms(name), p["replicates"],
                                        workers=workers)
    return [report], None


def replicate_cells(name: str, size: str) -> int:
    """Replicate-cells completed by one call (every arm fitted per cell)."""
    cells = 3 if name == "tab2_small" else 1
    return cells * SIZES[size][name]["replicates"]


def mc_outputs(reports, table) -> dict:
    """Per-replicate est/se/ok per cell and, for a table, its gated cells."""
    out = {"cells": [{"labels": list(r.labels), "est": r.est.tolist(),
                      "se": r.se.tolist(), "ok": r.ok.tolist()} for r in reports]}
    if table is not None:
        out["table"] = [{"cell": f"{c.cell.row} {c.cell.metric}",
                         "value": c.value, "ok": c.ok} for c in table.cells]
    return out


def fit_counts(outputs: dict) -> tuple[int, int]:
    """(fits attempted, fits that raised) over every replicate and arm."""
    ok = [flag for cell in outputs["cells"] for row in cell["ok"] for flag in row]
    return len(ok), sum(1 for flag in ok if not flag)


def write_panel(path, n: int, horizon: int, seed: int) -> None:
    """Write the fit_csv input: a nonmoderator_robust panel, exact to the bit."""
    from mrtx.simulation import DgmSpec, gen_panel
    ds = gen_panel(DgmSpec(kind="nonmoderator_robust", n=n, horizon=horizon,
                           beta0=-0.2, seed=seed))
    data = np.column_stack([ds.subject_ids, ds.t, ds.a, ds.p, ds.y_raw,
                            ds.columns["z"]])
    with open(path, "w") as fh:
        fh.write("subject_id,t,a,p,y,z\n")
        np.savetxt(fh, data, fmt=["%d", "%d", "%d", "%.17g", "%.17g", "%.17g"],
                   delimiter=",")


def read_coefficients(path) -> list[dict]:
    """Parse the coefficient CSV written by ``mrtx fit --out``."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: (v if k in ("name", "block") else float(v)) for k, v in row.items()}
            for row in rows]


# ---------------------------------------------------------------------------
# reference comparison


def load_reference(name: str, size: str) -> dict:
    """The stored reference document (see make_reference.py)."""
    return json.loads((Path(__file__).parent / "reference" / f"{name}-{size}.json").read_text())


def close(a, b, exact: bool = False) -> bool:
    """Equal within REL_TOL relative with an ABS_TOL floor; NaN equals NaN."""
    if not (isinstance(a, float) and isinstance(b, float)):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if exact:
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _mc_units(outputs: dict):
    """Yield (unit id, values) for each replicate-arm fit and table cell."""
    for c, cell in enumerate(outputs["cells"]):
        for r, (est, se, ok) in enumerate(zip(cell["est"], cell["se"], cell["ok"])):
            for m, label in enumerate(cell["labels"]):
                yield f"cell{c}/rep{r}/{label}", [ok[m], *est[m], *se[m]]
    for entry in outputs.get("table", []):
        yield f"table/{entry['cell']}", [entry["value"], entry["ok"]]


def _cli_units(rows: list[dict]):
    for row in rows:
        yield f"coef/{row['name']}", [row[k] for k in sorted(row)]


def compare(actual, expected, kind: str, exact: bool = False) -> tuple[int, list[str]]:
    """Compare one output against its reference (bit for bit when ``exact``).

    Returns the number of units compared and the ids of units that differ
    (a missing or extra unit counts as differing).
    """
    units = _mc_units if kind == "mc" else _cli_units
    got = dict(units(actual))
    want = dict(units(expected))
    bad = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a is None or b is None or len(a) != len(b) \
                or not all(close(x, y, exact) for x, y in zip(a, b)):
            bad.append(key)
    return len(want), bad
