"""Regenerate, or verify, the stored reference outputs of every workload.

    python3 perfbench/make_reference.py            # write perfbench/reference/*.json
    python3 perfbench/make_reference.py --verify   # recompute and compare, write nothing

A benchmark run never writes the reference. Each reference holds call 0 of
its workload (the inputs at ``REFERENCE_SEED``), computed with workers=1:
per-replicate est/se/ok for every arm and cell, the gated table cells of
``tab2_small``, and the coefficient CSV of ``fit_csv``. The full-size
reference of ``tab2_small`` also records the table at its published size
(1000 replicates), including the cells that fail there, as published.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def published_table() -> dict:
    from mrtx.replication import run_table
    table = run_table("tab2", replicates=1000, seed=wl.REFERENCE_SEED)
    return {"replicates": 1000, "seed": wl.REFERENCE_SEED,
            "cells": [{"cell": f"{c.cell.row} {c.cell.metric}", "value": c.value,
                       "ok": c.ok} for c in table.cells],
            "failing": [f"{c.cell.row} {c.cell.metric}" for c in table.cells
                        if c.ok is False]}


def reference_output(name: str, size: str):
    if wl.WORKLOADS[name].kind == "mc":
        return wl.mc_outputs(*wl.mc_call(name, size, wl.REFERENCE_SEED, 1))
    import mrtx.cli
    p = wl.SIZES[size][name]
    with tempfile.TemporaryDirectory() as tmp:
        panel = Path(tmp) / "panel.csv"
        wl.write_panel(panel, p["n"], p["horizon"], wl.REFERENCE_SEED)
        with contextlib.redirect_stdout(io.StringIO()):
            code = mrtx.cli.main(["fit", "--data", str(panel), *wl.FIT_ARGS,
                                  "--out", str(Path(tmp) / "fit")])
        if code != 0:
            raise SystemExit(f"mrtx fit exited {code} on the reference panel")
        return wl.read_coefficients(Path(tmp) / "fit.csv")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verify", action="store_true",
                    help="compare freshly computed outputs with the stored ones")
    args = ap.parse_args(argv)
    status = 0
    for size in wl.SIZES:
        for name, w in wl.WORKLOADS.items():
            path = HERE / "reference" / f"{name}-{size}.json"
            doc = {"workload": name, "size": size, "seed": wl.REFERENCE_SEED,
                   "workers": 1, "commit": _commit(),
                   "tolerance": {"rel": wl.REL_TOL, "abs": wl.ABS_TOL},
                   "output": reference_output(name, size)}
            if name == "tab2_small" and size == "full":
                doc["published_size_table"] = published_table()
            if args.verify:
                stored = json.loads(path.read_text())
                units, bad = wl.compare(doc["output"], stored["output"], w.kind)
                if "published_size_table" in doc:
                    u, b = wl.compare(
                        {"cells": [], "table": doc["published_size_table"]["cells"]},
                        {"cells": [], "table": stored["published_size_table"]["cells"]}, "mc")
                    units, bad = units + u, bad + b
                print(f"{path.name}: {units - len(bad)} of {units} units match"
                      + (f"; differ: {bad[:5]}" if bad else ""))
                status |= bool(bad)
            else:
                path.parent.mkdir(exist_ok=True)
                path.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"wrote {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
