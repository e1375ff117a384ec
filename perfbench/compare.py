"""Compare two sets of benchmark result files, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` files that ``run.py`` wrote
(``perfbench/out/``), ideally ten or more runs per workload made with the
same seeds on both sides, alternating which side ran first. Every
(end-to-end metric, workload) pair gets its own row and one verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's own
  spread (the distance between its quartiles);
* ``worse than bound``: the change's median is worse than the parent's by
  more than the bound in BENCHMARK.json;
* ``unresolved``: the run-to-run spread of either side is wider than the
  bound, unless every change run reads better than every parent run;
* ``unchanged``: none of the above.

Runs are paired by seed when both sides have it, otherwise in file order.
Every ratio is given with its base, the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from every untraced result file."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["workload"], {})[doc["seed"]] = {
            k: v["value"] for k, v in doc["metrics"].items()}
    return runs


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    med_p, q1_p, q3_p = _spread(parent)
    med_c, q1_c, q3_c = _spread(change)
    base = abs(med_p) or 1.0
    worse_by = sign * (med_p - med_c) / base
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    stats = {"parent": (med_p, q1_p, q3_p, len(parent)),
             "change": (med_c, q1_c, q3_c, len(change)),
             "ratio": med_c / med_p if med_p else float("nan"),
             "wins": wins, "losses": losses, "pairs": len(pairs)}
    spread_p = (q3_p - q1_p) / base
    spread_c = (q3_c - q1_c) / (abs(med_c) or 1.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread_p, spread_c) > bound and not all_better:
        return "unresolved", stats
    if worse_by > bound:
        return "worse than bound", stats
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_c - med_p) > (q3_p - q1_p):
        return "improved", stats
    return "unchanged", stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    worse = 0
    print(f"{'workload':<14}{'metric':<18}{'parent median [q1, q3] n':<36}"
          f"{'change median [q1, q3] n':<36}{'change/parent':>14}{'wins':>8}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        shared = sorted(set(p_runs) & set(c_runs))
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r[name] for r in p_runs.values() if name in r]
            c_vals = [r[name] for r in c_runs.values() if name in r]
            if not p_vals or not c_vals:
                continue
            if shared:
                pairs = [(p_runs[s][name], c_runs[s][name]) for s in shared]
            else:
                pairs = list(zip(p_vals, c_vals))
            v, st = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            worse += v == "worse than bound"
            fmt = "{:.4g} [{:.4g}, {:.4g}] {}"
            print(f"{workload:<14}{name:<18}{fmt.format(*st['parent']):<36}"
                  f"{fmt.format(*st['change']):<36}"
                  f"{st['ratio']:>8.4f} of {st['parent'][0]:.4g} {m['unit']}"
                  f"{st['wins']:>4}/{st['pairs']}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
