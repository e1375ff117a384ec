"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke runs use the tiny workload sizes and one-second loops.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert {"replicates_per_s", "fit_s_p50", "setup_s", "peak_rss_mb", "ok_frac"} == names


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_every_metric_with_its_unit(workload):
    result = last_json(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    doc = json.loads((HERE / "out" / f"{workload}-seed3-trace0.json").read_text())
    for key in ("git_commit", "python", "numpy", "scipy", "blas_vendor", "blas_threads",
                "blas_threads_set_by", "workers", "nproc"):
        assert key in doc["env"], key
    assert doc["seed"] == 3


def _reference(name):
    return json.loads((HERE / "reference" / f"{name}-tiny.json").read_text())["output"]


def test_perturbed_output_raises_failed_frac():
    out = _reference("tab2_small")
    attempted, failed, _ = worker.check_calls("tab2_small", "tiny", [out])
    assert failed == 0

    bumped = copy.deepcopy(out)
    bumped["cells"][1]["se"][2][1][0] *= 1.0 + 1e-8
    attempted, failed, reasons = worker.check_calls("tab2_small", "tiny", [bumped])
    assert failed == 1 and failed / attempted > 0 and "reference" in reasons[0]

    flipped = copy.deepcopy(out)
    flipped["table"][0]["ok"] = not flipped["table"][0]["ok"]
    assert worker.check_calls("tab2_small", "tiny", [flipped])[1] == 1

    rows = _reference("fit_csv")
    moved = copy.deepcopy(rows)
    moved[0]["estimate"] += 1e-6
    assert wl.compare(rows, rows, "cli")[1] == []
    assert wl.compare(moved, rows, "cli")[1] == [f"coef/{rows[0]['name']}"]


def test_tolerance_has_an_absolute_floor():
    assert wl.close(1.0, 1.0 + 5e-11)
    assert not wl.close(1.0, 1.0 + 5e-10)
    assert wl.close(0.0, 1e-13)
    assert not wl.close(1.0, 1.0 + 5e-11, exact=True)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0, "end": 100},
        {"id": 2, "parent": 1, "start": 10, "end": 60},     # two pool threads
        {"id": 3, "parent": 1, "start": 40, "end": 90},
        {"id": 4, "parent": 2, "start": 20, "end": 30},
    ]
    assert tracing.self_times(spans) == {1: 20, 2: 40, 3: 50, 4: 10}


def test_importtime_charges_a_lazy_package_its_top_submodules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.stats._inner",
        "import time:       100 |        300 |     scipy.stats._a",
        "import time:        50 |         50 |     scipy.stats._b",
        "import time:        20 |        400 |   mrtx.variance",
    ])
    assert tracing.parse_importtime(text) == {"mrtx": 0.4, "mrtx.variance": 0.4,
                                              "scipy.stats": 0.35}


@pytest.mark.parametrize("workload", ["lagged_large", "fit_csv"])
def test_traced_spans_nest_and_self_times_are_non_negative(workload):
    result = last_json(run_bench(workload, 1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    doc = json.loads((HERE / "out" / f"{workload}-seed3-trace1.json").read_text())
    spans = json.loads((ROOT / doc["spans_file"]).read_text())["spans"]
    assert spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s["name"]
    assert min(tracing.self_times(spans).values()) >= 0
    # every per-layer metric is measured or comes with a reason
    assert set(doc["metrics"]) == set(expected)
    assert all(doc["not_measured"].values()), doc["not_measured"]
    if workload == "lagged_large":
        threads = {}          # each Monte Carlo cell runs its replicates on two threads
        for s in spans:
            if s["name"] == "simulation.replicate":
                threads.setdefault(s["parent"], set()).add(s["thread"])
        assert threads and max(len(t) for t in threads.values()) == 2
        assert all(s["replicate"] is not None for s in spans
                   if s["name"] == "estimators.fit")


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "cache", "__pycache__"))
    proc = run_bench("tab2_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
