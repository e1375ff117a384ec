import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mrtx
from mrtx.cli import main
from mrtx.data import to_csv
from mrtx.simulation import DgmSpec, gen_panel

from conftest import build_panel


@pytest.fixture(scope="module")
def lagged_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "eq12.csv"
    spec = DgmSpec(kind="lagged_eq12", n=40, horizon=10, beta0=-0.1,
                   beta1=0.5, seed=17)
    to_csv(gen_panel(spec), path)
    return str(path)


def test_fit_wcls_smoke(lagged_csv, tmp_path, capsys):
    out = str(tmp_path / "report")
    code = main(["fit", "--data", lagged_csv, "--method", "wcls", "--lag", "2",
                 "--aux", "z", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "beta0:1" in text
    with open(out + ".csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("name,block,estimate")
    assert len(lines) == 3          # header + alpha + beta0


def test_fit_a2wcls_stacked_report(lagged_csv, capsys):
    code = main(["fit", "--data", lagged_csv, "--method", "a2wcls_lagged",
                 "--lag", "2", "--aux", "z", "--variance", "stacked"])
    assert code == 0
    text = capsys.readouterr().out
    assert "variance: stacked" in text
    assert "beta0:1" in text
    assert "beta1:z" in text


def test_fit_unknown_method_usage_error(lagged_csv):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", lagged_csv, "--method", "foo"])
    assert exc.value.code == 2


def test_fit_missing_column_exit_code(lagged_csv):
    code = main(["fit", "--data", lagged_csv, "--method", "wcls", "--lag", "2",
                 "--controls", "not_there"])
    assert code == 12               # MissingColumn


def test_fit_header_only_csv_exit_code(tmp_path, capsys):
    path = tmp_path / "hdr.csv"
    path.write_text("subject_id,t,a,p,y\n")
    code = main(["fit", "--data", str(path), "--method", "wcls"])
    assert code == 15               # MissingValue
    assert "error[MissingValue]: no data rows" in capsys.readouterr().err


def write_config(path, **kv):
    with open(path, "w") as fh:
        fh.write("# simulation design\n")
        for key, val in kv.items():
            fh.write(f"{key} = {val}\n")


def test_simulate_smoke_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="lagged_eq12", n=25, horizon=8, beta0=-0.1,
                 beta1=0.5, seed=5, variance="stacked")
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["simulate", "--config", str(cfg), "--replicates", "10",
                 "--out", out1]) == 0
    assert main(["simulate", "--config", str(cfg), "--replicates", "10",
                 "--out", out2]) == 0
    capsys.readouterr()
    for suffix in (".txt", "_metrics.csv", "_replicates.csv"):
        with open(out1 + suffix, "rb") as f1, open(out2 + suffix, "rb") as f2:
            assert f1.read() == f2.read()


def test_simulate_zero_replicates_usage_error(tmp_path):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="lagged_eq12", n=10, horizon=6)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--replicates", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("verb", ["simulate", "replicate"])
def test_workers_below_one_usage_error(tmp_path, verb, workers):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="nonmoderator_robust", n=10, horizon=6)
    target = ["--config", str(cfg)] if verb == "simulate" else ["--table", "robust"]
    with pytest.raises(SystemExit) as exc:
        main([verb, *target, "--replicates", "2", "--workers", workers])
    assert exc.value.code == 2


def test_simulate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    with open(cfg, "w") as fh:
        fh.write("kind lagged_eq12\n")
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert "error[ConfigParse]" in capsys.readouterr().err


def test_simulate_bad_lag_is_config_parse(tmp_path, capsys):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="lagged_eq12", n=10, horizon=6, lag="two")
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert "error[ConfigParse]" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("methods", "bogus", "unknown method 'bogus'"),
    ("variance", "bogus", "unknown variance mode 'bogus'"),
    ("lag", "2", "lag 2 does not match the proximal_j2 design's lag 1"),
], ids=["methods", "variance", "lag"])
def test_simulate_bad_arm_settings_are_config_parse(tmp_path, capsys, key, value,
                                                    message):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="proximal_j2", n=10, horizon=6, **{key: value})
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert f"error[ConfigParse]: {message}" in capsys.readouterr().err


def test_simulate_readme_config_example(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert "  # " in block          # the example keeps its inline comments
    cfg = tmp_path / "dgm.cfg"
    cfg.write_text(block)
    code = main(["simulate", "--config", str(cfg), "--replicates", "1"])
    assert code == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert "kind=lagged_eq12 n=250 T=30 beta1=0.5" in out
    assert "a2wcls_lagged" in out


def test_gaps_examples(capsys):
    assert main(["gaps", "--p", "0.5", "--alpha1", "1", "--beta1", "0",
                 "--sigma", "1"]) == 0
    out = capsys.readouterr().out
    assert "+0.000000" in out       # interacted-vs-controls gain is zero

    assert main(["gaps", "--p", "0.7", "--alpha1", "1", "--beta1", "2",
                 "--sigma", "1"]) == 0
    out = capsys.readouterr().out
    assert "+0.126000" in out
    assert "adjustment hurts" in out


def test_gaps_domain_error(capsys):
    code = main(["gaps", "--p", "1.2", "--alpha1", "1", "--beta1", "0",
                 "--sigma", "1"])
    assert code == 2
    assert "error[domain]" in capsys.readouterr().err


def test_replicate_unknown_table():
    with pytest.raises(SystemExit) as exc:
        main(["replicate", "--table", "nope"])
    assert exc.value.code == 2


def test_replicate_smoke(tmp_path, capsys):
    out = str(tmp_path / "robust.txt")
    code = main(["replicate", "--table", "robust", "--replicates", "40",
                 "--out", out])
    assert code in (0, 1)
    text = capsys.readouterr().out
    assert "published" in text and "reproduced" in text
    with open(out) as fh:
        assert "table: robust" in fh.read()


def test_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "mrtx.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "exit codes" in proc.stdout
    assert "fit" in proc.stdout and "replicate" in proc.stdout


@pytest.mark.parametrize("module", ["mrtx", "mrtx.cli"])
def test_import_loads_no_scipy(module):
    env = {**os.environ, "PYTHONPATH": str(Path(mrtx.__file__).parents[1])}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_per_time(lagged_csv, capsys):
    spec = DgmSpec(kind="proximal_j2", n=60, horizon=8, beta0=-0.2,
                   beta1=0.2, seed=3)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "prox.csv")
        to_csv(gen_panel(spec), path)
        code = main(["fit", "--data", path, "--method", "unadjusted_per_time",
                     "--t", "2"])
    assert code == 0
    assert "beta0:1" in capsys.readouterr().out


def test_fit_lag_beyond_horizon_exit_code(tmp_path, capsys):
    path = tmp_path / "short.csv"
    to_csv(build_panel(10, 3), path)
    code = main(["fit", "--data", str(path), "--method", "wcls", "--lag", "4",
                 "--controls", "g1"])
    assert code == 24               # LagHorizonExceeded
    assert "lag 4 exceeds panel horizon 3" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["emee", "a2emee"])
def test_fit_binary_outcome_identically_one_exit_code(tmp_path, capsys, method):
    path = tmp_path / "ones.csv"
    lines = ["subject_id,t,a,p,y,z"]
    for i in range(6):
        for t in range(1, 5):
            lines.append(f"{i},{t},{(i + t) % 2},0.5,1,{(i * t) % 3 - 1}")
    path.write_text("\n".join(lines) + "\n")
    code = main(["fit", "--data", str(path), "--method", method, "--aux", "z"])
    assert code == 17               # DimensionMismatch
    assert "identically one" in capsys.readouterr().err
