import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mrtx
from mrtx import cli, errors
from mrtx.cli import main
from mrtx.data import Schema, from_columns
from mrtx.simulation import DgmSpec, gen_panel

from conftest import build_panel, to_csv


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


@pytest.mark.parametrize("target", ["missing", "directory", "empty"])
def test_fit_unreadable_data_path_exit_code(tmp_path, capsys, target):
    path = {"missing": tmp_path / "absent.csv", "directory": tmp_path,
            "empty": tmp_path / "empty.csv"}[target]
    if target == "empty":
        path.write_text("")
    code = main(["fit", "--data", str(path), "--method", "wcls"])
    assert code == 12               # MissingColumn
    err = capsys.readouterr().err
    expected = "empty CSV file" if target == "empty" else f"cannot read CSV {path}: "
    assert err.startswith(f"error[MissingColumn]: {expected}")
    assert len(err.splitlines()) == 1


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


def test_simulate_missing_config_is_config_parse(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert f"error[ConfigParse]: cannot read config {cfg}: " in capsys.readouterr().err


def test_simulate_bad_lag_is_config_parse(tmp_path, capsys):
    # every arm takes the design's lag, so a lag line is not a config key
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="lagged_eq12", n=10, horizon=6, lag="two")
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert f"error[ConfigParse]: {cfg}:5: unknown key 'lag'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("methods", "bogus",
     "method 'bogus' does not fit the proximal_j2 design: unknown method 'bogus'"),
    ("variance", "bogus", "unknown variance mode 'bogus'"),
    ("lag", "1", "{cfg}:5: unknown key 'lag'"),
    ("methods", "wcls,wcls_per_time",
     "arm 'wcls_per_time': a per-time method needs a decision index"),
    ("methods", "wcls,a2wcls,wcls", "arm 'wcls': the label is used twice"),
], ids=["methods", "variance", "lag", "per_time_method", "repeated_method"])
def test_simulate_bad_arm_settings_are_config_parse(tmp_path, capsys, key, value,
                                                    message):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="proximal_j2", n=10, horizon=6, **{key: value})
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert f"error[ConfigParse]: {message.format(cfg=cfg)}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value, message", [
    ("lagged_eq12", "beta0", "-0.1,0.2", "beta0 for lagged_eq12 must be a scalar, got"),
    ("timevarying_j3", "beta0", "-0.2,0.02,0.1",
     "beta0 for timevarying_j3 must be a scalar or a pair, got"),
    ("proximal_j2", "eta", "0.1", "eta must be a pair of real numbers, got eta=(0.1,)"),
    ("binary_demo", "beta1", "0.9", "binary_demo does not read beta1, got beta1=0.9"),
], ids=["lagged_beta0_pair", "timevarying_beta0_triple", "eta_scalar", "unread_beta1"])
def test_simulate_bad_parameter_shape_is_config_parse(tmp_path, capsys, kind, key, value,
                                                      message):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind=kind, n=10, horizon=6, **{key: value})
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert f"error[ConfigParse]: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, methods, message", [
    ("lagged_eq12", "wcls,a2wcls","a2wcls is a proximal method (lag = 1)"),
    ("proximal_j2", "wcls,a2wcls_lagged", "a2wcls_lagged requires lag >= 2"),
], ids=["lagged_eq12", "proximal_j2"])
def test_simulate_arm_off_the_design_lag_is_config_parse(tmp_path, capsys, monkeypatch,
                                                         kind, methods, message):
    # each arm takes the design's lag, so an arm that cannot is refused
    # before any replicate runs
    def no_replicates(*args, **kwargs):
        raise AssertionError("replicates ran")

    monkeypatch.setattr(cli, "run_monte_carlo", no_replicates)
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind=kind, n=10, horizon=6, methods=methods)
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    method = methods.split(",")[1]
    assert (f"error[ConfigParse]: method {method!r} does not fit the {kind} design: "
            f"{message}") in capsys.readouterr().err


def test_simulate_config_without_n_is_config_parse(tmp_path, capsys):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="proximal_j2", horizon=6)
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert "error[ConfigParse]: config is missing required key 'n'" in capsys.readouterr().err


def test_simulate_negative_seed_is_config_parse(tmp_path, capsys):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="proximal_j2", n=10, horizon=6, seed=-1)
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert ("error[ConfigParse]: seed must be >= 0 and integral, got seed=-1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("line, message", [
    ("bata1 = 0.8", "unknown key 'bata1'"), ("n = 20", "duplicate key 'n'")])
def test_simulate_unknown_or_repeated_key_is_config_parse(tmp_path, capsys, line, message):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="proximal_j2", n=10, horizon=6)
    with open(cfg, "a") as fh:
        fh.write(line + "\n")
    code = main(["simulate", "--config", str(cfg), "--replicates", "2"])
    assert code == 28               # ConfigParse
    assert f"error[ConfigParse]: {cfg}:5: {message}" in capsys.readouterr().err


def test_simulate_metrics_csv_cells_are_numbers(tmp_path, capsys):
    cfg = tmp_path / "dgm.cfg"
    write_config(cfg, kind="proximal_j2", n=20, horizon=6, seed=7)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg), "--replicates", "5", "--out", out]) == 0
    capsys.readouterr()
    with open(out + "_metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for key, value in row.items():
            if key not in ("method", "coef"):
                float(value)


def test_simulate_readme_config_example(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert "  # " in block          # the example keeps its inline comments
    keys = {line.partition("=")[0].strip() for line in block.splitlines()
            if "=" in line and not line.startswith("#")}
    assert keys == set(cli._CONFIG_KEYS)     # every key, and no lag: arms take spec.lag
    cfg = tmp_path / "dgm.cfg"
    cfg.write_text(block)
    code = main(["simulate", "--config", str(cfg), "--replicates", "1"])
    assert code == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert "kind=lagged_eq12 n=250 T=30 beta1=0.5" in out
    assert "a2wcls_lagged" in out


def test_readme_library_sketch_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    ds = gen_panel(DgmSpec(kind="nonmoderator_robust", n=60, horizon=8, beta0=0.2, seed=4))
    cols = {("mood" if k == "z" else k): v for k, v in ds.columns.items()}
    to_csv(from_columns(cols, Schema(aux=("mood",))), tmp_path / "panel.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert "beta0:1" in capsys.readouterr().out


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


def test_gaps_sigma_matrix(capsys):
    # d = 2 takes d * d row-major values: alpha1' sigma alpha1 = 2, so the
    # meat gap at p = 0.5 is -0.25 * 2
    assert main(["gaps", "--p", "0.5", "--alpha1", "1,0", "--beta1", "0,0",
                 "--sigma", "2,0,0,1"]) == 0
    assert "meat gap: -0.500000" in capsys.readouterr().out
    code = main(["gaps", "--p", "0.5", "--alpha1", "1,0", "--beta1", "0,0",
                 "--sigma", "2,0,1"])
    assert code == 2
    assert ("error[domain]: --sigma needs 4 value(s), the 2x2 matrix row by row, "
            "to match --alpha1; got 3" in capsys.readouterr().err)
    # one value is not accepted either: the message names the one count that is
    code = main(["gaps", "--p", "0.5", "--alpha1", "1,0", "--beta1", "0,0",
                 "--sigma", "1"])
    assert code == 2
    assert "--sigma needs 4 value(s)" in capsys.readouterr().err


@pytest.mark.parametrize("empty", ["alpha1", "beta1"])
def test_gaps_empty_coefficients_refused(capsys, empty):
    values = {"alpha1": "1", "beta1": "0", "sigma": "1", empty: ""}
    if empty == "alpha1":
        values.update(beta1="", sigma="")
    code = main(["gaps", "--p", "0.5", *(f"--{k}={v}" for k, v in values.items())])
    assert code == 2
    assert capsys.readouterr().err == (f"error[domain]: {empty} is empty: "
                                       "it needs one entry per control\n")


@pytest.mark.parametrize("args, message", [
    (["--alpha1", "nan", "--beta1", "0", "--sigma", "1"], "alpha1 must be finite"),
    (["--alpha1", "1", "--beta1", "0", "--sigma", "nan"], "sigma_g must be finite"),
    (["--alpha1", "1e308", "--beta1", "1e308", "--sigma", "1e308"],
     "gap_wcls_vs_u overflows float64"),
])
def test_gaps_refuses_non_finite_input(capsys, args, message):
    # a NaN input, or a gap past the float64 range, is a typed domain error that
    # names its field, not a NaN printed with exit 0 or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["gaps", "--p", "0.5", *args])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error[domain]: {message}")


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
    leaves = [cls for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, errors.MrtxError)
              and not cls.__subclasses__()]
    assert len(leaves) >= 17
    codes = [cls.exit_code for cls in leaves]
    assert len(set(codes)) == len(codes) and not {0, 2} & set(codes)
    listed = proc.stdout.split("exit codes:")[1].splitlines()
    for cls in leaves:
        assert f"  {cls.exit_code:<3}{cls.__name__}" in listed, cls.__name__


@pytest.mark.parametrize("module", ["mrtx", "mrtx.cli"])
def test_import_loads_no_scipy(module):
    env = {**os.environ, "PYTHONPATH": str(Path(mrtx.__file__).parents[1])}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_small_sample_fit_runs_without_scipy(tmp_path, capsys):
    data = tmp_path / "robust.csv"
    to_csv(gen_panel(DgmSpec(kind="nonmoderator_robust", n=30, horizon=6, seed=4)), data)
    args = ["fit", "--data", str(data), "--method", "a2wcls", "--aux", "z",
            "--controls", "z", "--variance", "stacked_small_sample", "--out"]
    code = ("import sys; sys.modules['scipy'] = None; from mrtx.cli import main; "
            f"code = main({[*args, str(tmp_path / 'blocked')]!r}); "
            "print(code, sorted(m for m, mod in sys.modules.items() "
            "if m.split('.')[0].startswith('scipy') and mod is not None))")
    env = {**os.environ, "PYTHONPATH": str(Path(mrtx.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert main([*args, str(tmp_path / "inproc")]) == 0
    capsys.readouterr()
    rows = []
    for name in ("blocked", "inproc"):
        with open(tmp_path / f"{name}.csv") as fh:
            rows.append(list(csv.DictReader(fh)))
    assert [r["name"] for r in rows[0]] == [r["name"] for r in rows[1]]
    for blocked, inproc in zip(*rows):
        for key in ("estimate", "se", "ci_lo", "ci_hi", "p_value"):
            assert float(blocked[key]) == pytest.approx(float(inproc[key]), rel=1e-11, abs=0)


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
