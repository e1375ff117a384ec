import csv
import dataclasses
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mrtx import errors
from mrtx.data import MrtDataset, Schema, _csv_float, from_columns, load_csv
from mrtx.estimators import EstimatorConfig, fit
from mrtx.simulation import DgmSpec, gen_panel

from conftest import build_panel, panel_from_arrays, to_csv


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


HEADER = ["subject_id", "t", "a", "p", "y", "z"]
GOOD_ROWS = [
    [1, 1, 1, 0.25, 1.5, 0.3],
    [1, 2, 0, 0.5, -0.5, 1.0],
    [1, 3, 1, 0.5, 2.0, -1.0],
    [2, 1, 0, 0.4, 0.0, 0.7],
    [2, 2, 1, 0.6, 1.0, 0.1],
    [2, 3, 0, 0.5, 0.25, 0.9],
]


def test_identity_load(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, GOOD_ROWS)
    ds = load_csv(path, Schema(aux=("z",)), lag=1)
    assert ds.n_subjects == 2
    assert ds.horizon == 3
    assert ds.n_rows == 6
    assert ds.q == 1 and ds.p_z == 1
    np.testing.assert_array_equal(ds.y, [r[4] for r in GOOD_ROWS])


def test_probability_out_of_range(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows[1][3] = 1.0
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.ProbabilityOutOfRange) as exc:
        load_csv(path, Schema(aux=("z",)), lag=1)
    assert exc.value.subject_id == "1" and exc.value.t == 2


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_time_is_missing_value(tmp_path, token):
    rows = [list(r) for r in GOOD_ROWS]
    rows[4][1] = token
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.MissingValue, match="row 6") as exc:
        load_csv(path, Schema(aux=("z",)), lag=1)
    assert exc.value.subject_id == "2" and exc.value.t == token


def test_non_contiguous_time(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows = [rows[0], rows[2]] + rows[3:5]          # subject 1 has t = (1, 3)
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.NonContiguousTime):
        load_csv(path, Schema(aux=("z",)), lag=1)


def test_missing_column(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER[:-1], [r[:-1] for r in GOOD_ROWS])
    with pytest.raises(errors.MissingColumn):
        load_csv(path, Schema(aux=("z",)), lag=1)


def test_non_binary_treatment(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows[0][2] = 2
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.NonBinaryTreatment):
        load_csv(path, Schema(aux=("z",)), lag=1)


def test_unparsable_token_names_row(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows[4][4] = "abc"
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.MissingValue, match="'abc' in column 'y' at row 6") as exc:
        load_csv(path, Schema(aux=("z",)), lag=1)
    assert exc.value.subject_id == "2" and exc.value.t == 2


@pytest.mark.parametrize("token, value", [
    ("1_000", None), ("\uff11", None), ("\u0663", None), ("0x10", None), ("1d5", None),
    ("", None), ("1.5.", None),
    (" 1.5 ", 1.5), ("\xa01.5", 1.5), ("+.5", 0.5), ("1E3", 1000.0), ("-0", 0.0),
], ids=["underscore", "fullwidth_digit", "arabic_indic_digit", "hex", "fortran_exponent",
        "empty", "two_points", "spaces", "nbsp", "leading_point", "upper_exponent",
        "negative_zero"])
def test_one_number_grammar(tmp_path, token, value):
    # the typed parse, the error path that names a refused token and the cast of
    # an in-memory text column share one rule
    assert _csv_float(token) == value
    rows = [list(r) for r in GOOD_ROWS]
    rows[4][4] = token
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    text = {name: np.array([str(r[j]) for r in rows]) for j, name in enumerate(HEADER)}
    if value is not None:
        assert load_csv(path, Schema(aux=("z",)), lag=1).y_raw[4] == value
        assert from_columns(text, Schema(aux=("z",))).y_raw[4] == value
        return
    with pytest.raises(errors.MissingValue,
                       match=re.escape(f"{token!r} in column 'y' at row 6")) as exc:
        load_csv(path, Schema(aux=("z",)), lag=1)
    assert exc.value.subject_id == "2" and exc.value.t == 2
    with pytest.raises(errors.MissingValue,
                       match=re.escape(f"non-numeric value {token!r} in column 'y'")) as exc:
        from_columns(text, Schema(aux=("z",)))
    assert exc.value.subject_id == "2" and exc.value.t == 2


@pytest.mark.parametrize("name, bad", [("note", "abc"), ("a", "abc"),
                                       ("z", np.complex128(-1 + 1j))],
                         ids=["note", "a", "complex_z"])
def test_non_numeric_column_is_missing_value(name, bad):
    # a complex value, as a complex column yields it, is refused, not read as
    # its real part
    cols = panel_from_arrays(3, 4)
    cols[name] = np.asarray(cols.get(name, cols["z"])).astype(str if bad == "abc" else object)
    cols[name][5] = bad             # subject 2, t = 2
    with pytest.raises(errors.MissingValue,
                       match=re.escape(f"non-numeric value '{bad}' in column '{name}'")) as exc:
        from_columns(cols, Schema(aux=("z",)))
    assert exc.value.subject_id == 2 and exc.value.t == 2


def test_nan_rejected(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows[3][4] = "NaN"
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.MissingValue):
        load_csv(path, Schema(aux=("z",)), lag=1)


def test_weight_examples():
    # direct evaluation of the weight-ratio definition
    ds = build_panel(2, 2, a=[1, 0, 1, 0], p=[0.25, 0.25, 0.5, 0.5],
                     ptilde=[0.5] * 4,
                     schema=Schema(aux=("z",), ptilde="ptilde"))
    assert ds.weight_w[0] == pytest.approx(0.5 / 0.25)           # a=1
    assert ds.weight_w[1] == pytest.approx((1 - 0.5) / (1 - 0.25))  # a=0
    assert ds.centered_a[0] == pytest.approx(0.5)
    assert ds.centered_a[1] == pytest.approx(-0.5)


def test_weight_unity_when_numerator_matches():
    p = np.clip(np.random.default_rng(1).random(12), 0.05, 0.95)
    ds = build_panel(3, 4, p=p, ptilde=p,
                     schema=Schema(aux=("z",), ptilde="ptilde"))
    np.testing.assert_allclose(ds.weight_w, 1.0)


def test_weights_positive_finite(small_panel):
    assert np.all(small_panel.weight_w > 0)
    assert np.all(np.isfinite(small_panel.weight_w))


def test_design_blocks_cached_per_view():
    pt = np.linspace(0.2, 0.8, 48)
    ds = build_panel(8, 6, seed=3, pt=pt)
    assert ds.weight_w is ds.weight_w
    assert ds.centered_a is ds.centered_a
    # a re-view with another numerator gets its own blocks, not the cached ones
    view = ds.with_schema(Schema(aux=("z",), ptilde="pt"))
    a, p = view.a, view.p
    np.testing.assert_array_equal(
        view.weight_w, np.where(a == 1.0, pt, 1.0 - pt) / np.where(a == 1.0, p, 1.0 - p))
    np.testing.assert_array_equal(view.centered_a, a - pt)
    assert not np.array_equal(view.weight_w, ds.weight_w)


def test_default_ptilde_is_pooled_mean():
    ds = build_panel(4, 5, seed=9)
    assert np.all(ds.p_tilde == ds.a.mean())


@pytest.mark.parametrize("lag", [1, 2])
def test_constant_roles_are_read_only_broadcasts(lag):
    # a moderator-free f, a control-free g and the pooled p_tilde hold one value
    # each, broadcast over the rows: read-only, and equal to the full arrays they replace
    ds = from_columns(panel_from_arrays(6, 5, p=np.linspace(0.2, 0.8, 30)),
                      Schema(aux=("z",)), lag=lag)
    a, p, ones = ds.a, ds.p, np.ones((ds.n_rows, 1))
    pt = np.full(ds.n_rows, float(np.mean(a)))
    for arr, full in ((ds.f, ones), (ds.g, ones), (ds.p_tilde, pt)):
        assert not any(arr.strides) and not arr.flags.writeable
        assert arr.dtype == full.dtype and arr.shape == full.shape
        np.testing.assert_array_equal(arr, full)
        with pytest.raises(ValueError):
            arr[...] = 0.5
    # the blocks built from them are the ones the full arrays give, bit for bit
    np.testing.assert_array_equal(ds.centered_a, a - pt)
    np.testing.assert_array_equal(
        ds.weight_w, np.where(a == 1.0, pt, 1.0 - pt) / np.where(a == 1.0, p, 1.0 - p))
    assert not ds.weight_w.flags.writeable


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "panel.csv"
    rng = np.random.default_rng(7)
    rows = []
    for sid in (1, 2, 3):
        for t in (1, 2, 3, 4):
            rows.append([sid, t, int(rng.integers(0, 2)),
                         repr(float(rng.uniform(0.1, 0.9))),
                         repr(float(rng.standard_normal())),
                         repr(float(rng.standard_normal()))])
    write_csv(path, HEADER, rows)
    ds = load_csv(path, Schema(aux=("z",)), lag=1)
    out = tmp_path / "copy.csv"
    to_csv(ds, out)
    ds2 = load_csv(out, Schema(aux=("z",)), lag=1)
    for field in ("t", "a", "p", "y", "y_raw", "z"):
        np.testing.assert_array_equal(getattr(ds, field), getattr(ds2, field))


def test_lag_alignment_shifts_within_subject():
    y = np.arange(1.0, 9.0)          # subject 1: 1..4, subject 2: 5..8
    ds = build_panel(2, 4, lag=2, y=y)
    # aligned usable row t carries the raw proximal value from row t+1
    np.testing.assert_array_equal(ds.y, [2.0, 3.0, 4.0, 6.0, 7.0, 8.0])
    np.testing.assert_array_equal(ds.y_raw, y)
    np.testing.assert_array_equal(ds.usable(ds.t), [1, 2, 3, 1, 2, 3])


def test_aligned_outcome_is_the_supplied_column_read_ahead():
    cols = panel_from_arrays(3, 6, seed=2)
    ds = from_columns(cols, Schema(aux=("z",)), lag=3)
    assert ds.y.shape == (3 * 4,)
    np.testing.assert_array_equal(ds.y, ds.usable(ds.y_raw, 2))
    np.testing.assert_array_equal(ds.per_subject(ds.y), ds.per_subject(ds.y_raw)[:, 2:])
    with pytest.raises(ValueError):
        ds.y[0] = 99.0
    proximal = from_columns(cols, Schema(aux=("z",)), lag=1)
    assert np.shares_memory(proximal.y, proximal.columns["y"])
    np.testing.assert_array_equal(proximal.y, cols["y"])


def test_row_order_is_canonicalized():
    cols = panel_from_arrays(3, 4, seed=5)
    order = np.random.default_rng(0).permutation(12)
    shuffled = {k: np.asarray(v)[order] for k, v in cols.items()}
    ds1 = from_columns(cols, Schema(aux=("z",)))
    ds2 = from_columns(shuffled, Schema(aux=("z",)))
    np.testing.assert_array_equal(ds1.y, ds2.y)
    np.testing.assert_array_equal(ds1.a, ds2.a)


def test_feature_spec_intercept_once():
    ds = build_panel(2, 3, schema=Schema(moderators=(), aux=("z",)))
    assert ds.f_names == ("1",)
    assert np.all(ds.f == 1.0)


def test_dataset_arrays_immutable(small_panel):
    with pytest.raises(ValueError):
        small_panel.y[0] = 99.0
    with pytest.raises(ValueError):
        small_panel.f[0, 0] = 2.0


def test_from_columns_leaves_caller_arrays_writeable():
    cols = panel_from_arrays(3, 4)
    cols["subject_id"] = cols["subject_id"].astype(float)
    ds = from_columns(cols, Schema(aux=("z",)))
    for name in ("subject_id", "t", "a", "p", "y", "z"):
        assert cols[name].flags.writeable, name
    assert np.shares_memory(ds.columns["z"], cols["z"])      # a view, not a copy
    with pytest.raises(ValueError):
        ds.columns["z"][0] = 1.0
    with pytest.raises(ValueError):
        ds.subject_ids[0] = 9.0


@pytest.mark.parametrize("kind, lag", [("lagged_eq12", 2), ("nonmoderator_robust", 3)])
def test_columns_rebuild_the_panel_at_its_lag(kind, lag):
    # columns hold the outcome as supplied, so a rebuild aligns it once, not twice
    ds = gen_panel(DgmSpec(kind=kind, n=12, horizon=6, beta0=-0.2, seed=4))
    if ds.lag != lag:
        ds = from_columns(ds.columns, ds.schema, lag=lag)
    again = from_columns(ds.columns, ds.schema, lag=ds.lag)
    np.testing.assert_array_equal(again.y, ds.y)
    np.testing.assert_array_equal(again.y_raw, ds.y_raw)
    assert again.fingerprint() == ds.fingerprint()


def test_columns_are_the_columns_supplied():
    cols = panel_from_arrays(3, 4)
    ds = from_columns(cols, Schema(aux=("z",)), lag=2)
    assert set(ds.columns) == set(cols)
    np.testing.assert_array_equal(ds.columns["y"], cols["y"])
    assert ds.y_raw is ds.columns["y"]
    for name in ("a", "t"):
        assert getattr(ds, name).dtype == np.float64
        assert np.shares_memory(getattr(ds, name), ds.columns[name]), name


def test_columns_mapping_is_read_only_and_pickles():
    # a write through columns would change the panel under its cached blocks
    ds = gen_panel(DgmSpec(kind="proximal_j2", n=12, horizon=6, beta0=-0.2, seed=4))
    fingerprint, weight_w = ds.fingerprint(), ds.weight_w
    with pytest.raises(TypeError):
        ds.columns["a"] = 1 - ds.columns["a"]
    with pytest.raises(TypeError):
        del ds.columns["a"]
    assert ds.fingerprint() == fingerprint and ds.weight_w is weight_w
    again = pickle.loads(pickle.dumps(ds))
    assert again.fingerprint() == fingerprint
    copy = {**ds.columns}
    assert copy.keys() == ds.columns.keys() and copy["a"] is ds.columns["a"]


def test_unpickled_dataset_is_rebuilt_read_only_with_its_views():
    # an unpickled panel goes through from_columns: its columns are read-only,
    # the constant roles are zero-stride broadcasts again, z views its column,
    # and a fit on it is the original fit, bit for bit
    ds = gen_panel(DgmSpec(kind="lagged_eq12", n=30, horizon=8, beta1=0.5, seed=5))
    config = EstimatorConfig(method="a2wcls_lagged", lag=ds.lag, variance_mode="stacked")
    before = fit(ds, config)
    again = pickle.loads(pickle.dumps(ds))
    assert again.columns.keys() == ds.columns.keys()
    for name, col in again.columns.items():
        assert not col.flags.writeable, name
        assert col.tobytes() == ds.columns[name].tobytes(), name
    assert not any(again.f.strides) and not any(again.p_tilde.strides)
    assert np.shares_memory(again.z, again.columns["z"])
    after = fit(again, config)
    assert after.estimates.tobytes() == before.estimates.tobytes()
    assert after.vcov.tobytes() == before.vcov.tobytes()


def test_roles_are_read_from_columns_and_schema():
    # a dataset stores what it was given; every role and its names are read from it
    assert [f.name for f in dataclasses.fields(MrtDataset)] == \
        ["columns", "schema", "lag", "n_subjects", "horizon"]
    schema = Schema(moderators=("g1",), aux=("z",), controls=("z", "g1"))
    ds = from_columns(panel_from_arrays(4, 5), schema, lag=2)
    ones = np.ones(ds.n_rows)
    for arr, names in ((ds.f, schema.moderators), (ds.g, schema.controls)):
        np.testing.assert_array_equal(arr, np.column_stack([ones, *(ds.columns[n] for n in names)]))
        assert not arr.flags.writeable
    assert (ds.f_names, ds.z_names, ds.g_names) == (("1", "g1"), ("z",), ("1", "z", "g1"))
    assert np.shares_memory(ds.z, ds.columns["z"]) and not ds.z.flags.writeable
    again = pickle.loads(pickle.dumps(ds))
    for role in ("f", "z", "g", "p_tilde"):
        old, new = getattr(ds, role), getattr(again, role)
        assert new.shape == old.shape and new.tobytes() == old.tobytes(), role

    lagged = gen_panel(DgmSpec(kind="lagged_eq12", n=10, horizon=6, beta1=0.5, seed=2))
    naive = lagged.with_schema(Schema(aux=("z",), controls=("a_next", "z_next")))
    assert naive.g_names == ("1", "a_next", "z_next") and lagged.g_names == ("1",)
    np.testing.assert_array_equal(
        naive.g, np.column_stack([np.ones(naive.n_rows), naive.columns["a_next"],
                                  naive.columns["z_next"]]))
    assert naive.lag == lagged.lag       # the same panel, not a copy of it
    assert np.shares_memory(naive.columns["a_next"], lagged.columns["a_next"])


def test_from_columns_without_p_is_missing_column():
    cols = panel_from_arrays(2, 3)
    del cols["p"]
    with pytest.raises(errors.MissingColumn, match="required column 'p' not found"):
        from_columns(cols, Schema())


def test_unequal_panel_lengths_name_shortest_subject():
    # after sorting: "a" has 3 rows, "b" 2 and "c" 3; 8 rows do not split evenly
    ids = np.array(["c"] * 3 + ["b"] * 2 + ["a"] * 3)
    t = np.array([1, 2, 3, 1, 2, 1, 2, 3])
    cols = {"subject_id": ids, "t": t, "a": np.tile([0.0, 1.0], 4),
            "p": np.full(8, 0.5), "y": np.zeros(8)}
    with pytest.raises(errors.NonContiguousTime, match="unequal panel lengths") as exc:
        from_columns(cols, Schema())
    assert exc.value.subject_id == "b" and exc.value.t == -1


def test_unequal_lengths_dividing_row_count_name_shortest_subject():
    # 6 rows over 2 subjects split evenly, but "A" has 2 rows and "B" 4
    cols = {"subject_id": np.array(["A"] * 2 + ["B"] * 4),
            "t": np.array([1, 2, 1, 2, 3, 4]), "a": np.tile([0.0, 1.0], 3),
            "p": np.full(6, 0.5), "y": np.zeros(6)}
    with pytest.raises(errors.NonContiguousTime, match="unequal panel lengths") as exc:
        from_columns(cols, Schema())
    assert exc.value.subject_id == "A" and exc.value.t == -1


def csv_oracle(path, schema):
    """The dataset a plain ``csv`` read gives, every numeric token through ``float()``."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    cols = {name: [r[j] for r in rows] for j, name in enumerate(header)}
    cols = {k: np.array(v, dtype=str) if k == "subject_id" else np.array([float(x) for x in v])
            for k, v in cols.items()}
    return from_columns(cols, schema)


def assert_same_dataset(ds1, ds2):
    for field in ("subject_ids", "t", "a", "p", "y", "y_raw", "f", "z", "g", "p_tilde"):
        a1, a2 = getattr(ds1, field), getattr(ds2, field)
        assert a1.dtype == a2.dtype, field
        np.testing.assert_array_equal(a1, a2)
    assert ds1.columns.keys() == ds2.columns.keys()
    for k in ds1.columns:
        np.testing.assert_array_equal(ds1.columns[k], ds2.columns[k])


def csv_lines(ids=None):
    ids = ids or [r[0] for r in GOOD_ROWS]
    return [",".join(HEADER)] + [",".join(str(v) for v in [sid] + r[1:])
                                 for sid, r in zip(ids, GOOD_ROWS)]


def write_lines(path, lines, newline="\n"):
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(lines) + newline)


def _insert(lines, i, text):
    return lines[:i] + [text] + lines[i:]


def _set(lines, i, text):
    return lines[:i] + [text] + lines[i + 1:]


@pytest.mark.parametrize("edit,message", [
    (lambda ls: _insert(ls, 3, ""), "row 4 has 0 fields, expected 6"),
    (lambda ls: ls + [""], "row 8 has 0 fields, expected 6"),
    (lambda ls: _insert(ls, 2, "   "), "row 3 has 1 fields, expected 6"),
    (lambda ls: _set(ls, 3, ls[3] + ",9"), "row 4 has 7 fields, expected 6"),
    (lambda ls: _set(ls, 5, ls[5].rsplit(",", 1)[0]), "row 6 has 5 fields, expected 6"),
    (lambda ls: _set(ls, 1, ls[1].rsplit(",", 1)[0]), "row 2 has 5 fields, expected 6"),
    (lambda ls: _set(ls, 1, ls[1] + ",9"), "row 2 has 7 fields, expected 6"),
    (lambda ls: ls[:1] + [line.rsplit(",", 1)[0] for line in ls[1:]],
     "row 2 has 5 fields, expected 6"),
], ids=["blank", "blank_trailing", "whitespace_only", "too_many", "too_few",
        "first_too_few", "first_too_many", "every_row_too_few"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_field_count_errors_name_file_row(tmp_path, edit, message, newline):
    path = tmp_path / "panel.csv"
    write_lines(path, edit(csv_lines()), newline=newline)
    with pytest.raises(errors.MissingValue, match=message):
        load_csv(path, Schema(aux=("z",)), lag=1)


def _reordered(lines):
    return lines[:1] + [lines[1 + i] for i in [4, 0, 5, 2, 3, 1]]


def _two_line_header(lines):
    # a quoted header name over two physical lines: the data start on the third
    return [lines[0] + ',"w\nx"'] + [f"{line},{i}.5" for i, line in enumerate(lines[1:])]


@pytest.mark.parametrize("ids,newline,edit", [
    (["#1"] * 3 + ["#2"] * 3, "\n", None),
    (['"a,1"'] * 3 + ['"b,""2"""'] * 3, "\n", None),
    ([" 1"] * 3 + ["1"] * 3, "\n", None),
    (["s10"] * 3 + ["s9"] * 3, "\n", _reordered),
    (['"a\n\nb"'] * 3 + ["b"] * 3, "\n", None),
    (None, "\r\n", None),
    (['"a\r\nb"'] * 3 + ['"c\rd"'] * 3, "\r\n", None),
    (None, "\n", _two_line_header),
], ids=["hash_ids", "quoted_commas", "spaced_ids", "shuffled_string_ids",
        "quoted_blank_line", "crlf", "quoted_carriage_returns", "two_line_header"])
def test_loader_matches_csv_oracle(tmp_path, ids, newline, edit):
    lines = csv_lines(ids)
    if edit is not None:
        lines = edit(lines)
    path = tmp_path / "panel.csv"
    write_lines(path, lines, newline=newline)
    schema = Schema(aux=("z",))
    ds = load_csv(path, schema, lag=1)
    assert ds.n_subjects == 2 and ds.horizon == 3
    assert_same_dataset(ds, csv_oracle(path, schema))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_csv_named_like_an_archive_loads_as_text(tmp_path, suffix):
    # loadtxt would decompress a path with this suffix; the file is plain text
    path = tmp_path / f"panel.csv{suffix}"
    write_lines(path, csv_lines())
    assert_same_dataset(load_csv(path, Schema(aux=("z",)), lag=1),
                        csv_oracle(path, Schema(aux=("z",))))


def write_benchmark_panel(path, n, horizon):
    """A nonmoderator_robust panel, written the way the fit_csv benchmark writes it."""
    ds = gen_panel(DgmSpec(kind="nonmoderator_robust", n=n, horizon=horizon,
                           beta0=-0.2, seed=20240901))
    data = np.column_stack([ds.subject_ids, ds.t, ds.a, ds.p, ds.y_raw, ds.columns["z"]])
    with open(path, "w") as fh:
        fh.write("subject_id,t,a,p,y,z\n")
        np.savetxt(fh, data, fmt=["%d", "%d", "%d", "%.17g", "%.17g", "%.17g"],
                   delimiter=",")


def test_every_float_is_python_float(tmp_path):
    path = tmp_path / "panel.csv"
    write_benchmark_panel(path, 60, 10)
    schema = Schema(aux=("z",), controls=("z",))
    loaded = load_csv(path, schema, lag=1)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    order = np.lexsort((np.array([float(r[1]) for r in rows]), np.array([r[0] for r in rows])))
    for j, name in enumerate(header[1:], 1):
        expected = np.array([float(rows[i][j]) for i in order])
        got = loaded.columns[name]
        assert got.tobytes() == expected.tobytes(), name


def test_load_csv_peak_bytes_per_field(tmp_path):
    # a parse that holds a Python string per field peaks near 80 B per field;
    # the typed parse, which makes one only per subject_id, near 35 B
    n, horizon = 200, 100
    path = tmp_path / "panel.csv"
    write_benchmark_panel(path, n, horizon)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        load_csv(path, Schema(aux=("z",), controls=("z",)), lag=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (n * horizon * 6) < 60


def test_header_only_csv_is_missing_value(tmp_path):
    path = tmp_path / "panel.csv"
    write_lines(path, csv_lines()[:1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.MissingValue, match="no data rows"):
            load_csv(path, Schema(aux=("z",)), lag=1)


def test_empty_columns_are_missing_value():
    cols = {k: np.asarray(v)[:0] for k, v in panel_from_arrays(2, 3).items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.MissingValue, match="no data rows"):
            from_columns(cols, Schema(aux=("z",)))


def test_lag_beyond_horizon_rejected_at_build():
    cols = panel_from_arrays(5, 3)
    with pytest.raises(errors.LagHorizonExceeded, match="lag 4 exceeds panel horizon 3"):
        from_columns(cols, Schema(aux=("z",)), lag=4)
    assert from_columns(cols, Schema(aux=("z",)), lag=3).n_usable == 1


@pytest.mark.parametrize("role", ["moderators", "aux", "controls"])
def test_schema_rejects_bare_string(role):
    # tuple("zz") would silently give two columns named "z"
    with pytest.raises(errors.DimensionMismatch, match=f"Schema.{role}"):
        Schema(**{role: "zz"})
    assert getattr(Schema(**{role: ["zz"]}), role) == ("zz",)


@pytest.mark.parametrize("lag", [1, 2])
def test_non_finite_outcome_names_its_own_row(lag):
    # the supplied y row at t = 4 feeds aligned row t = 4 - (lag - 1); the
    # error names the supplied row, as load_csv does
    cols = panel_from_arrays(3, 6)
    cols["y"][3] = np.nan               # subject 1, t = 4
    with pytest.raises(errors.MissingValue, match="non-finite value in y") as exc:
        from_columns(cols, Schema(aux=("z",)), lag=lag)
    assert exc.value.subject_id == 1 and exc.value.t == 4


def test_unread_outcome_row_is_not_checked():
    # at lag 2 no usable aligned row reads the supplied y at t = 1
    cols = panel_from_arrays(3, 6)
    cols["y"][6] = np.nan               # subject 2, t = 1
    assert from_columns(cols, Schema(aux=("z",)), lag=2).n_usable == 5
    with pytest.raises(errors.MissingValue):
        from_columns(cols, Schema(aux=("z",)), lag=1)


def test_ptilde_of_one_names_subject_and_t():
    cols = panel_from_arrays(3, 4, ptilde=np.full(12, 0.5))
    cols["ptilde"][6] = 1.0             # subject 2, t = 3
    with pytest.raises(errors.ProbabilityOutOfRange, match="p_tilde") as exc:
        from_columns(cols, Schema(aux=("z",), ptilde="ptilde"))
    assert exc.value.subject_id == 2 and exc.value.t == 3


@pytest.mark.parametrize("arm", [0.0, 1.0])
def test_pooled_ptilde_out_of_range_names_first_row(arm):
    # every decision on one arm: the pooled p_tilde, one value broadcast over the
    # rows, is 0 or 1, and the error names the first row after sorting
    cols = panel_from_arrays(3, 4, a=np.full(12, arm))
    cols["subject_id"] = np.array(["c"] * 4 + ["a"] * 4 + ["b"] * 4)
    cols["t"] = np.tile([2, 1, 4, 3], 3)
    with pytest.raises(errors.ProbabilityOutOfRange,
                       match=r"weight numerator p_tilde must lie in \(0,1\)") as exc:
        from_columns(cols, Schema(aux=("z",)))
    assert exc.value.subject_id == "a" and exc.value.t == 1


@pytest.mark.parametrize("method", ["wcls", "a2wcls"])
def test_subnormal_probability_is_refused_without_warning(method):
    # a p below the smallest normal float64 would overflow the weight p_tilde / p:
    # the panel is refused at its first such row, and no numpy warning leaks
    a = np.ones(24)
    a[::5] = 0.0
    cols = panel_from_arrays(8, 3, a=a, p=np.full(24, 1e-320))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ProbabilityOutOfRange, match="p must lie in") as exc:
            fit(from_columns(cols, Schema(aux=("z",))), EstimatorConfig(method=method))
        assert exc.value.subject_id == 1 and exc.value.t == 1
        # the smallest normal p is accepted; its weight stays finite, and the fit
        # refuses the Gram that overflows with a typed error
        cols["p"] = np.full(24, np.finfo(float).tiny)
        with pytest.raises(errors.SingularGram, match="non-finite"):
            fit(from_columns(cols, Schema(aux=("z",))), EstimatorConfig(method=method))


def test_nan_auxiliary_names_subject_and_t():
    cols = panel_from_arrays(3, 4)
    cols["z"][9] = np.nan               # subject 3, t = 2
    with pytest.raises(errors.MissingValue, match="non-finite value in z") as exc:
        from_columns(cols, Schema(aux=("z",)))
    assert exc.value.subject_id == 3 and exc.value.t == 2


@pytest.mark.parametrize("role", ["moderators", "aux", "controls", "ptilde"])
def test_schema_naming_absent_column_is_missing_column(role):
    cols = panel_from_arrays(3, 4)
    schema = Schema(**{role: "absent" if role == "ptilde" else ("absent",)})
    with pytest.raises(errors.MissingColumn, match="'absent'"):
        from_columns(cols, schema)


def test_lag_zero_is_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch, match="lag must be >= 1, got 0"):
        from_columns(panel_from_arrays(3, 4), Schema(aux=("z",)), lag=0)
