import numpy as np
import pytest

from mrtx import errors
from mrtx.data import (
    FeatureSpec,
    design_blocks,
    from_columns,
    load_csv,
    moderator_schema,
    to_csv,
)

from conftest import build_panel, panel_from_arrays


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
    ds = load_csv(path, moderator_schema(aux=("z",)), lag=1)
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
        load_csv(path, moderator_schema(aux=("z",)), lag=1)
    assert exc.value.subject_id == "1" and exc.value.t == 2


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_time_is_missing_value(tmp_path, token):
    rows = [list(r) for r in GOOD_ROWS]
    rows[4][1] = token
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.MissingValue, match="row 6") as exc:
        load_csv(path, moderator_schema(aux=("z",)), lag=1)
    assert exc.value.subject_id == "2" and exc.value.t == token


def test_non_contiguous_time(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows = [rows[0], rows[2]] + rows[3:5]          # subject 1 has t = (1, 3)
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.NonContiguousTime):
        load_csv(path, moderator_schema(aux=("z",)), lag=1)


def test_missing_column(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER[:-1], [r[:-1] for r in GOOD_ROWS])
    with pytest.raises(errors.MissingColumn):
        load_csv(path, moderator_schema(aux=("z",)), lag=1)


def test_non_binary_treatment(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows[0][2] = 2
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.NonBinaryTreatment):
        load_csv(path, moderator_schema(aux=("z",)), lag=1)


def test_nan_rejected(tmp_path):
    rows = [list(r) for r in GOOD_ROWS]
    rows[3][4] = "NaN"
    path = tmp_path / "panel.csv"
    write_csv(path, HEADER, rows)
    with pytest.raises(errors.MissingValue):
        load_csv(path, moderator_schema(aux=("z",)), lag=1)


def test_weight_examples():
    # direct evaluation of the weight-ratio definition
    ds = build_panel(2, 2, a=[1, 0, 1, 0], p=[0.25, 0.25, 0.5, 0.5],
                     ptilde=[0.5] * 4,
                     schema=moderator_schema(aux=("z",), ptilde="ptilde"))
    blocks = design_blocks(ds)
    assert blocks.weight_w[0] == pytest.approx(0.5 / 0.25)           # a=1
    assert blocks.weight_w[1] == pytest.approx((1 - 0.5) / (1 - 0.25))  # a=0
    assert blocks.centered_a[0] == pytest.approx(0.5)
    assert blocks.centered_a[1] == pytest.approx(-0.5)


def test_weight_unity_when_numerator_matches():
    p = np.clip(np.random.default_rng(1).random(12), 0.05, 0.95)
    ds = build_panel(3, 4, p=p, ptilde=p,
                     schema=moderator_schema(aux=("z",), ptilde="ptilde"))
    blocks = design_blocks(ds)
    np.testing.assert_allclose(blocks.weight_w, 1.0)


def test_weights_positive_finite(small_panel):
    blocks = design_blocks(small_panel)
    assert np.all(blocks.weight_w > 0)
    assert np.all(np.isfinite(blocks.weight_w))


def test_design_blocks_deterministic(small_panel):
    b1 = design_blocks(small_panel)
    b2 = design_blocks(small_panel)
    np.testing.assert_array_equal(b1.weight_w, b2.weight_w)
    np.testing.assert_array_equal(b1.centered_a, b2.centered_a)


def test_default_ptilde_is_pooled_mean():
    ds = build_panel(4, 5, seed=9)
    assert np.all(ds.p_tilde == ds.a.mean())


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
    ds = load_csv(path, moderator_schema(aux=("z",)), lag=1)
    out = tmp_path / "copy.csv"
    to_csv(ds, out)
    ds2 = load_csv(out, moderator_schema(aux=("z",)), lag=1)
    for field in ("t", "a", "p", "y", "y_raw", "z"):
        np.testing.assert_array_equal(getattr(ds, field), getattr(ds2, field))


def test_lag_alignment_shifts_within_subject():
    y = np.arange(1.0, 9.0)          # subject 1: 1..4, subject 2: 5..8
    ds = build_panel(2, 4, lag=2, y=y)
    # aligned row t carries the raw proximal value from row t+1
    np.testing.assert_array_equal(ds.y[:3], [2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ds.y[4:7], [6.0, 7.0, 8.0])
    np.testing.assert_array_equal(ds.y_raw, y)
    assert ds.usable_mask.sum() == 2 * 3


def test_row_order_is_canonicalized():
    cols = panel_from_arrays(3, 4, seed=5)
    order = np.random.default_rng(0).permutation(12)
    shuffled = {k: np.asarray(v)[order] for k, v in cols.items()}
    ds1 = from_columns(cols, moderator_schema(aux=("z",)))
    ds2 = from_columns(shuffled, moderator_schema(aux=("z",)))
    np.testing.assert_array_equal(ds1.y, ds2.y)
    np.testing.assert_array_equal(ds1.a, ds2.a)


def test_feature_spec_intercept_once():
    ds = build_panel(2, 3, schema=moderator_schema(moderators=(), aux=("z",)))
    assert ds.f_names == ("1",)
    assert np.all(ds.f == 1.0)


def test_bad_role_rejected():
    with pytest.raises(errors.DimensionMismatch):
        FeatureSpec("not_a_role", ("z",))


def test_dataset_arrays_immutable(small_panel):
    with pytest.raises(ValueError):
        small_panel.y[0] = 99.0
    with pytest.raises(ValueError):
        small_panel.f[0, 0] = 2.0
