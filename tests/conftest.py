import csv

import numpy as np
import pytest

from mrtx.data import BASE_COLUMNS, Schema, from_columns


def panel_from_arrays(n, T, lag=1, seed=0, **overrides):
    """Small valid panel with optional column overrides (proximal-y input)."""
    rng = np.random.default_rng(seed)
    cols = {
        "subject_id": np.repeat(np.arange(1, n + 1), T),
        "t": np.tile(np.arange(1, T + 1), n),
        "a": rng.integers(0, 2, n * T).astype(float),
        "p": np.full(n * T, 0.5),
        "y": rng.standard_normal(n * T),
        "z": rng.standard_normal(n * T),
        "g1": rng.standard_normal(n * T),
    }
    cols.update({k: np.asarray(v, dtype=float) for k, v in overrides.items()})
    return cols


def build_panel(n, T, lag=1, seed=0, schema=None, **overrides):
    cols = panel_from_arrays(n, T, lag=lag, seed=seed, **overrides)
    if schema is None:
        schema = Schema(aux=("z",), controls=("g1",))
    return from_columns(cols, schema, lag=lag)


def to_csv(ds, path):
    """Write a dataset as the CSV that ``load_csv`` reads: the base columns, then
    the others, ``y`` the proximal series as supplied and every float by its
    ``repr``, so that a write/load round trip is bit-faithful."""
    names = [*BASE_COLUMNS, *(n for n in ds.columns if n not in BASE_COLUMNS)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for sid, t, a, *values in zip(*(ds.columns[n] for n in names)):
            writer.writerow([sid, int(t), int(a), *(repr(float(v)) for v in values)])


@pytest.fixture
def small_panel():
    return build_panel(8, 6, seed=3)
