"""Panel data structures for micro-randomized-trial analyses.

The long format is one row per (subject, decision point). A validated
:class:`MrtDataset` stores every named column once and materializes the
paper's four design roles from a :class:`Schema`: the moderator features
``f = [1, *moderators]``, the auxiliary variables ``z``, the control
features ``g = [1, *controls]`` and the weight numerator ``p_tilde``. The
same panel can be re-viewed under another schema without copying data.

Outcome alignment: the ``y`` column supplied at load time is the proximal
series (row ``t`` holds the outcome observed right after decision ``t``).
For a lag-``delta`` analysis the column is shifted once at construction so
row ``t`` carries the outcome ``delta`` steps ahead. Rows with
``t > T - delta + 1`` stay in the panel for bookkeeping; pooled fits read
only the usable rows, through :meth:`MrtDataset.usable`, which is the
column itself at lag 1.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    LagHorizonExceeded,
    MissingColumn,
    MissingValue,
    NonBinaryTreatment,
    NonContiguousTime,
    ProbabilityOutOfRange,
)

BASE_COLUMNS = ("subject_id", "t", "a", "p", "y")


@dataclass(frozen=True)
class Schema:
    """The paper's column roles: moderators ``f(S_t)``, auxiliary variables
    ``Z_t``, controls ``g(H_t)`` and the weight-numerator column ``p~``.

    ``f`` and ``g`` each get a leading intercept; without ``ptilde`` the
    numerator is the pooled treatment frequency.
    """

    moderators: tuple[str, ...] = ()
    aux: tuple[str, ...] = ()
    controls: tuple[str, ...] = ()
    ptilde: str | None = None

    def __post_init__(self):
        for role in ("moderators", "aux", "controls"):
            names = getattr(self, role)
            if isinstance(names, str):     # tuple() would split it into characters
                raise DimensionMismatch(f"Schema.{role} takes a sequence of column "
                                        f"names, not the string {names!r}")
            object.__setattr__(self, role, tuple(names))


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous view of ``arr``; ``arr``'s own flags are left alone."""
    view = np.ascontiguousarray(arr).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class MrtDataset:
    """Immutable long-format panel, sorted by subject then decision index.

    All subjects share the same horizon ``T``; rows are stored subject-major
    so any per-row column reshapes to ``(n_subjects, horizon)``. The design
    blocks ``centered_a`` and ``weight_w`` are cached on first read.
    """

    subject_ids: np.ndarray
    t: np.ndarray
    a: np.ndarray
    p: np.ndarray
    y: np.ndarray          # aligned: row t holds the lag-delta outcome
    y_raw: np.ndarray      # proximal series as supplied (round-trip fidelity)
    f: np.ndarray          # (rows, q) moderator features, intercept included
    z: np.ndarray          # (rows, p_z) auxiliary variables
    g: np.ndarray          # (rows, d) control features
    p_tilde: np.ndarray
    n_subjects: int
    horizon: int
    lag: int
    schema: Schema
    columns: Mapping[str, np.ndarray] = field(repr=False)
    f_names: tuple[str, ...] = ()
    z_names: tuple[str, ...] = ()
    g_names: tuple[str, ...] = ()

    @property
    def n_rows(self) -> int:
        return self.subject_ids.shape[0]

    @property
    def q(self) -> int:
        return self.f.shape[1]

    @property
    def p_z(self) -> int:
        return self.z.shape[1]

    @property
    def d(self) -> int:
        return self.g.shape[1]

    @property
    def usable_mask(self) -> np.ndarray:
        return self.t <= self.horizon - self.lag + 1

    @property
    def n_usable(self) -> int:
        return self.horizon - self.lag + 1

    @cached_property
    def centered_a(self) -> np.ndarray:
        """Treatment centered at the weight numerator, ``a - p_tilde``."""
        return _as_readonly(self.a.astype(float) - self.p_tilde)

    @cached_property
    def weight_w(self) -> np.ndarray:
        """Likelihood-ratio weight ``p_tilde(a|s) / p(a|h)`` at the observed arm."""
        a = self.a.astype(float)
        num = np.where(a == 1.0, self.p_tilde, 1.0 - self.p_tilde)
        den = np.where(a == 1.0, self.p, 1.0 - self.p)
        return _as_readonly(num / den)

    def per_subject(self, arr: np.ndarray) -> np.ndarray:
        """Reshape a row-aligned array to (n_subjects, horizon, ...)."""
        return arr.reshape((self.n_subjects, self.horizon) + arr.shape[1:])

    def usable(self, arr: np.ndarray, steps: int = 0) -> np.ndarray:
        """Usable rows (``t <= n_usable``) of ``arr``, each read ``steps`` ahead.

        Row t of the result holds the subject's value at ``t + steps``
        (``steps < lag``). At lag 1 this is ``arr`` itself, not a copy.
        """
        if self.n_usable == self.horizon:
            return arr
        block = self.per_subject(arr)[:, steps: steps + self.n_usable]
        return block.reshape((-1,) + arr.shape[1:])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for arr in (self.subject_ids, self.t, self.a, self.p, self.y,
                    self.f, self.z, self.g, self.p_tilde):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]

    def with_schema(self, schema: Schema) -> "MrtDataset":
        """Re-view the same panel under a different role mapping."""
        return _build_dataset({**self.columns, "y": self.columns["y_raw"]}, schema, self.lag)


def _column_matrix(columns: Mapping[str, np.ndarray], names: tuple[str, ...],
                   intercept: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    for name in names:
        if name not in columns:
            raise MissingColumn(f"column {name!r} not found")
    n_rows = columns["t"].shape[0]
    cols = [columns[name] for name in names]
    if intercept:
        cols, names = [np.ones(n_rows), *cols], ("1", *names)
    if not cols:
        return np.empty((n_rows, 0)), ()
    return np.column_stack(cols), names


def _numeric(columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every column but ``subject_id`` as float; the first non-number is a
    :class:`MissingValue` at its subject and ``t``."""
    for name in BASE_COLUMNS:
        if name not in columns:
            raise MissingColumn(f"required column {name!r} not found")
    out = {}
    for name, col in columns.items():
        col = np.asarray(col)
        if name != "subject_id":
            try:
                col = col.astype(float, copy=False)
            except (TypeError, ValueError):
                i = _first_non_number(col)
                raise MissingValue(f"non-numeric value {str(col[i])!r} in column {name!r}",
                                   columns["subject_id"][i], _row_t(columns, i)) from None
        out[name] = col
    return out


def _first_non_number(col) -> int:
    """Index of the first token ``float`` refuses (called once a cast has failed)."""
    for i, token in enumerate(col):
        try:
            float(token)
        except (TypeError, ValueError):
            return i


def _first_bad(mask: np.ndarray, subject: np.ndarray, t: np.ndarray):
    i = int(np.argmax(mask))
    return subject[i], int(t[i])


def _build_dataset(columns: Mapping[str, np.ndarray], schema: Schema,
                   lag: int) -> MrtDataset:
    if lag < 1:
        raise DimensionMismatch(f"lag must be >= 1, got {lag}")
    columns = _numeric(columns)
    subject, t, a, p, y = (columns[name] for name in BASE_COLUMNS)
    n_rows = subject.shape[0]
    if n_rows == 0:
        raise MissingValue("no data rows")

    # O(n) order check; the stable lexsort keeps rows with equal keys in input order
    same = subject[1:] == subject[:-1]
    if not ((subject[1:] > subject[:-1]) | (same & (t[1:] >= t[:-1]))).all():
        order = np.lexsort((t, subject))
        columns = {k: v[order] for k, v in columns.items()}
        subject, t, a, p, y = (columns[name] for name in BASE_COLUMNS)

    bad = ~np.isin(a, (0.0, 1.0))
    if bad.any():
        sid, tt = _first_bad(bad, subject, t)
        raise NonBinaryTreatment("treatment a must be 0 or 1", sid, tt)
    bad = ~((p > 0.0) & (p < 1.0))
    if bad.any():
        sid, tt = _first_bad(bad, subject, t)
        raise ProbabilityOutOfRange("randomization probability p must lie in (0,1)", sid, tt)

    # rows are sorted, so each subject's run starts where the id changes
    starts = np.flatnonzero(np.concatenate(([True], subject[1:] != subject[:-1])))
    n_subjects = starts.shape[0]
    lengths = np.diff(np.append(starts, n_rows))
    if (lengths != lengths[0]).any():
        sid = subject[starts[np.argmin(lengths)]]
        raise NonContiguousTime("subjects have unequal panel lengths", sid, -1)
    horizon = int(lengths[0])
    t_mat = t.reshape(n_subjects, horizon)
    expected = np.arange(1, horizon + 1)
    bad_rows = (t_mat != expected[None, :]).any(axis=1)
    if bad_rows.any():
        j = int(np.argmax(bad_rows))
        k = int(np.argmax(t_mat[j] != expected))
        raise NonContiguousTime("t must be contiguous from 1 within subject",
                                subject[starts[j]], int(t_mat[j, k]))
    if lag > horizon:
        raise LagHorizonExceeded(f"lag {lag} exceeds panel horizon {horizon}")

    y_raw = y
    if lag > 1:
        # shift within subject: aligned row t <- raw row t + (lag - 1)
        y_mat = y.reshape(n_subjects, horizon)
        aligned = np.zeros_like(y_mat)
        aligned[:, : horizon - (lag - 1)] = y_mat[:, lag - 1:]
        y = aligned.reshape(-1)

    usable = t <= horizon - lag + 1
    f, f_names = _column_matrix(columns, schema.moderators, True)
    z, z_names = _column_matrix(columns, schema.aux, False)
    g, g_names = _column_matrix(columns, schema.controls, True)
    if schema.ptilde is None:
        # legal default numerator: pooled treatment frequency, constant in t
        p_tilde = np.full(n_rows, float(np.mean(a)))
    else:
        p_tilde = _column_matrix(columns, (schema.ptilde,), False)[0][:, 0]
    bad = ~((p_tilde > 0.0) & (p_tilde < 1.0))
    if bad.any():
        sid, tt = _first_bad(bad, subject, t)
        raise ProbabilityOutOfRange("weight numerator p_tilde must lie in (0,1)", sid, tt)

    for label, arr in (("y", y[usable]), ("z", z), ("f", f), ("g", g)):
        if arr.size and not np.isfinite(arr).all():
            flat = np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1)
            idx = np.arange(n_rows)[usable] if label == "y" else np.arange(arr.shape[0])
            i = int(idx[np.argmax(~flat)])
            raise MissingValue(f"non-finite value in {label}", subject[i], int(t[i]))

    keep = dict(columns)
    keep["y_raw"] = y_raw
    keep["y"] = y
    return MrtDataset(
        subject_ids=_as_readonly(subject),
        t=_as_readonly(t.astype(int)),
        a=_as_readonly(a.astype(int)),
        p=_as_readonly(p),
        y=_as_readonly(y),
        y_raw=_as_readonly(y_raw),
        f=_as_readonly(f),
        z=_as_readonly(z),
        g=_as_readonly(g),
        p_tilde=_as_readonly(p_tilde),
        n_subjects=n_subjects,
        horizon=horizon,
        lag=lag,
        schema=schema,
        columns={k: _as_readonly(v) for k, v in keep.items()},
        f_names=f_names,
        z_names=z_names,
        g_names=g_names,
    )


def from_columns(columns: Mapping[str, np.ndarray], schema: Schema,
                 lag: int = 1) -> MrtDataset:
    """Build and validate a dataset from in-memory columns.

    ``y`` is the raw proximal series, aligned to ``lag`` here as in
    :func:`load_csv`.
    """
    return _build_dataset(columns, schema, lag)


def _row_t(raw: Mapping[str, np.ndarray], i: int):
    """``t`` of CSV data row ``i``, or its raw token when ``t`` itself is bad."""
    try:
        return int(float(raw["t"][i]))
    except (TypeError, ValueError, OverflowError):
        return raw["t"][i]


def _field_count_error(path, width: int) -> MissingValue | None:
    """Re-scan ``path`` with ``csv`` for the first row without ``width`` fields."""
    with open(path, newline="") as fh:
        for row, fields in enumerate(csv.reader(fh), 1):
            if row > 1 and len(fields) != width:
                return MissingValue(f"row {row} has {len(fields)} fields, expected {width}")
    return None


def _data_lines(fh, path, width: int):
    """``fh``'s remaining lines; a blank one, which loadtxt skips, is re-checked by ``csv``."""
    for line in fh:
        if line[0] in "\r\n":         # only a blank line starts with its terminator
            error = _field_count_error(path, width)
            if error is not None:
                raise error
        yield line


def load_csv(path, schema: Schema, lag: int = 1) -> MrtDataset:
    """Load a long-format CSV and return a validated :class:`MrtDataset`.

    The header must name ``subject_id, t, a, p, y`` plus every column
    referenced by ``schema``. Every row must have as many fields as the
    header; a blank line is a row with none. Non-finite tokens (NaN, Inf)
    are rejected.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise MissingColumn("empty CSV file") from None
        header = [h.strip() for h in header]
        needed = {*BASE_COLUMNS, *schema.moderators, *schema.aux, *schema.controls,
                  schema.ptilde} - {None}
        for name in sorted(needed):
            if name not in header:
                raise MissingColumn(f"required column {name!r} not in CSV header")
        lines = _data_lines(fh, path, len(header))
        first = next(lines, None)
        if first is None:
            raise MissingValue("no data rows")
        try:
            # dtype=object keeps each field as csv reads it (quotes; '#' is data)
            cells = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                               dtype=object, comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:   # a row's field count differs from the first's
            raise _field_count_error(path, len(header)) or exc from None
    if cells.shape[1] != len(header):
        raise _field_count_error(path, len(header))
    raw = {name: cells[:, j] for j, name in enumerate(header)}

    columns: dict[str, np.ndarray] = {}
    for name in header:
        if name == "subject_id":
            columns[name] = raw[name].astype(str)
            continue
        try:
            vals = raw[name].astype(float)
        except ValueError:
            i = _first_non_number(raw[name])
            raise MissingValue(f"unparsable value {raw[name][i]!r} in column {name!r} "
                               f"at row {i + 2}", raw["subject_id"][i], _row_t(raw, i)) from None
        if name in needed and not np.all(np.isfinite(vals)):
            i = int(np.argmax(~np.isfinite(vals)))
            raise MissingValue(f"non-finite value in column {name!r} at row {i + 2}",
                               raw["subject_id"][i], _row_t(raw, i))
        columns[name] = vals
    return _build_dataset(columns, schema, lag)


def to_csv(ds: MrtDataset, path) -> None:
    """Serialize a dataset back to CSV, reproducing numeric fields exactly.

    The ``y`` column written is the raw proximal series (what ``load_csv``
    consumes), so a load/serialize round trip is bit-faithful.
    """
    names = ["subject_id", "t", "a", "p", "y"]
    extra = [n for n in ds.columns
             if n not in names and n not in ("y_raw", "y")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + extra)
        for i in range(ds.n_rows):
            row = [str(ds.subject_ids[i]), repr(int(ds.t[i])), repr(int(ds.a[i])),
                   repr(float(ds.p[i])), repr(float(ds.y_raw[i]))]
            row += [repr(float(ds.columns[n][i])) for n in extra]
            writer.writerow(row)
