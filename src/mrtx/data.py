"""Panel data structures for micro-randomized-trial analyses.

The long format is one row per (subject, decision point). A validated
:class:`MrtDataset` stores the columns supplied and a :class:`Schema`, and
reads the paper's four design roles from them: the moderator features
``f = [1, *moderators]``, the auxiliary variables ``z``, the control
features ``g = [1, *controls]`` and the weight numerator ``p_tilde``. The
same panel can be re-viewed under another schema without copying data.

Outcome alignment: the ``y`` column supplied at load time is the proximal
series (row ``t`` holds the outcome observed right after decision ``t``).
``columns["y"]`` keeps it as supplied. For a lag-``delta`` analysis only the
usable rows ``t <= T - delta + 1`` have an outcome ``delta`` steps ahead;
every fit reads the usable rows of a column through :meth:`MrtDataset.usable`,
and :attr:`MrtDataset.y` is the supplied column read that way, ``delta - 1``
steps ahead, on the usable rows only. At lag 1 every row is usable and
``usable`` returns the column itself, not a copy.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

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
_PACKED = (".bz2", ".gz", ".lzma", ".xz")   # suffixes that loadtxt decompresses in a path


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


class _Columns(Mapping):
    """A read-only view of the validated columns; ``MappingProxyType`` does not pickle."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self._columns = columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


def _column(name: str) -> property:
    """A read-only attribute that is the supplied column ``name``, not a copy of it."""
    return property(lambda self: self.columns[name])


def _role(role: str, intercept: bool) -> cached_property:
    """A design block built once from the columns that ``schema.<role>`` names."""
    return cached_property(lambda ds: _column_matrix(ds.columns, getattr(ds.schema, role),
                                                     intercept))


@dataclass(frozen=True, eq=False)
class MrtDataset:
    """Immutable long-format panel, sorted by subject then decision index.

    All subjects share the same horizon ``T``; rows are stored subject-major
    so any per-row column reshapes to ``(n_subjects, horizon)``. ``columns``
    is a read-only mapping of exactly the validated columns supplied, with
    ``y`` the proximal series, so ``from_columns(ds.columns, ds.schema,
    lag=ds.lag)`` rebuilds the panel; ``subject_ids``, ``t``, ``a``, ``p``
    and ``y_raw`` are read-only views of them, ``t`` and ``a`` as float. The
    design roles ``f``, ``z``, ``g`` and ``p_tilde`` are read-only, read from
    ``columns`` through ``schema``: a moderator-free ``f``, a control-free ``g``
    and the pooled ``p_tilde`` are broadcasts of one value, not full arrays. They,
    the aligned ``y``, ``centered_a`` and ``weight_w`` are cached on first read.
    """

    columns: Mapping[str, np.ndarray] = field(repr=False)   # as supplied, validated
    schema: Schema
    lag: int
    n_subjects: int
    horizon: int

    subject_ids = _column("subject_id")
    t = _column("t")
    a = _column("a")
    p = _column("p")
    y_raw = _column("y")   # the proximal outcome as supplied, before lag alignment

    f = _role("moderators", True)    # (rows, q) moderator features, intercept included
    z = _role("aux", False)          # (rows, p_z) auxiliary variables
    g = _role("controls", True)      # (rows, d) control features, intercept included
    f_names = property(lambda self: ("1", *self.schema.moderators))
    z_names = property(lambda self: self.schema.aux)
    g_names = property(lambda self: ("1", *self.schema.controls))
    q = property(lambda self: self.f.shape[1])
    p_z = property(lambda self: self.z.shape[1])
    d = property(lambda self: self.g.shape[1])

    @property
    def n_rows(self) -> int:
        return self.subject_ids.shape[0]

    @cached_property
    def p_tilde(self) -> np.ndarray:
        """The ``ptilde`` column, or else the pooled treatment frequency, constant in t."""
        if self.schema.ptilde is None:       # a read-only broadcast of one value
            return np.broadcast_to(np.mean(self.a), (self.n_rows,))
        return _column_matrix(self.columns, (self.schema.ptilde,), False)[:, 0]

    @property
    def n_usable(self) -> int:
        return self.horizon - self.lag + 1

    @cached_property
    def y(self) -> np.ndarray:
        """The outcome ``lag`` steps after each usable row's decision, on the
        usable rows only: the supplied ``y`` read ``lag - 1`` steps ahead."""
        return _as_readonly(self.usable(self.y_raw, self.lag - 1))

    @cached_property
    def centered_a(self) -> np.ndarray:
        """Treatment centered at the weight numerator, ``a - p_tilde``."""
        return _as_readonly(self.a - self.p_tilde)

    @cached_property
    def weight_w(self) -> np.ndarray:
        """Likelihood-ratio weight ``p_tilde(a|s) / p(a|h)`` at the observed arm."""
        b = 1.0 - self.a        # a is 0 or 1: a x + b y is exactly x or y, cheaper than np.where
        num = self.a * self.p_tilde + b * (1.0 - self.p_tilde)
        num /= self.a * self.p + b * (1.0 - self.p)
        return _as_readonly(num)

    def per_subject(self, arr: np.ndarray) -> np.ndarray:
        """Reshape an array over every row, or over the usable rows, to
        (n_subjects, times, ...)."""
        return arr.reshape((self.n_subjects, -1) + arr.shape[1:])

    def usable_block(self, arr: np.ndarray, steps: int = 0) -> np.ndarray:
        """Usable rows (``t <= n_usable``) of ``arr``, each read ``steps`` ahead,
        as a (n_subjects, n_usable, ...) view: row t holds the subject's value
        at ``t + steps`` (``steps < lag``)."""
        return self.per_subject(arr)[:, steps: steps + self.n_usable]

    def usable(self, arr: np.ndarray, steps: int = 0) -> np.ndarray:
        """:meth:`usable_block` flattened to rows; at lag 1 ``arr`` itself, not a copy."""
        if self.n_usable == self.horizon:
            return arr
        return self.usable_block(arr, steps).reshape((-1,) + arr.shape[1:])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for arr in (self.subject_ids, self.t, self.a, self.p, self.y,
                    self.f, self.z, self.g, self.p_tilde):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]

    def __reduce__(self):   # unpickled through the one build path: read-only, views re-made
        return from_columns, (dict(self.columns), self.schema, self.lag)

    def with_schema(self, schema: Schema) -> "MrtDataset":
        """Re-view the same panel under a different role mapping."""
        return from_columns(self.columns, schema, self.lag)


def _column_matrix(columns: Mapping[str, np.ndarray], names: tuple[str, ...],
                   intercept: bool) -> np.ndarray:
    """The named columns side by side, read-only, after a leading 1s column if ``intercept``;
    one column is a view of it, and the intercept alone a broadcast of 1."""
    for name in names:
        if name not in columns:
            raise MissingColumn(f"column {name!r} not found")
    if len(names) + intercept == 1:
        return (np.broadcast_to(1.0, (columns["t"].shape[0], 1)) if intercept
                else _as_readonly(columns[names[0]][:, None]))
    out = np.empty((columns["t"].shape[0], intercept + len(names)))
    out[:, :intercept] = 1.0
    for j, name in enumerate(names, intercept):
        out[:, j] = columns[name]
    return _as_readonly(out)


def _numeric(columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every column read-only and contiguous, all but ``subject_id`` as float,
    text by :func:`load_csv`'s grammar (:func:`_csv_float`); the first
    non-number is a :class:`MissingValue` at its subject and ``t``."""
    for name in BASE_COLUMNS:
        if name not in columns:
            raise MissingColumn(f"required column {name!r} not found")
    out = {}
    for name, col in columns.items():
        col = np.asarray(col)
        if name != "subject_id" and col.dtype.kind in "biuf":
            col = col.astype(float, copy=False)
        elif name != "subject_id":
            values = [_csv_float(token) for token in col]
            if None in values:
                i = values.index(None)
                raise MissingValue(f"non-numeric value {str(col[i])!r} in column {name!r}",
                                   columns["subject_id"][i], _row_t(columns["t"][i]))
            col = np.array(values, dtype=float)
        out[name] = _as_readonly(col)
    return out


def _one_value(arr: np.ndarray) -> np.ndarray:
    """A broadcast of one value (every stride 0) as its first row, else ``arr``: the row
    checked stands for every row, and is the first row a full check would name."""
    return arr if any(arr.strides) else arr[:1]


def _first_bad(mask: np.ndarray, subject: np.ndarray, t: np.ndarray):
    i = int(np.argmax(mask))
    return subject[i], int(t[i])


def from_columns(columns: Mapping[str, np.ndarray], schema: Schema,
                 lag: int = 1) -> MrtDataset:
    """Build and validate a dataset from in-memory columns.

    ``y`` is the proximal series. It is kept as supplied, and
    :attr:`MrtDataset.y` reads it at ``lag``, here as in :func:`load_csv`.
    """
    if lag < 1:
        raise DimensionMismatch(f"lag must be >= 1, got {lag}")
    columns = _numeric(columns)
    subject, t, a, p = (columns[name] for name in BASE_COLUMNS[:4])
    n_rows = subject.shape[0]
    if n_rows == 0:
        raise MissingValue("no data rows")

    # O(n) order check; the stable lexsort keeps rows with equal keys in input order
    same = subject[1:] == subject[:-1]
    if not ((subject[1:] > subject[:-1]) | (same & (t[1:] >= t[:-1]))).all():
        order = np.lexsort((t, subject))
        columns = {k: _as_readonly(v[order]) for k, v in columns.items()}
        subject, t, a, p = (columns[name] for name in BASE_COLUMNS[:4])

    bad = ~np.isin(a, (0.0, 1.0))
    if bad.any():
        raise NonBinaryTreatment("treatment a must be 0 or 1", *_first_bad(bad, subject, t))
    bad = ~((p > 0.0) & (p < 1.0))
    if bad.any():
        raise ProbabilityOutOfRange("randomization probability p must lie in (0,1)",
                                    *_first_bad(bad, subject, t))

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

    ds = MrtDataset(_Columns(columns), schema, lag, n_subjects, horizon)
    # every role is read here, so a returned dataset holds them all and is safe
    # to share across threads; a missing role column is named before any value
    f, z, g, p_tilde = ds.f, ds.z, ds.g, _one_value(ds.p_tilde)
    bad = ~((p_tilde > 0.0) & (p_tilde < 1.0))
    if bad.any():
        raise ProbabilityOutOfRange("weight numerator p_tilde must lie in (0,1)",
                                    *_first_bad(bad, subject, t))
    # the aligned outcome reads the supplied rows t >= lag; a bad one is named
    # at its own t
    y = ds.usable_block(ds.y_raw, lag - 1)
    if not np.isfinite(y).all():
        j, k = divmod(int(np.argmax(~np.isfinite(y))), ds.n_usable)
        raise MissingValue("non-finite value in y", subject[starts[j]], k + lag)
    for label, arr in (("z", z), ("f", _one_value(f)), ("g", _one_value(g))):
        if not np.isfinite(arr).all():
            i = int(np.argmax(~np.isfinite(arr).all(axis=1)))
            raise MissingValue(f"non-finite value in {label}", subject[i], int(t[i]))
    return ds


def _csv_float(token) -> float | None:
    """Text ``token`` as loadtxt's float parser reads it (Python's ``float`` on
    the stripped token, without underscores or non-ASCII characters), bytes as
    ASCII text, any other token by ``float``; None where refused, as a complex
    token is (``float`` would keep its real part)."""
    if isinstance(token, bytes):
        token = token.decode("ascii", "replace")
    if isinstance(token, (complex, np.complexfloating)):
        return None
    try:
        if not isinstance(token, str):
            return float(token)
        token = token.strip()
        return float(token) if token.isascii() and "_" not in token else None
    except (TypeError, ValueError):
        return None


def _row_t(t):
    """A row's ``t`` for an error: the integer, or its text when not a finite number."""
    value = _csv_float(t)
    return int(value) if value is not None and np.isfinite(value) else str(t)


def _row_error(path, header: list[str], needed: set[str]) -> MissingValue | None:
    """Re-scan ``path`` with ``csv`` for the first data row without a field per
    header column, with a numeric token that ``_csv_float`` refuses, or with a
    non-finite value in a ``needed`` column."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row, fields in enumerate(rows, 2):
            if len(fields) != len(header):
                return MissingValue(f"row {row} has {len(fields)} fields, expected {len(header)}")
            raw = dict(zip(header, fields))
            for name, token in zip(header, fields):
                value = 0.0 if name == "subject_id" else _csv_float(token)
                if value is None or (name in needed and not np.isfinite(value)):
                    what = f"unparsable value {token!r}" if value is None else "non-finite value"
                    return MissingValue(f"{what} in column {name!r} at row {row}",
                                        raw["subject_id"], _row_t(raw["t"]))
    return None


def _scan(path) -> tuple[bool, bool]:
    """Whether a line of ``path`` starts with its terminator, which loadtxt skips, and
    whether a quoted field may hold a carriage return, which loadtxt reading ``path``
    itself (universal newlines) would read as a line feed."""
    with open(path, "rb") as fh:
        text = fh.read()
    cr = b"\r" in text
    return (b"\n\n" in text or cr and (b"\n\r" in text or b"\r\r" in text),
            cr and b'"' in text)


def load_csv(path, schema: Schema, lag: int = 1) -> MrtDataset:
    """Load a long-format CSV and return a validated :class:`MrtDataset`.

    The header must name ``subject_id, t, a, p, y`` plus every column
    referenced by ``schema``. Every row must have as many fields as the
    header; a blank line is a row with none. ``subject_id`` is read as text
    (and sorts as text); every other field is parsed straight to float64 by
    numpy's decimal grammar: Python's ``float`` without underscores or
    non-ASCII characters (so ``1_000`` and ``１`` are refused). Non-finite
    tokens (NaN, Inf) are rejected. A path that cannot be read is a
    :class:`MissingColumn`, as an empty file is.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise MissingColumn(f"cannot read CSV {path}: {exc}") from None
    with fh:
        rows = csv.reader(fh)
        try:
            header = [h.strip() for h in next(rows)]
        except StopIteration:
            raise MissingColumn("empty CSV file") from None
        needed = {*BASE_COLUMNS, *schema.moderators, *schema.aux, *schema.controls,
                  schema.ptilde} - {None}
        for name in sorted(needed):
            if name not in header:
                raise MissingColumn(f"required column {name!r} not in CSV header")
        blank, quoted_cr = _scan(path)
        error = blank and _row_error(path, header, needed)
        if error:                       # a blank line inside quotes is data
            raise error
        first = next(fh, None)
        if first is None:
            raise MissingValue("no data rows")
        dtype = [(f"c{j}", object if h == "subject_id" else float) for j, h in enumerate(header)]
        # loadtxt parses a path in chunks but an iterator line by line. A path is opened
        # with universal newlines, decompressed by its suffix and, if relative, may read
        # as a URL: a quoted carriage return or such a suffix keeps the iterator.
        # skiprows counts the physical lines the header took
        fname = os.fsdecode(os.path.abspath(path))
        if quoted_cr or fname.endswith(_PACKED):
            source, skip = itertools.chain([first], fh), 0
        else:
            source, skip = fname, rows.line_num
        try:
            # comments=None: '#' is data; the object field keeps subject_id as read
            cells = np.loadtxt(source, delimiter=",", dtype=dtype, skiprows=skip,
                               comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:   # a row's field count, or a token, is bad
            raise _row_error(path, header, needed) or exc from None

    columns = {name: cells[f"c{j}"] for j, name in enumerate(header)}
    if not all(np.isfinite(columns[name]).all() for name in needed - {"subject_id"}):
        raise _row_error(path, header, needed)
    columns["subject_id"] = columns["subject_id"].astype(str)
    return from_columns(columns, schema, lag)


def to_csv(ds: MrtDataset, path) -> None:
    """Serialize a dataset back to CSV, reproducing numeric fields exactly.

    The ``y`` column written is the raw proximal series (what ``load_csv``
    consumes), so a load/serialize round trip is bit-faithful.
    """
    names = list(BASE_COLUMNS)
    extra = [n for n in ds.columns if n not in names]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + extra)
        for i in range(ds.n_rows):
            row = [str(ds.subject_ids[i]), repr(int(ds.t[i])), repr(int(ds.a[i])),
                   repr(float(ds.p[i])), repr(float(ds.y_raw[i]))]
            row += [repr(float(ds.columns[n][i])) for n in extra]
            writer.writerow(row)
