"""Exception hierarchy.

Every failure mode raised by the library is a subclass of :class:`MrtxError`,
so callers (and the CLI) can map errors to exit codes without string matching.
Data-validation errors carry the offending ``subject_id`` and ``t`` of the
first violation.
"""

from __future__ import annotations


class MrtxError(Exception):
    """Base class for all library errors."""

    exit_code = 10


class DataError(MrtxError):
    """Base class for panel-validation failures; names the first bad row."""

    exit_code = 11

    def __init__(self, message: str, subject_id=None, t=None):
        if subject_id is not None:
            message = f"{message} (subject_id={subject_id}, t={t})"
        super().__init__(message)
        self.subject_id = subject_id
        self.t = t


class MissingColumn(DataError):
    exit_code = 12


class NonBinaryTreatment(DataError):
    exit_code = 13


class ProbabilityOutOfRange(DataError):
    exit_code = 14


class MissingValue(DataError):
    exit_code = 15


class NonContiguousTime(DataError):
    exit_code = 16


class DimensionMismatch(MrtxError):
    exit_code = 17


class SingularGram(MrtxError):
    """Design Gram matrix is rank deficient (condition number above 1e12)."""

    exit_code = 18


class SingularBread(MrtxError):
    """A binary fit's root Jacobian is nearly singular: the one bread not solved as a Gram."""

    exit_code = 19


class SingularLeverage(MrtxError):
    """A per-subject (I - H_j) block is numerically singular."""

    exit_code = 21


class SingularJacobian(MrtxError):
    exit_code = 22


class DegenerateAuxiliary(MrtxError):
    """A centered auxiliary column has (weighted) norm indistinguishable from zero."""

    exit_code = 23


class LagHorizonExceeded(MrtxError):
    """Next-decision-point features requested beyond the panel horizon."""

    exit_code = 24


class NonConvergence(MrtxError):
    exit_code = 25

    def __init__(self, message: str, n_iter: int = 0):
        super().__init__(message)
        self.n_iter = n_iter


class ZeroVariance(MrtxError):
    exit_code = 27


class VarianceOverflow(MrtxError):
    """The sandwich variance of finite data overflows float64."""

    exit_code = 30


class ConfigParse(MrtxError):
    exit_code = 28


class UnknownTable(MrtxError):
    exit_code = 29
