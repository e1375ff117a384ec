"""Robust variance machinery shared by every estimator.

All estimators expose per-subject estimating-function contributions; the
asymptotic variance is the usual sandwich ``Q^{-1} Sigma Q^{-1}`` scaled so
that ``SE = sqrt(diag / N)``. Two refinements are pure post-processing on
retained per-subject pieces:

* stacking replaces each subject's mean-model score with the version
  corrected for the estimated centering parameters, using the analytic
  cross-derivative of the criterion in the centering coefficients;
* leverage correction is the Mancl–DeRouen small-sample fix: per-subject
  residuals are premultiplied by ``(I - H_j)^{-1}`` before the meat is
  rebuilt, solved as one k×k system per subject (``leverage_adjusted_scores``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DimensionMismatch,
    SingularBread,
    SingularLeverage,
    SingularThetaBread,
    VarianceOverflow,
)

COND_LIMIT = 1e12


@dataclass(frozen=True)
class SandwichParts:
    """Everything needed to rebuild a sandwich without refitting.

    ``bread`` is the per-subject-averaged derivative of the estimating
    function (positive-definite Gram for least-squares criteria); ``meat``
    averages per-subject score outer products. Least-squares fits also retain
    per-subject ``model_matrix``/``weights`` for the leverage correction.
    """

    bread: np.ndarray              # (dim, dim)
    subject_scores: np.ndarray     # (N, dim)
    model_matrix: np.ndarray | None = None   # (N, T_use, dim)
    weights: np.ndarray | None = None        # (N, T_use)

    @property
    def meat(self) -> np.ndarray:
        return score_meat(self.subject_scores)

    @property
    def n_subjects(self) -> int:
        return self.subject_scores.shape[0]

    @property
    def dim(self) -> int:
        return self.bread.shape[0]


@dataclass(frozen=True)
class StackedParts:
    """Centering-parameter pieces for the stacked variance.

    Layout convention: the centering coefficients flatten C-order over
    (moderator component, auxiliary column), matching
    ``CenteringModel.score_meta``.
    """

    u_theta_scores: np.ndarray     # (N, q * p_z)
    cross_derivative: np.ndarray   # (dim, q * p_z)
    theta_bread: np.ndarray        # (q * p_z, q * p_z)


def checked_solve(mat: np.ndarray, rhs: np.ndarray, exc, what: str) -> np.ndarray:
    """Solve ``mat x = rhs``, raising ``exc`` when ``mat`` is nearly singular.

    The package's one condition-number policy; each caller names its own typed
    error. A non-finite entry in ``mat`` or ``rhs`` (an overflow upstream)
    raises it too.
    """
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise exc(f"{what}: non-finite entries (an overflow: rescale the data)")
    cond = np.linalg.cond(mat) if mat.size else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise exc(f"{what}: condition number {cond:.3g} exceeds {COND_LIMIT:.0e}")
    return np.linalg.solve(mat, rhs)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.T) / 2.0


def score_meat(scores: np.ndarray) -> np.ndarray:
    """Symmetrized average outer product of per-subject scores (N, dim)."""
    return _symmetrize(scores.T @ scores / scores.shape[0])


def _sandwich(binv: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """``binv @ meat @ binv'``; ``VarianceOverflow`` when it leaves the float64 range."""
    with np.errstate(over="ignore", invalid="ignore"):
        vcov = _symmetrize(binv @ score_meat(scores) @ binv.T)
    if not np.isfinite(vcov).all():
        raise VarianceOverflow("sandwich variance is not finite: rescale the data")
    return vcov


def plain_sandwich(parts: SandwichParts) -> np.ndarray:
    """Full-parameter ``Q^{-1} Sigma Q^{-1}``; ``SE = sqrt(diag/N)`` downstream."""
    binv = checked_solve(parts.bread, np.eye(parts.dim), SingularBread, "sandwich bread")
    return _sandwich(binv, parts.subject_scores)


def corrected_scores(scores: np.ndarray, sp: StackedParts) -> np.ndarray:
    """Per-subject mean-model scores corrected for estimated centering."""
    adj = checked_solve(sp.theta_bread, sp.u_theta_scores.T,
                        SingularThetaBread, "centering bread")   # (m, N)
    return scores - (sp.cross_derivative @ adj).T


def stacked_sandwich(parts: SandwichParts, sp: StackedParts) -> np.ndarray:
    """Sandwich with meat rebuilt from centering-corrected scores."""
    scores = corrected_scores(parts.subject_scores, sp)
    return plain_sandwich(SandwichParts(parts.bread, scores))


def _leverage(parts: SandwichParts) -> tuple[np.ndarray, np.ndarray]:
    if parts.model_matrix is None or parts.weights is None:
        raise SingularLeverage("per-subject model matrices were not retained")
    binv = checked_solve(parts.bread, np.eye(parts.dim), SingularBread, "sandwich bread")
    d = parts.model_matrix                                    # (N, T, k)
    gram = np.einsum("ntk,nt,ntl->nkl", d, parts.weights, d, optimize=True)   # G_j
    # bread is (1/N) sum_j G_j, so B^{-1} = bread^{-1} / N
    m = np.eye(parts.dim) - gram @ (binv / parts.n_subjects)
    conds = np.linalg.cond(m)
    # cond is scale-free: also catch M_j ~ 0 (as many usable rows as parameters)
    scale = np.minimum(np.abs(m).max(axis=(1, 2)), 1.0)
    bad = ~np.isfinite(conds) | (conds > COND_LIMIT * scale)
    if bad.any():
        j = int(np.argmax(bad))
        raise SingularLeverage(f"(I - H) nearly singular for subject index {j}")
    return binv, np.linalg.solve(m, parts.subject_scores[:, :, None])[:, :, 0]


def leverage_adjusted_scores(parts: SandwichParts) -> np.ndarray:
    """Mancl–DeRouen scores ``D_j' W_j (I - H_j)^{-1} r_j``, from k×k systems.

    By push-through they equal ``M_j^{-1} s_j`` with ``M_j = I_k - G_j B^{-1}``,
    ``G_j = D_j' W_j D_j``, ``B = sum_j G_j`` and ``s_j`` the subject score. ``M_j``
    has the eigenvalues of ``I - H_j`` other than 1; ``SingularLeverage`` tests it.
    """
    return _leverage(parts)[1]


def stacked_small_sample(parts: SandwichParts, sp: StackedParts | None) -> np.ndarray:
    """Leverage-corrected sandwich, centering-corrected when stacked; one bread inverse."""
    binv, scores = _leverage(parts)
    if sp is not None:
        scores = corrected_scores(scores, sp)
    return _sandwich(binv, scores)


def check_ci_level(level: float) -> None:
    """Interval levels lie strictly inside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise DimensionMismatch(f"ci_level must lie in (0,1), got {level}")


def confidence_intervals(estimates: np.ndarray, se: np.ndarray, level: float,
                         small_sample: bool, n_subjects: int, dim: int):
    """Two-sided intervals and p-values; t reference when small_sample is set."""
    check_ci_level(level)
    estimates = np.asarray(estimates, dtype=float)
    se = np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        zval = np.where(se > 0, estimates / se, np.inf * np.sign(estimates))
    if small_sample:
        from scipy import special   # only the t reference needs scipy
        df = max(n_subjects - dim, 1)
        crit = special.stdtrit(df, 0.5 + level / 2.0)
        pval = 2.0 * special.stdtr(df, -np.abs(zval))
    else:
        crit = NormalDist().inv_cdf(0.5 + level / 2.0)
        # 2 * Phi(-|z|) == erfc(|z| / sqrt(2))
        pval = np.vectorize(math.erfc, otypes=[float])(np.abs(zval) / math.sqrt(2.0))
    pval = np.where(estimates == 0.0, 1.0, pval)
    return estimates - crit * se, estimates + crit * se, pval
