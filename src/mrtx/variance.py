"""Robust variance machinery shared by every estimator, and its one least-squares engine.

``wls_solve`` solves every weighted least-squares system, a criterion's or a
centering projection's. All estimators expose per-subject estimating-function
contributions; the asymptotic variance is the usual sandwich
``Q^{-1} Sigma Q^{-1}`` scaled so that ``SE = sqrt(diag / N)``. Two refinements
are pure post-processing on retained per-subject pieces:

* stacking adds to each subject's mean-model score a fixed shift for the
  estimated centering coefficients: the score's analytic derivative in them
  times the subject's influence on them (``SandwichParts.centering_shift``);
* leverage correction is the Mancl–DeRouen small-sample fix: per-subject
  residuals are premultiplied by ``(I - H_j)^{-1}`` before the meat is
  rebuilt, solved as one k×k system per subject (``_leverage``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from .errors import (
    DimensionMismatch,
    SingularGram,
    SingularLeverage,
    VarianceOverflow,
)

COND_LIMIT = 1e12
_TINY = 1e-300   # the Lentz method's stand-in for a zero denominator

# rows per block of wls_solve's weighted sums: at k = 5 columns a block is
# 320 KB. On the 49 500-row lagged_eq12 design (2 vCPUs, one BLAS thread)
# 4096- to 16384-row blocks ran fastest, and one full-size weighted copy of
# the design about 2.7x slower
_BLOCK_ROWS = 8192


@dataclass(frozen=True, eq=False)
class SandwichParts:
    """Everything needed to rebuild a sandwich without refitting.

    ``bread`` is the per-subject-averaged derivative of the estimating function (positive-
    definite Gram for least-squares criteria); ``bread_inv`` is its inverse, from the bread's
    one checked solve. Least-squares fits also retain per-subject ``model_matrix``/``weights``
    for the leverage correction; a fit with an orthogonality-fitted centering retains the
    per-subject ``centering_shift`` that the stacked variances add to the scores.
    """

    bread: np.ndarray              # (dim, dim)
    bread_inv: np.ndarray          # (dim, dim)
    subject_scores: np.ndarray     # (N, dim)
    model_matrix: np.ndarray | None = None     # (N, T_use, dim), may view the fit's design
    weights: np.ndarray | None = None          # (N, T_use)
    centering_shift: np.ndarray | None = None  # (N, dim)

    @property
    def n_subjects(self) -> int:
        return self.subject_scores.shape[0]

    @property
    def dim(self) -> int:
        return self.bread.shape[0]


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


def wls_solve(X: np.ndarray, y: np.ndarray, w: np.ndarray,
              n_units: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ``sum w (y - X b)^2``, for each column of ``y`` if it has several;
    returns coefficients, the averaged Gram and its inverse, from one checked solve.

    The Gram ``X'WX/n_units`` is the bread, the per-unit averaged derivative of
    the estimating function. ``X`` is (rows, k) or per-unit views (units, rows, k),
    ``w`` and ``y`` to match; column-major makes the weighting run along contiguous
    columns. The sums run over blocks of at most ``_BLOCK_ROWS`` rows: whole units, or
    flat rows (copying strided views) where one unit is longer than a block.
    """
    if w.ndim == 2 and w.shape[1] > _BLOCK_ROWS:
        X, y, w = X.reshape(-1, X.shape[-1]), y.reshape((w.size,) + y.shape[2:]), w.reshape(-1)
    k, step = X.shape[-1], _BLOCK_ROWS // math.prod(w.shape[1:])
    gram, rhs = np.zeros((k, k)), np.zeros((k,) + y.shape[w.ndim:])
    with np.errstate(over="ignore", invalid="ignore"):   # checked_solve rejects an overflow
        for lo in range(0, len(w), step):
            block = X[lo: lo + step].reshape(-1, k)
            Xw = block * w[lo: lo + step].reshape(-1, 1)
            gram += Xw.T @ block
            rhs += Xw.T @ y[lo: lo + step].reshape((-1,) + rhs.shape[1:])
        gram /= n_units
        rhs /= n_units
    sol = checked_solve(gram, np.column_stack([rhs.reshape(k, -1), np.eye(k)]),
                        SingularGram, "weighted Gram")
    return sol[:, :-k].reshape(rhs.shape), gram, sol[:, -k:]


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


def _shifted(parts: SandwichParts, scores: np.ndarray) -> np.ndarray:
    """``scores`` plus the centering shift, when the fit retained one."""
    return scores if parts.centering_shift is None else scores + parts.centering_shift


def plain_sandwich(parts: SandwichParts) -> np.ndarray:
    """Full-parameter ``Q^{-1} Sigma Q^{-1}``; ``SE = sqrt(diag/N)`` downstream."""
    return _sandwich(parts.bread_inv, parts.subject_scores)


def stacked_sandwich(parts: SandwichParts) -> np.ndarray:
    """Sandwich with each subject's score shifted for the estimated centering."""
    return _sandwich(parts.bread_inv, _shifted(parts, parts.subject_scores))


def _leverage(parts: SandwichParts) -> np.ndarray:
    """The Mancl–DeRouen scores ``D_j' W_j (I - H_j)^{-1} r_j``:
    by push-through ``M_j^{-1} s_j``, from k×k systems, with ``M_j = I_k - G_j B^{-1}``,
    ``G_j = D_j' W_j D_j``, ``B = sum_j G_j`` and ``s_j`` the subject score. ``M_j``
    has the eigenvalues of ``I - H_j`` other than 1; ``SingularLeverage`` tests it."""
    if parts.model_matrix is None or parts.weights is None:
        raise SingularLeverage("per-subject model matrices were not retained")
    d = parts.model_matrix                                    # (N, T, k)
    gram = np.einsum("ntk,nt,ntl->nkl", d, parts.weights, d, optimize=True)   # G_j
    # bread is (1/N) sum_j G_j, so B^{-1} = bread^{-1} / N
    m = np.eye(parts.dim) - gram @ (parts.bread_inv / parts.n_subjects)
    conds = np.linalg.cond(m)
    # cond is scale-free: also catch M_j ~ 0 (as many usable rows as parameters)
    scale = np.minimum(np.abs(m).max(axis=(1, 2)), 1.0)
    bad = ~np.isfinite(conds) | (conds > COND_LIMIT * scale)
    if bad.any():
        j = int(np.argmax(bad))
        raise SingularLeverage(f"(I - H) nearly singular for subject index {j}")
    return np.linalg.solve(m, parts.subject_scores[:, :, None])[:, :, 0]


def stacked_small_sample(parts: SandwichParts) -> np.ndarray:
    """Leverage-corrected sandwich, centering-shifted when stacked."""
    return _sandwich(parts.bread_inv, _shifted(parts, _leverage(parts)))


def check_ci_level(level: float) -> None:
    """Interval levels lie strictly inside (0, 1), with a non-zero tail ``1/2 - level/2``."""
    if not 0.0 < level < 1.0 or 0.5 + level / 2.0 == 1.0:
        raise DimensionMismatch(f"ci_level must lie in (0,1), got {level}")


def _log_gamma_ratio(a: float) -> float:
    """``log Gamma(a + 1/2) - log Gamma(a)``, from ``a = 25`` on by its asymptotic series:
    a difference of ``lgamma`` values loses an ulp of ``lgamma(a)``, 1e-10 at df 10^6."""
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)                # next term, -31 / (18432 a^9), below 1e-15 here
    return 0.5 * math.log(a) - (0.125 - (1 / 192 - (1 / 640 - 17 / 14336 * r) * r) * r) / a


def _nonzero(v: float) -> float:
    return v if abs(v) > _TINY else _TINY


def _t_tail(df: int, z: float) -> float:
    """Two-sided tail ``P(|T_df| > |z|) = I_x(df/2, 1/2)``, ``x = df/(df + z^2)``: the
    continued fraction of *Numerical Recipes* §6.4 by the modified Lentz method, on
    the side of the symmetry switch where it converges, ``1 - x`` formed directly;
    unflipped, each odd step's ``1 - r_m x`` is formed from it, not by cancelling."""
    z2 = z * z
    if not 0.0 < z2 < math.inf:      # z = 0 gives 1; an infinite z (se = 0) gives 0
        return float(z2 == 0.0)
    a, b, x, y = df / 2.0, 0.5, df / (df + z2), z2 / (df + z2)
    front = math.exp(_log_gamma_ratio(a) - math.lgamma(b)
                     - a * math.log1p(z2 / df) + b * math.log(y))
    flip = x >= (a + 1.0) / (a + b + 2.0)
    if flip:                         # I_x(a, b) = 1 - I_{1-x}(b, a)
        a, b, x, y = b, a, y, x

    def odd(m):                      # 1 - r_m x, r_m = (a+m)(a+b+m) / ((a+2m)(a+2m+1))
        q = (a + 2 * m) * (a + 2 * m + 1.0)
        r = (a + m) * (a + b + m) / q
        return 1.0 - r * x if flip else (a * (2 * m + 1.0 - b) + m * (3 * m + 2.0 - b)) / q + r * y

    c, d = 1.0, 1.0 / _nonzero(odd(0))
    h = d
    for m in itertools.count(1):     # O(sqrt(df)) terms at worst
        num = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        u, v = num * d, num / c
        d, c = 1.0 / _nonzero(1.0 + u), _nonzero(1.0 + v)
        h *= d * c
        o = odd(m)                   # 1 - r_m x d = (u + o) d, as 1 - d = u d; c - 1 = v
        d, c = 1.0 / _nonzero((u + o) * d), _nonzero((v + o) / c)
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return 1.0 - front * h / a if flip else front * h / a


def _t_start(df: int, u: float) -> float:
    """Start for ``P(T_df > t) = u``: the closed forms at df 1 and 2, else Hill's
    (1970, *CACM* Algorithm 396) expansion, within about 1e-4 relative away from t = 0."""
    if df == 1:
        return 1.0 / math.tan(math.pi * u)
    if df == 2:
        return (1.0 - 2.0 * u) / math.sqrt(2.0 * u * (1.0 - u))
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (2.0 * d * u) ** (2.0 / df)
    if y > 0.05 + a:                 # about the normal quantile
        x = NormalDist().inv_cdf(u)
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:                            # far tail
        y = (((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
               + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y)
    return math.sqrt(df * y)


def _t_quantile(df: int, p: float) -> float:
    """``t`` with ``P(T_df <= t) = p`` for ``p > 1/2``, by Newton on the upper tail.

    Newton stops once a step fails to shrink tenfold: from the start's 1e-4 that
    takes a few tail evaluations, after which the steps are rounding noise.
    """
    u = 1.0 - p                      # exact for p >= 1/2
    log_pdf0 = _log_gamma_ratio(df / 2.0) - 0.5 * math.log(df * math.pi)
    t, last = _t_start(df, u), math.inf
    while True:
        step = ((_t_tail(df, t) / 2.0 - u)
                / math.exp(log_pdf0 - (df + 1) / 2.0 * math.log1p(t * t / df)))
        if not abs(step) < last / 10.0:
            return t
        t, last = t + step, abs(step)


def confidence_intervals(estimates: np.ndarray, se: np.ndarray, level: float,
                         small_sample: bool, n_subjects: int, dim: int):
    """Two-sided intervals and p-values; with ``small_sample``, a t reference on
    ``max(N - dim, 1)`` df: the incomplete-beta tail :func:`_t_tail` and the Newton
    quantile :func:`_t_quantile`. Against scipy 1.17's ``stdtr``/``stdtrit`` (df 1
    to 10^6; |z| <= 40; levels 0.8-0.99) they agree to 4.2e-13 relative on
    p-values in float64's normal range, and to 3.8e-15 on critical values."""
    check_ci_level(level)
    estimates = np.asarray(estimates, dtype=float)
    se = np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # |z|: 0 for a zero estimate (p = 1), else inf where se = 0 (p = 0)
        zabs = np.where(estimates == 0.0, 0.0, np.abs(estimates) / se)
    if small_sample:
        df = max(n_subjects - dim, 1)
        crit = _t_quantile(df, 0.5 + level / 2.0)
        pval = np.vectorize(partial(_t_tail, df), otypes=[float])(zabs)
    else:
        crit = NormalDist().inv_cdf(0.5 + level / 2.0)
        # 2 * Phi(-|z|) == erfc(|z| / sqrt(2))
        pval = np.vectorize(math.erfc, otypes=[float])(zabs / math.sqrt(2.0))
    return estimates - crit * se, estimates + crit * se, pval
