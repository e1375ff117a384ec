"""Estimators for time-varying treatment effects in sequentially randomized panels.

Every continuous-outcome criterion reduces to one weighted normal-equations
engine (:func:`wls_solve`); the methods differ only in how the design blocks
are assembled:

* per-decision-point fits (``unadjusted_per_time``, ``wcls_per_time``,
  ``lin_per_time``) regress the proximal outcome on the treatment centered at
  the true randomization probability, optionally with mean-centered controls
  and their treatment interactions;
* ``wcls`` pools decision points with likelihood-ratio weights and centers
  treatment at the weight numerator;
* ``a2wcls`` augments the pooled criterion with centered-auxiliary
  interactions, and ``a2wcls_lagged`` adds linear working models for the
  intermediate decision points of a lagged outcome;
* binary outcomes use a log-relative-risk estimating equation solved by
  damped Newton (``emee``), with an alternating centering loop for the
  auxiliary-adjusted variant (``a2emee``).

Every method is fitted through :func:`fit`, which checks the method rules
(``PER_TIME``, ``PROXIMAL``, ``ADJUSTED``) once. Robust variance always comes
from retained per-subject scores; see :mod:`mrtx.variance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .centering import (
    CenteringModel,
    centering_from_rows,
    fit_centering,
    naive_centerings,
    weighted_projection,
)
from .data import MrtDataset, _as_readonly
from .errors import (
    DegenerateAuxiliary,
    DimensionMismatch,
    LagHorizonExceeded,
    NonConvergence,
    SingularGram,
    SingularJacobian,
)
from .variance import (
    SandwichParts,
    StackedParts,
    check_ci_level,
    checked_solve,
    confidence_intervals,
    plain_sandwich,
    stacked_sandwich,
    stacked_small_sample,
)

# the method rules: per-time fits need a decision index, proximal methods
# address the lag-1 outcome only, adjusted methods take a CenteringModel
PER_TIME = ("unadjusted_per_time", "wcls_per_time", "lin_per_time")
METHODS = PER_TIME + ("wcls", "a2wcls", "a2wcls_lagged", "emee", "a2emee")
PROXIMAL = PER_TIME + ("a2wcls", "emee", "a2emee")
ADJUSTED = ("a2wcls", "a2wcls_lagged")
VARIANCE_MODES = ("plain_sandwich", "stacked", "stacked_small_sample")
CENTERING_KINDS = ("orthogonal", "global_mean", "time_specific_mean")
_BINARY = ("emee", "a2emee")

# iteration cap for each binary Newton solve and for the A2-EMEE passes; both
# stop below _TOL (max-abs equation norm, max-abs change between passes)
_MAX_ITER = 100
_TOL = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    """Choice of criterion, lag, variance mode, interval level and centering."""

    method: str = "wcls"
    lag: int = 1
    variance_mode: str = "plain_sandwich"
    ci_level: float = 0.95
    centering_kind: str = "orthogonal"

    def __post_init__(self):
        if self.method not in METHODS:
            raise DimensionMismatch(f"unknown method {self.method!r}")
        _check_variance_mode(self.method, self.variance_mode)
        if self.centering_kind not in CENTERING_KINDS:
            raise DimensionMismatch(f"unknown centering kind {self.centering_kind!r}")
        if self.method == "a2wcls_lagged" and self.lag < 2:
            raise DimensionMismatch("a2wcls_lagged requires lag >= 2")
        if self.method in PROXIMAL and self.lag != 1:
            raise DimensionMismatch(f"{self.method} is a proximal method (lag = 1)")
        if self.method == "a2emee" and self.centering_kind != "orthogonal":
            raise DimensionMismatch("a2emee solves its own centering: orthogonal kind only")
        check_ci_level(self.ci_level)


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus retained variance machinery for one fit.

    Coefficient blocks, SEs, intervals and p-values are properties derived
    from ``estimates``, ``vcov`` and the index sets, never stored copies; the
    SEs and the interval triple are computed once, on first read, as
    read-only arrays.
    """

    method: str
    param_names: tuple[str, ...]
    estimates: np.ndarray
    vcov: np.ndarray
    beta0_idx: np.ndarray = field(repr=False)
    beta1_idx: np.ndarray = field(repr=False)
    parts: SandwichParts = field(repr=False)
    stacked_parts: StackedParts | None = field(repr=False)
    variance_mode: str
    ci_level: float
    converged: bool
    n_iter: int
    ee_norm_trace: tuple[float, ...] = ()

    @property
    def n_subjects(self) -> int:
        return self.parts.n_subjects

    @property
    def alpha(self) -> np.ndarray:
        return np.delete(self.estimates, np.concatenate([self.beta0_idx, self.beta1_idx]))

    @property
    def beta0(self) -> np.ndarray:
        return self.estimates[self.beta0_idx]

    @property
    def beta1(self) -> np.ndarray:
        return self.estimates[self.beta1_idx]

    @property
    def beta0_names(self) -> tuple[str, ...]:
        return tuple(self.param_names[i] for i in self.beta0_idx)

    @property
    def beta1_names(self) -> tuple[str, ...]:
        return tuple(self.param_names[i] for i in self.beta1_idx)

    @property
    def vcov_beta0(self) -> np.ndarray:
        return self.vcov[np.ix_(self.beta0_idx, self.beta0_idx)]

    @cached_property
    def se_all(self) -> np.ndarray:
        return _as_readonly(np.sqrt(np.clip(np.diag(self.vcov), 0.0, None) / self.n_subjects))

    @property
    def se(self) -> np.ndarray:
        return self.se_all[self.beta0_idx]

    @cached_property
    def _intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ci_lo, ci_hi, p_value)`` for every parameter."""
        return tuple(_as_readonly(v) for v in confidence_intervals(
            self.estimates, self.se_all, self.ci_level,
            self.variance_mode == "stacked_small_sample", self.n_subjects, self.parts.dim))

    @property
    def ci_lo_all(self) -> np.ndarray:
        return self._intervals[0]

    @property
    def ci_hi_all(self) -> np.ndarray:
        return self._intervals[1]

    @property
    def p_value_all(self) -> np.ndarray:
        return self._intervals[2]

    @property
    def ci_lo(self) -> np.ndarray:
        return self.ci_lo_all[self.beta0_idx]

    @property
    def ci_hi(self) -> np.ndarray:
        return self.ci_hi_all[self.beta0_idx]

    @property
    def p_value(self) -> np.ndarray:
        return self.p_value_all[self.beta0_idx]

    def report_text(self) -> str:
        lines = [f"method: {self.method}",
                 f"n_subjects: {self.n_subjects}",
                 f"variance: {self.variance_mode}",
                 f"ci_level: {repr(self.ci_level)}",
                 f"converged: {self.converged}",
                 f"n_iter: {self.n_iter}",
                 "",
                 f"{'coefficient':<24}{'estimate':>16}{'se':>14}"
                 f"{'ci_lo':>14}{'ci_hi':>14}{'p':>12}"]
        for r in self.coefficient_rows():
            lines.append(f"{r['name']:<24}{r['estimate']:>16.8f}{r['se']:>14.6f}"
                         f"{r['ci_lo']:>14.6f}{r['ci_hi']:>14.6f}"
                         f"{r['p_value']:>12.4g}")
        return "\n".join(lines) + "\n"

    def coefficient_rows(self) -> list[dict]:
        se = self.se_all
        lo, hi, p = self._intervals
        b0, b1 = set(self.beta0_idx.tolist()), set(self.beta1_idx.tolist())
        rows = []
        for i, name in enumerate(self.param_names):
            block = "beta0" if i in b0 else ("beta1" if i in b1 else "alpha")
            rows.append({"name": name, "block": block,
                         "estimate": float(self.estimates[i]),
                         "se": float(se[i]),
                         "ci_lo": float(lo[i]),
                         "ci_hi": float(hi[i]),
                         "p_value": float(p[i])})
        return rows


def wls_solve(X: np.ndarray, y: np.ndarray, w: np.ndarray,
              n_units: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``sum w (y - X b)^2``; returns coefficients and the averaged Gram.

    The bread is ``(1/n_units) X' W X``, the per-unit averaged derivative of
    the estimating function.
    """
    Xw = X * w[:, None]
    with np.errstate(over="ignore", invalid="ignore"):   # checked_solve rejects an overflow
        gram = (Xw.T @ X) / n_units
        rhs = (Xw.T @ y) / n_units
    return checked_solve(gram, rhs, SingularGram, "weighted Gram"), gram


def _check_variance_mode(method: str, mode: str, orthogonal: bool = True) -> None:
    """The variance rule shared by direct fits and :func:`with_variance_mode`.

    Binary fits retain no per-subject model matrices, and an auxiliary-adjusted
    fit needs an orthogonality-fitted centering (``orthogonal``) to stack.
    """
    if mode not in VARIANCE_MODES:
        raise DimensionMismatch(f"unknown variance mode {mode!r}")
    if mode == "plain_sandwich":
        return
    if method in _BINARY:
        raise DimensionMismatch("binary methods support plain_sandwich variance only")
    if not orthogonal:
        raise DimensionMismatch(
            "stacked variance requires an orthogonality-fitted centering model")


def _vcov(parts, sp, mode):
    if mode == "plain_sandwich" or (mode == "stacked" and sp is None):
        return plain_sandwich(parts)
    if mode == "stacked":
        return stacked_sandwich(parts, sp)
    return stacked_small_sample(parts, sp)


def _assemble(names, estimates, beta0_idx, beta1_idx, parts, sp, config,
              n_iter=0, trace=()):
    return FitResult(
        method=config.method,
        param_names=tuple(names),
        estimates=estimates,
        vcov=_vcov(parts, sp, config.variance_mode),
        beta0_idx=np.asarray(beta0_idx, dtype=int),
        beta1_idx=np.asarray(beta1_idx, dtype=int),
        parts=parts,
        stacked_parts=sp,
        variance_mode=config.variance_mode,
        ci_level=config.ci_level,
        converged=True,
        n_iter=n_iter,
        ee_norm_trace=tuple(trace),
    )


def with_variance_mode(fit: FitResult, mode: str, ci_level: float | None = None) -> FitResult:
    """Recompute vcov/SE/CI from retained per-subject pieces, without refitting.

    A mode the direct fit would refuse is refused here too; an
    auxiliary-adjusted fit keeps stacked parts only when its centering is
    orthogonal.
    """
    _check_variance_mode(fit.method, mode, fit.stacked_parts is not None
                         or fit.method not in ADJUSTED)
    level = fit.ci_level if ci_level is None else ci_level
    check_ci_level(level)
    return replace(fit, vcov=_vcov(fit.parts, fit.stacked_parts, mode),
                   variance_mode=mode, ci_level=level)


# ---------------------------------------------------------------------------
# shared least-squares plumbing


def _ls_parts(X_use, y_use, w_use, beta, gram, n, t_use):
    """Per-subject pieces of a least-squares fit; its Gram is the bread."""
    D = X_use.reshape(n, t_use, X_use.shape[1])
    W = w_use.reshape(n, t_use)
    R = (y_use - X_use @ beta).reshape(n, t_use)
    scores = np.einsum("ntk,nt->nk", D, W * R)
    return SandwichParts(bread=gram, subject_scores=scores, model_matrix=D, weights=W)


def _rms(block: np.ndarray) -> np.ndarray:
    """Per-column root-mean-square of a (subjects, times, columns) block, scaled
    by each column's peak so that no square overflows."""
    peak = np.abs(block).max(axis=(0, 1))
    unit = block / np.where(peak > 0, peak, 1.0)
    return peak * np.sqrt(np.mean(unit ** 2, axis=(0, 1)))


def _check_auxiliary(ds: MrtDataset, zc: np.ndarray) -> None:
    """``zc`` is the centered auxiliary on the usable rows."""
    by_subj = (ds.n_subjects, ds.n_usable, ds.p_z)
    wnorm = _rms((np.sqrt(ds.usable(ds.weight_w))[:, None] * zc).reshape(by_subj))
    scale = 1.0 + _rms(ds.usable(ds.z).reshape(by_subj))
    bad = wnorm < 1e-9 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateAuxiliary(f"centered auxiliary column {ds.z_names[i]!r} "
                                  "has numerically zero weighted norm")


def _pooled_design(ds: MrtDataset, cm: CenteringModel | None, lagged: bool):
    """Design matrix on the usable rows, names and index slices for the pooled criteria."""
    ca = ds.usable(ds.centered_a)
    f = ds.usable(ds.f)
    cols, names = [], []

    if lagged:
        # lagged-outcome working models: each intermediate decision point t+u
        # contributes a centered-treatment block (A_{t+u} - p_{t+u}) with
        # intercept and auxiliary-slope columns; the time-t centering term is
        # spanned by the moderator features
        for u in range(1, ds.lag):
            ca_u = ds.usable(ds.a, u) - ds.usable(ds.p, u)
            z_u = ds.usable(ds.z, u)
            cols.append(ca_u[:, None])
            names.append(f"alpha_l{u}:1")
            for i, zn in enumerate(ds.z_names):
                cols.append((ca_u * z_u[:, i])[:, None])
                names.append(f"alpha_l{u}:{zn}")
        cols.append(f)
        names.extend(f"alpha_0:{n}" for n in ds.f_names)
    else:
        cols.append(ds.usable(ds.g))
        names.extend(f"alpha:{n}" for n in ds.g_names)

    beta0_start = len(names)
    cols.append(ca[:, None] * f)
    names.extend(f"beta0:{n}" for n in ds.f_names)
    beta0_idx = np.arange(beta0_start, len(names))

    beta1_idx = np.arange(0)
    if cm is not None:
        if ds.p_z < 1:
            raise DimensionMismatch("auxiliary adjustment requires auxiliary columns")
        zc = ds.usable(ds.z - cm.mu_rows(ds))
        _check_auxiliary(ds, zc)
        beta1_start = len(names)
        cols.append(ca[:, None] * zc)
        names.extend(f"beta1:{n}" for n in ds.z_names)
        beta1_idx = np.arange(beta1_start, len(names))

    X = np.column_stack([c if c.ndim == 2 else c[:, None] for c in cols])
    return X, names, beta0_idx, beta1_idx


def _fit_pooled(ds: MrtDataset, config: EstimatorConfig,
                cm: CenteringModel | None, lagged: bool) -> FitResult:
    X, names, b0_idx, b1_idx = _pooled_design(ds, cm, lagged)
    y, w = ds.usable(ds.y), ds.usable(ds.weight_w)
    beta, gram = wls_solve(X, y, w, ds.n_subjects)
    parts = _ls_parts(X, y, w, beta, gram, ds.n_subjects, ds.n_usable)
    _check_variance_mode(config.method, config.variance_mode, cm is None or cm.orthogonal)

    sp = None
    if cm is not None and cm.orthogonal:
        # the score's derivative in centering coefficient (k, i) is
        # beta1_i * P_N[sum_t w ca x f_k], and the beta0 columns of X are ca f_k,
        # so it is beta1_i times the Gram's beta0 column k; the residual's own
        # derivative term vanishes by the beta0 normal equations
        sp = StackedParts(u_theta_scores=cm.score_meta,
                          cross_derivative=np.kron(gram[:, b0_idx], beta[b1_idx]),
                          theta_bread=-np.kron(cm.gram, np.eye(len(b1_idx))))
    return _assemble(names, beta, b0_idx, b1_idx, parts, sp, config)


def _centered_controls(g: np.ndarray):
    """Cross-subject mean-centered controls; zero-variance columns drop out."""
    if g.shape[1] == 0:
        return g, np.arange(0)
    centered = g - g.mean(axis=0)
    scale = 1.0 + np.abs(g).mean(axis=0)
    keep = np.where(centered.std(axis=0) > 1e-12 * scale)[0]
    return centered[:, keep], keep


def _fit_per_time(ds: MrtDataset, t: int, config: EstimatorConfig) -> FitResult:
    """Proximal effect at decision ``t``: ``wcls_per_time`` adds mean-centered
    controls to the unadjusted fit, ``lin_per_time`` also their interactions."""
    sel = ds.t == t
    if not sel.any():
        raise DimensionMismatch(f"decision index t={t} not present")
    y = ds.y[sel]
    ca = (ds.a.astype(float) - ds.p)[sel]          # centered at the true p_t
    n = y.shape[0]
    cols = [np.ones((n, 1))]
    names = ["alpha:1"]
    b1_idx = np.arange(0)
    kept_names: tuple[str, ...] = ()
    if config.method != "unadjusted_per_time":
        # a column-indexed copy is column-major, so each mean is a pairwise sum
        gt, keep = _centered_controls(ds.g[sel][:, np.arange(1, ds.d)])
        kept_names = tuple(ds.g_names[1:][i] for i in keep)
        cols.append(gt)
        names.extend(f"alpha:{nm}~t{t}" for nm in kept_names)
    b0_pos = sum(c.shape[1] for c in cols)
    cols.append(ca[:, None])
    names.append("beta0:1")
    if config.method == "lin_per_time":
        start = sum(c.shape[1] for c in cols)
        cols.append(ca[:, None] * cols[1])
        names.extend(f"beta1:{nm}~t{t}" for nm in kept_names)
        b1_idx = np.arange(start, start + cols[-1].shape[1])
    X = np.column_stack(cols)
    w = np.ones(n)
    beta, gram = wls_solve(X, y, w, n)
    parts = _ls_parts(X, y, w, beta, gram, n, 1)
    return _assemble(names, beta, np.array([b0_pos]), b1_idx, parts, None, config)


# ---------------------------------------------------------------------------
# closed-form asymptotic gaps for the per-time comparisons


def closed_form_gaps(p: float, alpha1, beta1, sigma_g) -> dict[str, float]:
    """Asymptotic comparison terms for the three per-time estimators.

    ``gap_wcls_vs_u`` is the difference of meat terms (control-adjusted minus
    unadjusted); divide by ``(p(1-p))^2`` for the variance-scale difference.
    ``gap_lin_vs_u`` and ``gap_lin_vs_wcls`` are variance-scale reductions,
    both guaranteed nonnegative.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    alpha1 = np.atleast_1d(np.asarray(alpha1, dtype=float))
    beta1 = np.atleast_1d(np.asarray(beta1, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma_g, dtype=float))
    if sigma.shape[0] != sigma.shape[1] or sigma.shape[0] != alpha1.shape[0] \
            or beta1.shape[0] != alpha1.shape[0]:
        raise ValueError("alpha1, beta1, sigma_g dimensions are inconsistent")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError("sigma_g must be symmetric")
    if np.linalg.eigvalsh(sigma).min() < -1e-10 * max(1.0, np.trace(sigma)):
        raise ValueError("sigma_g must be positive semi-definite")
    pq = p * (1.0 - p)
    gap_wcls_vs_u = -pq * float(alpha1 @ sigma @ (alpha1 + 2.0 * (1.0 - 2.0 * p) * beta1))
    comb = alpha1 + (1.0 - 2.0 * p) * beta1
    gap_lin_vs_u = float(comb @ sigma @ comb) / pq + float(beta1 @ sigma @ beta1)
    gap_lin_vs_wcls = (1.0 - 3.0 * p + 3.0 * p * p) / pq * float(beta1 @ sigma @ beta1)
    return {"gap_wcls_vs_u": gap_wcls_vs_u,
            "gap_lin_vs_u": gap_lin_vs_u,
            "gap_lin_vs_wcls": gap_lin_vs_wcls}


# ---------------------------------------------------------------------------
# binary outcomes: log-relative-risk estimating equations


def _dot(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``M @ b``; a one-column ``@`` is several times slower than the product."""
    if M.shape[1] > 1:
        return M @ b
    return M[:, 0] * b[0] if b.ndim == 1 else M * b[0]


def _emee_system(ds: MrtDataset, feat: np.ndarray):
    """EMEE equations over the usable rows with design ``X = [g, ca * feat]``.

    ``evaluate(params)`` returns the per-row weighted residual ``r``, the
    averaged equations ``X' r / n`` and their Jacobian. As ``blip * mean`` is
    ``exp(g alpha)``, ``r = w blip (y - mean)`` is ``wy blip - w exp(g alpha)``.
    ``X`` and the row derivatives are held transposed, a contiguous row per column.
    """
    g, f_x = ds.usable(ds.g), ds.usable(feat)
    a, w = ds.usable(ds.a.astype(float)), ds.usable(ds.weight_w)
    wy = w * ds.usable(ds.y)
    awy = a * wy
    k_g, n = g.shape[1], ds.n_subjects
    Xt = np.empty((k_g + f_x.shape[1], len(w)))
    Xt[:k_g] = g.T
    np.multiply(f_x.T, ds.usable(ds.centered_a), out=Xt[k_g:])
    Dt = np.empty_like(Xt)                                   # -d r / d params

    def evaluate(params):
        # an overflow gives a non-finite norm, which the line search halves away
        # from; checked_solve rejects a non-finite Jacobian or equation vector
        with np.errstate(over="ignore", invalid="ignore"):
            blip = _dot(f_x, -params[k_g:])
            np.exp(np.multiply(blip, a, out=blip), out=blip)     # exp(-a feat beta)
            wbm = _dot(g, params[:k_g])
            np.multiply(np.exp(wbm, out=wbm), w, out=wbm)        # w blip mean
            r = wy * blip
            r -= wbm
            np.multiply(g.T, wbm, out=Dt[:k_g])
            np.multiply(f_x.T, np.multiply(blip, awy, out=blip), out=Dt[k_g:])
            return r, Xt @ r / n, Xt @ Dt.T / -n

    return evaluate, Xt


def _newton(evaluate, init: np.ndarray):
    """Damped Newton from ``init``, evaluating each iterate once with its Jacobian.

    Returns ``(params, n_iter, trace, r, jac)``: the root with its residual and
    Jacobian, so the sandwich needs no further evaluation.
    """
    params = init
    r, u, jac = evaluate(params)
    trace = [float(np.abs(u).max())]
    for it in range(_MAX_ITER + 1):
        if trace[-1] <= _TOL:
            return params, it, trace, r, jac
        if it == _MAX_ITER:
            raise NonConvergence(f"Newton failed to converge in {_MAX_ITER} iterations "
                                 f"(final norm {trace[-1]:.3g})", n_iter=_MAX_ITER)
        step = checked_solve(jac, u, SingularJacobian, "Newton Jacobian")
        for halvings in range(40):
            cand = params - 0.5 ** halvings * step
            out = evaluate(cand)
            norm = float(np.abs(out[1]).max())
            if norm < trace[-1]:
                break
        else:
            raise NonConvergence("step halving failed to reduce the estimating "
                                 f"equation norm ({trace[-1]:.3g})", n_iter=it + 1)
        params, (r, u, jac) = cand, out
        trace.append(norm)


def _check_binary(ds: MrtDataset):
    y = ds.usable(ds.y)
    if not np.isin(y, (0.0, 1.0)).all():
        raise DimensionMismatch("binary methods require outcomes in {0,1}")
    if not y.any():
        raise DimensionMismatch("binary outcome is identically zero")
    if y.all():
        raise DimensionMismatch("binary outcome is identically one")


def _binary_result(ds: MrtDataset, config: EstimatorConfig, Xt: np.ndarray, solved,
                   feat_names: list[str], n_iter: int, trace) -> FitResult:
    """The fit at the root of ``solved``, whose ``r`` and ``jac`` give the sandwich."""
    params, _, _, r, jac = solved
    scores = (Xt * r).reshape(len(Xt), ds.n_subjects, ds.n_usable).sum(axis=2).T
    parts = SandwichParts(bread=-jac, subject_scores=scores)   # positive orientation
    names = [f"alpha:{n}" for n in ds.g_names] + feat_names
    b0_idx = np.arange(ds.d, ds.d + ds.q)
    b1_idx = np.arange(ds.d + ds.q, ds.d + len(feat_names))
    return _assemble(names, params, b0_idx, b1_idx, parts, None, config,
                     n_iter=n_iter, trace=trace)


def _fit_binary(ds: MrtDataset, config: EstimatorConfig) -> FitResult:
    """Log-relative-risk excursion effect for binary outcomes: ``emee`` is one
    damped Newton solve from the log mean outcome as intercept.

    ``a2emee`` goes on from that fit with an alternating loop. Each pass solves
    the centering ``theta``, per auxiliary column, from the first-order (in the
    auxiliary slope) binary orthogonality condition, linear given the effect
    coefficients, then re-solves the EMEE with the centered auxiliary included.
    Passes stop once no entry of ``(params, theta)`` moves by ``_TOL``; only that
    pass builds the sandwich. No centering model or kind is taken.
    """
    if config.method == "a2emee" and ds.p_z < 1:
        raise DimensionMismatch("a2emee requires auxiliary columns")
    _check_binary(ds)
    init = np.zeros(ds.d + ds.q)
    init[0] = np.log(max(ds.usable(ds.y).mean(), 1e-8))
    evaluate, Xt = _emee_system(ds, ds.f)
    solved = _newton(evaluate, init)
    names = [f"beta0:{n}" for n in ds.f_names]
    if config.method == "emee":
        return _binary_result(ds, config, Xt, solved, names, solved[1], solved[2])
    w_az = ds.usable(ds.weight_w * ds.a.astype(float) * ds.centered_a * ds.y)
    f_use, z_use = ds.usable(ds.f), ds.usable(ds.z)
    params = np.concatenate([solved[0], np.zeros(ds.p_z)])
    theta = fit_centering(ds).theta
    names += [f"beta1:{n}" for n in ds.z_names]
    trace: list[float] = []
    state = None
    for outer in range(1, _MAX_ITER + 1):
        zc = ds.z - _dot(ds.f, theta)
        _check_auxiliary(ds, zc)
        evaluate = Xt = solved = None          # free the last system before the next
        evaluate, Xt = _emee_system(ds, np.column_stack([ds.f, zc]))
        solved = _newton(evaluate, params)
        params = solved[0]
        trace.append(solved[2][-1])
        prev, state = state, np.concatenate([params, theta.reshape(-1)])
        if prev is not None and float(np.abs(state - prev).max()) < _TOL:
            return _binary_result(ds, config, Xt, solved, names, outer, trace)
        weights = w_az * np.exp(-_dot(f_use, params[ds.d:ds.d + ds.q]))
        theta, _ = weighted_projection(f_use, z_use, weights, ds.n_subjects,
                                       SingularGram, "binary centering system")
    raise NonConvergence(
        f"alternating centering loop failed to converge in {_MAX_ITER} passes",
        n_iter=_MAX_ITER)


# ---------------------------------------------------------------------------
# dispatcher


def fit(ds: MrtDataset, config: EstimatorConfig,
        cm: CenteringModel | None = None, t: int | None = None) -> FitResult:
    """Run the configured estimator on ``ds``, the one entry for every method:
    an ``ADJUSTED`` method takes an optional centering model ``cm`` (else one of
    ``config.centering_kind`` is fitted), and only a ``PER_TIME`` method takes ``t``."""
    method = config.method
    if config.lag != ds.lag:
        raise DimensionMismatch(
            f"config lag {config.lag} does not match dataset lag {ds.lag}")
    if ds.horizon < ds.lag:
        raise LagHorizonExceeded(f"lag {ds.lag} exceeds panel horizon {ds.horizon}")
    if cm is not None and method not in ADJUSTED:
        raise DimensionMismatch("a2emee solves its own centering: no cm" if method == "a2emee"
                                else f"{method} takes no centering model")
    if method in PER_TIME:
        if t is None:
            raise DimensionMismatch("per-time methods need a decision index t")
        return _fit_per_time(ds, t, config)
    if t is not None:
        raise DimensionMismatch(f"{method} takes no decision index t")
    if method in ADJUSTED:
        kind = config.centering_kind
        if cm is None:
            cm = fit_centering(ds) if kind == "orthogonal" else \
                centering_from_rows(ds, naive_centerings(ds, kind), kind)
        return _fit_pooled(ds, config, cm, lagged=method == "a2wcls_lagged")
    if method == "wcls":
        return _fit_pooled(ds, config, None, lagged=False)
    return _fit_binary(ds, config)
