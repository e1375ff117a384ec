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

Robust variance always comes from retained per-subject scores; see
:mod:`mrtx.variance`.
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

METHODS = ("unadjusted_per_time", "wcls_per_time", "lin_per_time",
           "wcls", "a2wcls", "a2wcls_lagged", "emee", "a2emee")
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
        if self.method in ("a2wcls", "emee", "a2emee") and self.lag != 1:
            raise DimensionMismatch(f"{self.method} is a proximal method (lag = 1)")
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


def _assemble(method, names, estimates, beta0_idx, beta1_idx, parts, sp,
              config, n_iter=0, trace=()):
    return FitResult(
        method=method,
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
                         or fit.method not in ("a2wcls", "a2wcls_lagged"))
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
        if ds.d < 1:
            raise DimensionMismatch("criterion requires at least one control column")
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
    return _assemble(config.method, names, beta, b0_idx, b1_idx, parts, sp, config)


def _resolve_centering(ds: MrtDataset, cm: CenteringModel | None,
                       config: EstimatorConfig) -> CenteringModel:
    if cm is not None:
        return cm
    if config.centering_kind == "orthogonal":
        return fit_centering(ds)
    mu = naive_centerings(ds, config.centering_kind)
    return centering_from_rows(ds, mu, config.centering_kind)


# ---------------------------------------------------------------------------
# public continuous-outcome fits


def fit_wcls(ds: MrtDataset, config: EstimatorConfig | None = None) -> FitResult:
    """Pooled weighted-and-centered least squares for the lag-``ds.lag`` effect."""
    config = config or EstimatorConfig(method="wcls", lag=ds.lag)
    return _fit_pooled(ds, replace(config, method="wcls"), cm=None, lagged=False)


def fit_a2wcls(ds: MrtDataset, cm: CenteringModel | None = None,
               config: EstimatorConfig | None = None) -> FitResult:
    """Auxiliary-adjusted pooled criterion for the proximal effect."""
    config = config or EstimatorConfig(method="a2wcls")
    config = replace(config, method="a2wcls")
    cm = _resolve_centering(ds, cm, config)
    return _fit_pooled(ds, config, cm=cm, lagged=False)


def fit_a2wcls_lagged(ds: MrtDataset, cm: CenteringModel | None = None,
                      config: EstimatorConfig | None = None) -> FitResult:
    """Lagged-outcome criterion with intermediate-decision working models.

    For each intermediate decision point ``t+u`` the working model
    contributes a centered-treatment block ``(A_{t+u} - p_{t+u})`` with
    intercept and auxiliary-slope columns; the time-``t`` centering term is
    spanned by the moderator features. Auxiliary adjustment and variance
    handling match :func:`fit_a2wcls`.
    """
    if ds.lag < 2:
        raise DimensionMismatch("a2wcls_lagged requires a dataset with lag >= 2")
    if ds.horizon < ds.lag:
        raise LagHorizonExceeded(f"lag {ds.lag} exceeds panel horizon {ds.horizon}")
    config = config or EstimatorConfig(method="a2wcls_lagged", lag=ds.lag)
    config = replace(config, method="a2wcls_lagged", lag=ds.lag)
    cm = _resolve_centering(ds, cm, config)
    return _fit_pooled(ds, config, cm=cm, lagged=True)


def _per_time_rows(ds: MrtDataset, t: int):
    if ds.lag != 1:
        raise DimensionMismatch("per-time estimators address the proximal outcome (lag 1)")
    sel = ds.t == t
    if not sel.any():
        raise DimensionMismatch(f"decision index t={t} not present")
    return sel


def _centered_controls(g: np.ndarray):
    """Cross-subject mean-centered controls; zero-variance columns drop out."""
    if g.shape[1] == 0:
        return g, np.arange(0)
    centered = g - g.mean(axis=0)
    scale = 1.0 + np.abs(g).mean(axis=0)
    keep = np.where(centered.std(axis=0) > 1e-12 * scale)[0]
    return centered[:, keep], keep


def _fit_per_time(ds: MrtDataset, t: int, config: EstimatorConfig,
                  with_controls: bool, with_interactions: bool,
                  method: str) -> FitResult:
    sel = _per_time_rows(ds, t)
    y = ds.y[sel]
    ca = (ds.a.astype(float) - ds.p)[sel]          # centered at the true p_t
    n = y.shape[0]
    cols = [np.ones((n, 1))]
    names = ["alpha:1"]
    b1_idx = np.arange(0)
    kept_names: tuple[str, ...] = ()
    if with_controls:
        gt, keep = _centered_controls(ds.g[sel][:, [i for i, nm in enumerate(ds.g_names)
                                                    if nm != "1"]])
        kept_names = tuple(nm for nm in ds.g_names if nm != "1")
        kept_names = tuple(kept_names[i] for i in keep)
        cols.append(gt)
        names.extend(f"alpha:{nm}~t{t}" for nm in kept_names)
    b0_pos = sum(c.shape[1] for c in cols)
    cols.append(ca[:, None])
    names.append("beta0:1")
    if with_interactions and with_controls:
        start = sum(c.shape[1] for c in cols)
        cols.append(ca[:, None] * cols[1])
        names.extend(f"beta1:{nm}~t{t}" for nm in kept_names)
        b1_idx = np.arange(start, start + cols[-1].shape[1])
    X = np.column_stack(cols)
    w = np.ones(n)
    beta, gram = wls_solve(X, y, w, n)
    parts = _ls_parts(X, y, w, beta, gram, n, 1)
    return _assemble(method, names, beta, np.array([b0_pos]), b1_idx, parts, None,
                     config)


def fit_unadjusted_per_time(ds: MrtDataset, t: int,
                            config: EstimatorConfig | None = None) -> FitResult:
    """Proximal effect at decision ``t`` from outcome and treatment alone."""
    config = config or EstimatorConfig(method="unadjusted_per_time")
    return _fit_per_time(ds, t, config, False, False, "unadjusted_per_time")


def fit_wcls_per_time(ds: MrtDataset, t: int,
                      config: EstimatorConfig | None = None) -> FitResult:
    """Adds mean-centered controls to the per-time criterion."""
    config = config or EstimatorConfig(method="wcls_per_time")
    return _fit_per_time(ds, t, config, True, False, "wcls_per_time")


def fit_lin_per_time(ds: MrtDataset, t: int,
                     config: EstimatorConfig | None = None) -> FitResult:
    """Adds centered controls and their treatment interactions."""
    config = config or EstimatorConfig(method="lin_per_time")
    return _fit_per_time(ds, t, config, True, True, "lin_per_time")


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


def _emee_system(ds: MrtDataset, feat: np.ndarray):
    """EMEE equations over the usable rows with design ``X = [g, ca * feat]``.

    ``evaluate(params, want_jac)`` returns the per-row weighted residual ``r``,
    the averaged equations ``X' r / n`` and, if asked, their Jacobian.
    """
    g = ds.usable(ds.g)
    f_x = ds.usable(feat)
    a = ds.usable(ds.a.astype(float))
    y = ds.usable(ds.y)
    w_u = ds.usable(ds.weight_w)
    ca_u = ds.usable(ds.centered_a)
    X = np.column_stack([g, ca_u[:, None] * f_x])
    n = ds.n_subjects
    k_g = g.shape[1]

    def evaluate(params, want_jac):
        # an overflow gives a non-finite norm, which the line search halves away
        # from; checked_solve rejects a non-finite Jacobian or equation vector
        with np.errstate(over="ignore", invalid="ignore"):
            alpha, betab = params[:k_g], params[k_g:]
            lin_b = f_x @ betab
            blip = np.exp(-a * lin_b)
            mean = np.exp(g @ alpha + a * lin_b)
            r = w_u * blip * (y - mean)
            u = X.T @ r / n
            if not want_jac:
                return r, u, None
            # d(blip * resid)/dalpha = -blip*mean*g ; d/dbeta = -a*blip*y*f
            da = -(w_u * blip * mean)[:, None] * g
            db = -(w_u * a * blip * y)[:, None] * f_x
            return r, u, X.T @ np.column_stack([da, db]) / n

    return evaluate, X


def _newton(evaluate, init: np.ndarray):
    params = init.copy()
    _, u, _ = evaluate(params, False)
    norm = float(np.abs(u).max())
    trace = [norm]
    for it in range(1, _MAX_ITER + 1):
        if norm <= _TOL:
            return params, it - 1, trace
        _, u, jac = evaluate(params, True)
        step = checked_solve(jac, u, SingularJacobian, "Newton Jacobian")
        scale = 1.0
        for _ in range(40):
            cand = params - scale * step
            _, u_new, _ = evaluate(cand, False)
            norm_new = float(np.abs(u_new).max())
            if norm_new < norm:
                break
            scale *= 0.5
        else:
            raise NonConvergence("step halving failed to reduce the estimating "
                                 f"equation norm ({norm:.3g})", n_iter=it)
        params, norm = cand, norm_new
        trace.append(norm)
    if norm <= _TOL:
        return params, _MAX_ITER, trace
    raise NonConvergence(f"Newton failed to converge in {_MAX_ITER} iterations "
                         f"(final norm {norm:.3g})", n_iter=_MAX_ITER)


def _check_binary(ds: MrtDataset):
    y = ds.usable(ds.y)
    if not np.isin(y, (0.0, 1.0)).all():
        raise DimensionMismatch("binary methods require outcomes in {0,1}")
    if not y.any():
        raise DimensionMismatch("binary outcome is identically zero")
    if y.all():
        raise DimensionMismatch("binary outcome is identically one")


def _emee_init(ds: MrtDataset) -> np.ndarray:
    """Newton start for the EMEE without auxiliary: the log mean outcome as intercept."""
    init = np.zeros(ds.d + ds.q)
    if "1" in ds.g_names:
        init[list(ds.g_names).index("1")] = np.log(max(ds.usable(ds.y).mean(), 1e-8))
    return init


def _binary_result(ds: MrtDataset, config: EstimatorConfig, evaluate, X: np.ndarray,
                   params: np.ndarray, feat_names: list[str], n_iter: int,
                   trace) -> FitResult:
    """Sandwich pieces at the root ``params`` and the assembled fit."""
    r, _, jac = evaluate(params, True)
    scores = (X * r[:, None]).reshape(ds.n_subjects, ds.n_usable, -1).sum(axis=1)
    parts = SandwichParts(bread=-jac, subject_scores=scores)   # positive orientation
    names = [f"alpha:{n}" for n in ds.g_names] + feat_names
    b0_idx = np.arange(ds.d, ds.d + ds.q)
    b1_idx = np.arange(ds.d + ds.q, ds.d + len(feat_names))
    return _assemble(config.method, names, params, b0_idx, b1_idx, parts, None, config,
                     n_iter=n_iter, trace=trace)


def fit_emee(ds: MrtDataset, config: EstimatorConfig | None = None) -> FitResult:
    """Log-relative-risk excursion effect for binary outcomes (damped Newton)."""
    config = config or EstimatorConfig(method="emee")
    config = replace(config, method="emee")
    _check_binary(ds)
    evaluate, X = _emee_system(ds, ds.f)
    params, n_iter, trace = _newton(evaluate, _emee_init(ds))
    return _binary_result(ds, config, evaluate, X, params,
                          [f"beta0:{n}" for n in ds.f_names], n_iter, trace)


def fit_a2emee(ds: MrtDataset, cm: CenteringModel | None = None,
               config: EstimatorConfig | None = None) -> FitResult:
    """Auxiliary-adjusted binary fit via an alternating centering loop.

    The centering coefficients solve, per auxiliary column, the first-order
    (in the auxiliary slope) version of the binary orthogonality condition,
    which is linear given the current effect coefficients; the effect and
    nuisance coefficients are then re-solved by Newton with the centered
    auxiliary interaction included. Passes stop once no entry of
    ``(params, theta)`` moves by ``_TOL`` from the previous pass; only that
    pass builds the sandwich. Since ``theta`` solves this binary condition,
    no centering model or kind is taken.
    """
    config = config or EstimatorConfig(method="a2emee")
    config = replace(config, method="a2emee")
    if cm is not None or config.centering_kind != "orthogonal":
        raise DimensionMismatch("a2emee solves its own centering: no cm, orthogonal kind only")
    if ds.p_z < 1:
        raise DimensionMismatch("a2emee requires auxiliary columns")
    _check_binary(ds)
    w_az = ds.usable(ds.weight_w * ds.a.astype(float) * ds.centered_a * ds.y)
    f_use, z_use = ds.usable(ds.f), ds.usable(ds.z)
    base = _newton(_emee_system(ds, ds.f)[0], _emee_init(ds))[0]
    params = np.concatenate([base, np.zeros(ds.p_z)])
    theta = fit_centering(ds).theta
    names = [f"beta0:{n}" for n in ds.f_names] + [f"beta1:{n}" for n in ds.z_names]
    trace: list[float] = []
    state = None
    for outer in range(1, _MAX_ITER + 1):
        zc = ds.z - ds.f @ theta
        _check_auxiliary(ds, zc)
        evaluate, X = _emee_system(ds, np.column_stack([ds.f, zc]))
        params, _, pass_trace = _newton(evaluate, params)
        trace.append(pass_trace[-1])
        prev, state = state, np.concatenate([params, theta.reshape(-1)])
        if prev is not None and float(np.abs(state - prev).max()) < _TOL:
            return _binary_result(ds, config, evaluate, X, params, names, outer, trace)
        weights = w_az * np.exp(-f_use @ params[ds.d:ds.d + ds.q])
        theta, _ = weighted_projection(f_use, z_use, weights, ds.n_subjects,
                                       SingularGram, "binary centering system")
    raise NonConvergence(
        f"alternating centering loop failed to converge in {_MAX_ITER} passes",
        n_iter=_MAX_ITER)


# ---------------------------------------------------------------------------
# dispatcher


def fit(ds: MrtDataset, config: EstimatorConfig,
        cm: CenteringModel | None = None, t: int | None = None) -> FitResult:
    """Run the configured estimator on ``ds`` (``t`` for per-time methods)."""
    if config.lag != ds.lag:
        raise DimensionMismatch(
            f"config lag {config.lag} does not match dataset lag {ds.lag}")
    if config.method.endswith("per_time"):
        if t is None:
            raise DimensionMismatch("per-time methods need a decision index t")
        return {"unadjusted_per_time": fit_unadjusted_per_time,
                "wcls_per_time": fit_wcls_per_time,
                "lin_per_time": fit_lin_per_time}[config.method](ds, t, config)
    if config.method == "wcls":
        return fit_wcls(ds, config)
    if config.method == "a2wcls":
        return fit_a2wcls(ds, cm, config)
    if config.method == "a2wcls_lagged":
        return fit_a2wcls_lagged(ds, cm, config)
    if config.method == "emee":
        return fit_emee(ds, config)
    return fit_a2emee(ds, cm, config)
