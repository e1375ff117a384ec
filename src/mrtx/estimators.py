"""Estimators for time-varying treatment effects in sequentially randomized panels.

Every continuous-outcome criterion reduces to one weighted normal-equations
engine, :func:`mrtx.variance.wls_solve`, which also solves every centering
projection; the methods differ only in how the design blocks are assembled.
Every pooled criterion, binary included, reads its design from one builder,
:func:`_pooled_design`:

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

Every method is fitted through :func:`fit`, a function of the dataset and
its :class:`EstimatorConfig` alone: the config states the method and variance
rules once, and ``fit`` the rules that need the dataset. Robust variance
always comes from retained per-subject scores; see :mod:`mrtx.variance`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .centering import (
    CENTERING_KINDS,
    CenteringModel,
    _dot,
    _usable_weights,
    fit_centering,
)
from .data import MrtDataset, _as_readonly
from .errors import (
    DegenerateAuxiliary,
    DimensionMismatch,
    NonConvergence,
    SingularBread,
    SingularGram,
    SingularJacobian,
)
from .variance import (
    SandwichParts,
    check_ci_level,
    checked_solve,
    confidence_intervals,
    plain_sandwich,
    stacked_sandwich,
    stacked_small_sample,
    wls_solve,
)

# the method rules: per-time fits need a decision index, proximal methods
# address the lag-1 outcome only, adjusted methods fit a centering model on
# the dataset, of the config's centering kind
PER_TIME = ("unadjusted_per_time", "wcls_per_time", "lin_per_time")
METHODS = PER_TIME + ("wcls", "a2wcls", "a2wcls_lagged", "emee", "a2emee")
PROXIMAL = PER_TIME + ("a2wcls", "emee", "a2emee")
ADJUSTED = ("a2wcls", "a2wcls_lagged")
VARIANCE_MODES = ("plain_sandwich", "stacked", "stacked_small_sample")
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
        # bool is an int subclass, and a stray string would reach the range checks
        if isinstance(self.lag, bool) or not isinstance(self.lag, numbers.Integral):
            raise DimensionMismatch(f"lag must be an integer, got {self.lag!r}")
        if self.lag < 1:
            raise DimensionMismatch(f"lag must be >= 1, got {self.lag}")
        if isinstance(self.ci_level, bool) or not isinstance(self.ci_level, numbers.Real):
            raise DimensionMismatch(f"ci_level must be a real number, got {self.ci_level!r}")
        if self.method not in METHODS:
            raise DimensionMismatch(f"unknown method {self.method!r}")
        if self.variance_mode not in VARIANCE_MODES:
            raise DimensionMismatch(f"unknown variance mode {self.variance_mode!r}")
        if self.centering_kind not in CENTERING_KINDS:
            raise DimensionMismatch(f"unknown centering kind {self.centering_kind!r}")
        # the variance rule: binary fits retain no per-subject model matrices,
        # and only an orthogonality-fitted centering can be stacked
        if self.variance_mode != "plain_sandwich":
            if self.method in _BINARY:
                raise DimensionMismatch("binary methods support plain_sandwich variance only")
            if self.method in ADJUSTED and self.centering_kind != "orthogonal":
                raise DimensionMismatch(
                    "stacked variance requires an orthogonality-fitted centering model")
        if self.method == "a2wcls_lagged" and self.lag < 2:
            raise DimensionMismatch("a2wcls_lagged requires lag >= 2")
        if self.method in PROXIMAL and self.lag != 1:
            raise DimensionMismatch(f"{self.method} is a proximal method (lag = 1)")
        if self.method == "a2emee" and self.centering_kind != "orthogonal":
            raise DimensionMismatch("a2emee solves its own centering: orthogonal kind only")
        check_ci_level(self.ci_level)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Point estimates plus retained variance machinery for one fit of ``config``.

    Coefficient blocks, SEs, intervals and p-values are properties derived
    from ``estimates``, ``vcov`` and ``param_names``, never stored copies: a
    parameter named ``beta0:...`` or ``beta1:...`` is in that block, any other
    in ``alpha``. The block indices, the SEs and the interval triple are
    computed once, on first read, as read-only arrays.
    """

    config: EstimatorConfig
    param_names: tuple[str, ...]
    estimates: np.ndarray
    vcov: np.ndarray
    parts: SandwichParts = field(repr=False)
    n_iter: int
    ee_norm_trace: tuple[float, ...] = ()

    @cached_property
    def beta0_idx(self) -> np.ndarray:
        return _as_readonly(np.flatnonzero([_block(n) == "beta0" for n in self.param_names]))

    @cached_property
    def beta1_idx(self) -> np.ndarray:
        return _as_readonly(np.flatnonzero([_block(n) == "beta1" for n in self.param_names]))

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
            self.estimates, self.se_all, self.config.ci_level,
            self.config.variance_mode == "stacked_small_sample", self.n_subjects,
            self.parts.dim))

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
        lines = [f"method: {self.config.method}",
                 f"n_subjects: {self.n_subjects}",
                 f"variance: {self.config.variance_mode}",
                 f"ci_level: {repr(self.config.ci_level)}",
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
        rows = []
        for i, name in enumerate(self.param_names):
            rows.append({"name": name, "block": _block(name),
                         "estimate": float(self.estimates[i]),
                         "se": float(se[i]),
                         "ci_lo": float(lo[i]),
                         "ci_hi": float(hi[i]),
                         "p_value": float(p[i])})
        return rows


def _block(name: str) -> str:
    """The coefficient block a parameter name's prefix states."""
    head = name.partition(":")[0]
    return head if head in ("beta0", "beta1") else "alpha"


def _vcov(parts, mode):
    if mode == "plain_sandwich":
        return plain_sandwich(parts)
    if mode == "stacked":
        return stacked_sandwich(parts)
    return stacked_small_sample(parts)


def _assemble(names, estimates, parts, config, n_iter=0, trace=()):
    return FitResult(
        config=config,
        param_names=tuple(names),
        estimates=estimates,
        vcov=_vcov(parts, config.variance_mode),
        parts=parts,
        n_iter=n_iter,
        ee_norm_trace=tuple(trace),
    )


def with_variance_mode(fit: FitResult, mode: str, ci_level: float | None = None) -> FitResult:
    """Recompute vcov/SE/CI from retained per-subject pieces, without refitting.

    The new config is checked as a direct fit's is, so a mode the direct fit
    would refuse is refused here too.
    """
    config = replace(fit.config, variance_mode=mode,
                     ci_level=fit.config.ci_level if ci_level is None else ci_level)
    return replace(fit, config=config, vcov=_vcov(fit.parts, mode))


# ---------------------------------------------------------------------------
# shared least-squares plumbing


def _ls_parts(X_use, y_use, w_use, beta, gram, gram_inv, n, t_use, shift=None):
    """Per-subject pieces of a least-squares fit; its Gram is the bread.

    The per-subject model matrix is ``X_use.T`` reshaped to ``(k, n, t_use)``, a view when
    ``X_use`` is column-major, retained transposed; ``y_use`` and ``w_use`` may be (n, t_use).
    """
    D = X_use.T.reshape(X_use.shape[1], n, t_use)
    W = w_use.reshape(n, t_use)
    # the weighted residual, in place; einsum sums without BLAS, whose gemv on a
    # design of 200 000 rows wakes OpenBLAS's idle threads to spin
    wr = np.einsum("knt,k->nt", D, beta)
    np.multiply(np.subtract(y_use.reshape(n, t_use), wr, out=wr), W, out=wr)
    scores = np.einsum("knt,nt->nk", D, wr)
    return SandwichParts(bread=gram, bread_inv=gram_inv, subject_scores=scores,
                         model_matrix=D.transpose(1, 2, 0), weights=W,
                         centering_shift=shift)


def _rms(block: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Per-column root-mean-square of a (subjects, times, columns) block, weighted
    by ``w`` (subjects, times) when given; each column is scaled by its peak so
    that no square overflows."""
    peak = np.maximum(block.max(axis=(0, 1)), -block.min(axis=(0, 1)))
    unit = block / np.where(peak > 0, peak, 1.0)
    sq = (np.einsum("nti,nti->i", unit, unit) if w is None
          else np.einsum("nti,nt,nti->i", unit, w, unit))
    # a weighted norm past float64 reads inf, which wls_solve then refuses
    with np.errstate(over="ignore"):
        return peak * np.sqrt(sq / (block.shape[0] * block.shape[1]))


def _pooled_design(ds: MrtDataset, cm: CenteringModel | None, lagged: bool):
    """Design matrix on the usable rows and its parameter names, for the pooled
    criteria; the ``beta0`` then the ``beta1`` columns come last.

    The design is column-major. Each column is written in place, as a
    ``(subjects, times)`` block, from per-subject views of the usable rows.
    """
    names = []
    if lagged:
        # lagged-outcome working models: each intermediate decision point t+u
        # contributes a centered-treatment block (A_{t+u} - p_{t+u}) with
        # intercept and auxiliary-slope columns; the time-t centering term is
        # spanned by the moderator features
        for u in range(1, ds.lag):
            names.append(f"alpha_l{u}:1")
            names.extend(f"alpha_l{u}:{zn}" for zn in ds.z_names)
        names.extend(f"alpha_0:{n}" for n in ds.f_names)
    else:
        names.extend(f"alpha:{n}" for n in ds.g_names)
    b0 = len(names)
    names.extend(f"beta0:{n}" for n in ds.f_names)
    if cm is not None:
        names.extend(f"beta1:{n}" for n in ds.z_names)

    X = np.empty((ds.n_subjects * ds.n_usable, len(names)), order="F")
    cols = X.T.reshape(len(names), ds.n_subjects, ds.n_usable)   # views of X's columns
    ca, f = ds.usable_block(ds.centered_a), ds.usable_block(ds.f)
    if lagged:
        for u in range(1, ds.lag):
            j = (u - 1) * (1 + ds.p_z)
            ca_u = np.subtract(ds.usable_block(ds.a, u), ds.usable_block(ds.p, u), out=cols[j])
            np.multiply(ca_u, ds.usable_block(ds.z, u).transpose(2, 0, 1),
                        out=cols[j + 1: j + 1 + ds.p_z])
        cols[b0 - ds.q: b0] = f.transpose(2, 0, 1)
    else:
        cols[:b0] = ds.usable_block(ds.g).transpose(2, 0, 1)
    np.multiply(ca, f.transpose(2, 0, 1), out=cols[b0: b0 + ds.q])
    if cm is not None:
        zc = cols[b0 + ds.q:].transpose(1, 2, 0)         # (subjects, times, p_z)
        z = ds.usable_block(ds.z)
        np.subtract(z, _dot(f, cm.theta, out=zc), out=zc)
        bad = _rms(zc, ds.usable_block(ds.weight_w)) < 1e-9 * (1.0 + _rms(z))
        if bad.any():
            raise DegenerateAuxiliary(f"centered auxiliary column {ds.z_names[np.argmax(bad)]!r}"
                                      " has numerically zero weighted norm")
        np.multiply(zc, ca[..., None], out=zc)
    return X, names


def _fit_pooled(ds: MrtDataset, config: EstimatorConfig,
                cm: CenteringModel | None, lagged: bool) -> FitResult:
    X, names = _pooled_design(ds, cm, lagged)
    y, w = ds.usable_block(ds.y_raw, ds.lag - 1), ds.usable_block(ds.weight_w)
    beta, gram, gram_inv = wls_solve(ds.per_subject(X), y, w, ds.n_subjects)
    shift = None
    if cm is not None and cm.orthogonal:
        # the score's derivative in centering coefficient (k, i) is
        # beta1_i * P_N[sum_t w ca x f_k], and the beta0 columns of X are ca f_k,
        # so it is beta1_i times the Gram's beta0 row k (the residual's own
        # derivative term vanishes by the beta0 normal equations); applied to
        # each subject's influence on theta, it is that subject's score shift
        b1 = len(names) - ds.p_z                  # the design ends [beta0, beta1]
        shift = (cm.influence @ beta[b1:]) @ gram[b1 - ds.q:b1]
    parts = _ls_parts(X, y, w, beta, gram, gram_inv, ds.n_subjects, ds.n_usable, shift)
    return _assemble(names, beta, parts, config)


def _centered_controls(g: np.ndarray, names: tuple[str, ...]):
    """Cross-subject mean-centered controls and their names; zero-variance columns
    drop out, and a column whose spread leaves float64 is a ``SingularGram``."""
    if g.shape[1] == 0:
        return g, ()
    with np.errstate(over="ignore", invalid="ignore"):      # an overflow is refused below
        centered = g - g.mean(axis=0)
        scale = 1.0 + np.abs(g).mean(axis=0)
        spread = centered.std(axis=0)
    bad = ~np.isfinite(spread)          # an overflowed mean or square makes it inf or nan
    if bad.any():
        raise SingularGram(f"control {names[np.argmax(bad)]!r} overflows float64 when "
                           "centered and squared: rescale it")
    keep = np.where(spread > 1e-12 * scale)[0]
    return centered[:, keep], tuple(names[i] for i in keep)


def _fit_per_time(ds: MrtDataset, t: int, config: EstimatorConfig) -> FitResult:
    """Proximal effect at decision ``t``: ``wcls_per_time`` adds mean-centered
    controls to the unadjusted fit, ``lin_per_time`` also their interactions."""
    sel = ds.t == t
    if not sel.any():
        raise DimensionMismatch(f"decision index t={t} not present")
    y = ds.y[sel]
    ca = (ds.a - ds.p)[sel]                        # centered at the true p_t
    n = y.shape[0]
    cols = [np.ones((n, 1))]
    names = ["alpha:1"]
    kept_names: tuple[str, ...] = ()
    if config.method != "unadjusted_per_time":
        # a column-indexed copy is column-major, so each mean is a pairwise sum
        gt, kept_names = _centered_controls(ds.g[sel][:, np.arange(1, ds.d)], ds.g_names[1:])
        cols.append(gt)
        names.extend(f"alpha:{nm}~t{t}" for nm in kept_names)
    cols.append(ca[:, None])
    names.append("beta0:1")
    if config.method == "lin_per_time":
        cols.append(ca[:, None] * cols[1])
        names.extend(f"beta1:{nm}~t{t}" for nm in kept_names)
    X = np.column_stack(cols)
    w = np.ones(n)
    beta, gram, gram_inv = wls_solve(X, y, w, n)
    parts = _ls_parts(X, y, w, beta, gram, gram_inv, n, 1)
    return _assemble(names, beta, parts, config)


# ---------------------------------------------------------------------------
# closed-form asymptotic gaps for the per-time comparisons


def closed_form_gaps(p: float, alpha1, beta1, sigma_g) -> dict[str, float]:
    """Asymptotic comparison terms for the three per-time estimators.

    ``gap_wcls_vs_u`` is the difference of meat terms (control-adjusted minus
    unadjusted); divide by ``(p(1-p))^2`` for the variance-scale difference.
    ``gap_lin_vs_u`` and ``gap_lin_vs_wcls`` are variance-scale reductions,
    both guaranteed nonnegative. A non-finite input, or a gap that leaves the
    float64 range, is a ``ValueError`` that names it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    alpha1 = np.atleast_1d(np.asarray(alpha1, dtype=float))
    beta1 = np.atleast_1d(np.asarray(beta1, dtype=float))
    for name, coef in (("alpha1", alpha1), ("beta1", beta1)):
        if coef.size == 0:
            raise ValueError(f"{name} is empty: it needs one entry per control")
    sigma = np.atleast_2d(np.asarray(sigma_g, dtype=float))
    for name, arr in (("alpha1", alpha1), ("beta1", beta1), ("sigma_g", sigma)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    if sigma.shape[0] != sigma.shape[1] or sigma.shape[0] != alpha1.shape[0] \
            or beta1.shape[0] != alpha1.shape[0]:
        raise ValueError("alpha1, beta1, sigma_g dimensions are inconsistent")
    with np.errstate(over="ignore", invalid="ignore"):      # an overflow is refused below
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise ValueError("sigma_g must be symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-10 * max(1.0, np.trace(sigma)):
            raise ValueError("sigma_g must be positive semi-definite")
        pq, c = p * (1.0 - p), 1.0 - 2.0 * p
        comb, bsb = alpha1 + c * beta1, float(beta1 @ sigma @ beta1)
        gaps = {"gap_wcls_vs_u": -pq * float(alpha1 @ sigma @ (alpha1 + 2.0 * c * beta1)),
                "gap_lin_vs_u": float(comb @ sigma @ comb) / pq + bsb,
                "gap_lin_vs_wcls": (1.0 - 3.0 * p + 3.0 * p * p) / pq * bsb}
    for name, value in gaps.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} overflows float64: rescale alpha1, beta1 or sigma_g")
    return gaps


# ---------------------------------------------------------------------------
# binary outcomes: log-relative-risk estimating equations


def _emee_system(ds: MrtDataset, cm: CenteringModel | None):
    """EMEE equations over the usable rows, on the pooled design ``X`` that
    :func:`_pooled_design` builds with centering ``cm``; returns
    ``(evaluate, X.T, names)``, the transpose a contiguous row per column.

    ``evaluate(params)`` returns the per-row weighted residual ``r``, the
    averaged equations ``X' r / n`` and their Jacobian. As ``blip * mean`` is
    ``exp(g alpha)``, ``r = w blip (y - mean)`` is ``wy blip - w exp(g alpha)``.
    The blip and the Jacobian read the features ``[f, z - f theta]`` unmultiplied,
    as ``a * feat`` is not bit-exact from ``X``'s ``(a - p_tilde) * feat``.
    """
    X, names = _pooled_design(ds, cm, False)
    feat = ds.f if cm is None else np.column_stack([ds.f, ds.z - cm.mu_rows(ds)])
    g, f_x = ds.usable(ds.g), ds.usable(feat)
    a, w = ds.usable(ds.a), ds.usable(ds.weight_w)
    wy = w * ds.y
    awy = a * wy
    k_g, n = g.shape[1], ds.n_subjects
    Xt, Dt = X.T, np.empty_like(X.T)                         # Dt: -d r / d params
    blip, wbm = np.empty(len(w)), np.empty(len(w))           # scratch rows, reused

    def evaluate(params):
        # an overflow gives a non-finite norm, which the line search halves away
        # from; checked_solve rejects a non-finite Jacobian or equation vector
        with np.errstate(over="ignore", invalid="ignore"):
            _dot(f_x, -params[k_g:], out=blip)
            np.exp(np.multiply(blip, a, out=blip), out=blip)     # exp(-a feat beta)
            _dot(g, params[:k_g], out=wbm)
            np.multiply(np.exp(wbm, out=wbm), w, out=wbm)        # w blip mean
            r = wy * blip
            r -= wbm
            np.multiply(g.T, wbm, out=Dt[:k_g])
            np.multiply(f_x.T, np.multiply(blip, awy, out=blip), out=Dt[k_g:])
            return r, Xt @ r / n, Xt @ Dt.T / -n

    return evaluate, Xt, names


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
    if not np.isin(ds.y, (0.0, 1.0)).all():
        raise DimensionMismatch("binary methods require outcomes in {0,1}")
    if not ds.y.any():
        raise DimensionMismatch("binary outcome is identically zero")
    if ds.y.all():
        raise DimensionMismatch("binary outcome is identically one")


def _binary_result(ds: MrtDataset, config: EstimatorConfig, system, solved,
                   n_iter: int, trace) -> FitResult:
    """The fit at the root of ``solved`` on ``system``; ``r`` and ``jac`` give the sandwich."""
    _, Xt, names = system
    params, _, _, r, jac = solved
    scores = np.einsum("knt,nt->nk", Xt.reshape(len(Xt), ds.n_subjects, ds.n_usable),
                       r.reshape(ds.n_subjects, ds.n_usable))
    parts = SandwichParts(bread=-jac, subject_scores=scores, bread_inv=checked_solve(
        -jac, np.eye(len(jac)), SingularBread, "sandwich bread"))   # positive orientation
    return _assemble(names, params, parts, config, n_iter=n_iter, trace=trace)


def _fit_binary(ds: MrtDataset, config: EstimatorConfig) -> FitResult:
    """Log-relative-risk excursion effect for binary outcomes: ``emee`` is one
    damped Newton solve from the log mean outcome as intercept.

    ``a2emee`` goes on from that fit with an alternating loop. Each pass solves
    the centering ``theta``, per auxiliary column, from the first-order (in the
    auxiliary slope) binary orthogonality condition, linear given the effect
    coefficients, then re-solves the EMEE with the centered auxiliary included.
    Passes stop once no entry of ``(params, theta)`` moves by ``_TOL``; only that
    pass builds the sandwich. The first pass starts from the continuous
    orthogonal centering, the projection under ``p_tilde (1 - p_tilde)`` weights.
    """
    _check_binary(ds)
    init = np.zeros(ds.d + ds.q)
    init[0] = np.log(max(ds.y.mean(), 1e-8))
    system = _emee_system(ds, None)
    solved = _newton(system[0], init)
    if config.method == "emee":
        return _binary_result(ds, config, system, solved, solved[1], solved[2])
    w_az = ds.usable(ds.weight_w * ds.a * ds.centered_a) * ds.y
    f_use, z_use = ds.usable(ds.f), ds.usable(ds.z)
    params = np.concatenate([solved[0], np.zeros(ds.p_z)])
    weights = _usable_weights(ds).reshape(-1)             # a binary fit is at lag 1
    trace: list[float] = []
    state = None
    for outer in range(1, _MAX_ITER + 1):
        theta = wls_solve(f_use, z_use, weights, ds.n_subjects)[0]
        system = solved = None                 # free the last system before the next
        system = _emee_system(ds, CenteringModel(theta))
        solved = _newton(system[0], params)
        params = solved[0]
        trace.append(solved[2][-1])
        prev, state = state, np.concatenate([params, theta.reshape(-1)])
        if prev is not None and float(np.abs(state - prev).max()) < _TOL:
            return _binary_result(ds, config, system, solved, outer, trace)
        weights = w_az * np.exp(-_dot(f_use, params[ds.d:ds.d + ds.q]))
    raise NonConvergence(
        f"alternating centering loop failed to converge in {_MAX_ITER} passes",
        n_iter=_MAX_ITER)


# ---------------------------------------------------------------------------
# dispatcher


def fit(ds: MrtDataset, config: EstimatorConfig, *, t: int | None = None) -> FitResult:
    """Run the configured estimator on ``ds``, the one entry for every method.

    An ``ADJUSTED`` method fits its centering model on ``ds``, of kind
    ``config.centering_kind``; only a ``PER_TIME`` method takes ``t``.
    """
    method = config.method
    if config.lag != ds.lag:
        raise DimensionMismatch(
            f"config lag {config.lag} does not match dataset lag {ds.lag}")
    if (method in ADJUSTED or method == "a2emee") and ds.p_z < 1:
        raise DimensionMismatch(f"{method} requires auxiliary columns")
    if method in PER_TIME:
        if t is None:
            raise DimensionMismatch("per-time methods need a decision index t")
        return _fit_per_time(ds, t, config)
    if t is not None:
        raise DimensionMismatch(f"{method} takes no decision index t")
    if method == "wcls" or method in ADJUSTED:
        cm = fit_centering(ds, config.centering_kind) if method in ADJUSTED else None
        return _fit_pooled(ds, config, cm, lagged=method == "a2wcls_lagged")
    return _fit_binary(ds, config)
