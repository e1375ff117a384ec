"""Panel generators and the seeded Monte Carlo harness.

Each generator kind reproduces one benchmark design: a two-decision lagged
outcome model (``lagged_eq12``), its re-indexed proximal view
(``proximal_j2``), a time-varying moderated design with a drifting state
(``timevarying_j3``), a no-moderation robustness design
(``nonmoderator_robust``), a drifting-state design that breaks global-mean
centering (``centerbias_j1``), and a binary-outcome demo (``binary_demo``).

Randomization follows ``p_t = expit(eta1 * A_{t-1} + eta2 * Z_t)`` with
``A_0 = 0``; errors are stationary Gaussian with autocorrelation
``0.5 ** (|u - t| / 2)``, realized by an AR(1) recursion. Replicates draw
independent substreams from ``(seed, replicate_index)``, so results do not
depend on scheduling.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .data import MrtDataset, Schema, from_columns
from .errors import ConfigParse, MrtxError, ZeroVariance
from .estimators import PER_TIME, EstimatorConfig, fit as run_fit

KINDS = ("lagged_eq12", "proximal_j2", "timevarying_j3",
         "nonmoderator_robust", "centerbias_j1", "binary_demo")

# drift and ramp constants for the centering-bias design, calibrated against criterion
# 4's beta11=0.8 global-mean est_mean (population -0.2097 at _J1_AMP 0.30, -0.2264 at
# 0.49; band -0.227 +- 0.01) and cp cells; see the README's "Known reproduction gap"
_J1_AMP = 0.46
_J1_ETA = (-0.8, 2.2)
_J1_MAIN = 0.8

# share of the time-varying design's effect perturbation carried by the
# observed state deviation
_J3_RHO = 0.8

# the columns a kind generates after subject_id, t, a, p, y and z
_EXTRA_COLUMNS = {"lagged_eq12": ("a_next", "z_next"), "proximal_j2": ("prev_ca", "prev_caz"),
                  "centerbias_j1": ("ptilde",)}


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _is_number(value, kind=numbers.Real) -> bool:
    # bool is a number subclass, and a string would reach the draws
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class DgmSpec:
    """Declarative description of one simulation design.

    ``beta0`` is the target effect (a pair for the time-varying kind, where
    the effect is linear in t); ``beta1`` is the kind's moderation knob. A kind
    that never reads ``beta1`` or ``eta`` refuses a value other than the default.
    """

    kind: str
    n: int
    horizon: int
    beta0: float | tuple[float, float] = -0.1
    beta1: float = 0.0
    eta: tuple[float, float] = (-0.8, 0.8)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigParse(f"unknown DGM kind {self.kind!r}")
        for name, low in (("n", 1), ("horizon", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral) or value < low:
                raise ConfigParse(
                    ("n and horizon must be >= 1" if low else "seed must be >= 0")
                    + f" and integral, got {name}={value!r}")
        if not _is_number(self.beta1):
            raise ConfigParse(f"beta1 must be a real number, got beta1={self.beta1!r}")
        if not (isinstance(self.eta, (list, tuple)) and len(self.eta) == 2
                and all(_is_number(e) for e in self.eta)):
            raise ConfigParse(f"eta must be a pair of real numbers, got eta={self.eta!r}")
        if self.kind in ("nonmoderator_robust", "binary_demo") and self.beta1 != 0.0:
            raise ConfigParse(f"{self.kind} does not read beta1, got beta1={self.beta1!r}")
        if self.kind == "centerbias_j1" and tuple(self.eta) != (-0.8, 0.8):
            raise ConfigParse(f"centerbias_j1 draws with its own eta, got eta={self.eta!r}")
        # only the time-varying kind's effect is linear in t
        pair = self.kind == "timevarying_j3"
        if pair and isinstance(self.beta0, (list, tuple)) and len(self.beta0) == 2 \
                and all(_is_number(b) for b in self.beta0):
            object.__setattr__(self, "beta0", tuple(float(b) for b in self.beta0))
        elif not _is_number(self.beta0):
            raise ConfigParse(f"beta0 for {self.kind} must be a scalar"
                              f"{' or a pair' if pair else ''}, got {self.beta0!r}")
        # a non-finite setting would surface only as a bad value in the generated panel
        for name in ("beta0", "beta1", "eta"):
            value = getattr(self, name)
            if not all(math.isfinite(v) for v in np.atleast_1d(value)):
                raise ConfigParse(f"{name} must be finite, got {name}={value!r}")

    @property
    def lag(self) -> int:
        """Lag of the effect the design targets: 2 for ``lagged_eq12``, else 1."""
        return 2 if self.kind == "lagged_eq12" else 1

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the columns :func:`gen_panel` generates for this kind, in order."""
        return ("subject_id", "t", "a", "p", "y", "z", *_EXTRA_COLUMNS.get(self.kind, ()))


def _rng_for(spec: DgmSpec, replicate: int | None = None) -> np.random.Generator:
    if replicate is None:
        return np.random.default_rng(np.random.SeedSequence(spec.seed))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(replicate,)))


def gen_ar_errors(T: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """Stationary N(0,1) errors with corr(e_u, e_t) = 0.5 ** (|u-t|/2), shape (n, T).

    AR(1) recursion with coefficient 2**-0.5 and innovation SD sqrt(1 - 1/2), in
    place over a time-major copy of the innovations, each step contiguous.
    """
    phi = 2.0 ** -0.5
    innov_sd = np.sqrt(0.5)
    out = np.ascontiguousarray(rng.standard_normal((n, T)).T)
    prev = np.empty(n)
    for t in range(1, T):
        out[t] *= innov_sd
        out[t] += np.multiply(out[t - 1], phi, out=prev)
    return out.T


def _draw_sequential(n, T, eta, rng, draw_z):
    """Common loop: Z_t, then p_t from (A_{t-1}, Z_t), then A_t; returns (n, T) views
    of time-major buffers, so each step writes one contiguous row."""
    Z = np.empty((T, n))
    P = np.empty((T, n))
    A = np.empty((T, n))
    prev_a = np.zeros(n)
    for t in range(T):
        Z[t] = draw_z(t, prev_a)
        P[t] = expit(eta[0] * prev_a + eta[1] * Z[t])
        A[t] = rng.random(n) < P[t]
        prev_a = A[t]
    return Z.T, P.T, A.T


def _panel_columns(n, T, **arrays):
    return {"subject_id": np.repeat(np.arange(1, n + 1), T),
            "t": np.tile(np.arange(1.0, T + 1), n),
            **{name: np.asarray(arr, dtype=float).reshape(-1) for name, arr in arrays.items()}}


def _sim_two_decision(spec: DgmSpec, rng, noise_scale: float, y2: np.ndarray):
    """Shared generative core for the lagged and proximal designs, outcomes into ``y2``.

    The outcome two steps after decision t combines a prognostic state term,
    the next decision's centered-treatment effect (constant part
    ``prox_b0``, state moderation ``prox_b1``), the current decision's
    centered-treatment effect (``lag_b0``, moderation ``lag_b1``), and an
    autocorrelated error, summed in that order.
    """
    n, T = spec.n, spec.horizon
    if spec.kind == "lagged_eq12":
        lag_b0, lag_b1 = float(spec.beta0), float(spec.beta1)
        prox_b0, prox_b1 = -0.2, 0.8
    else:
        prox_b0, prox_b1 = float(spec.beta0), 0.8
        lag_b0, lag_b1 = -0.1, float(spec.beta1)
    Z, P, A = _draw_sequential(n, T, spec.eta, rng,
                               lambda t, prev: rng.integers(0, 2, n) * 2.0 - 1.0)
    eps = gen_ar_errors(T, rng, n=n)
    eps *= noise_scale
    ca = A - P
    # Z is symmetric two-point, so its analytic mean is zero
    acc = np.multiply(Z[:, 1:], 0.2)          # summed in the draws' time-major layout
    term = np.empty_like(acc)
    for b0, b1, z, c in ((prox_b0, prox_b1, Z[:, 1:], ca[:, 1:]),
                         (lag_b0, lag_b1, Z[:, :-1], ca[:, :-1])):
        np.multiply(z, b1, out=term)
        term += b0
        term *= c
        acc += term
    np.add(acc, eps[:, :-1], out=y2)           # the one write of the outcome column
    return Z, P, A


def _build_lagged(spec: DgmSpec, rng, noise_scale):
    n, T = spec.n, spec.horizon
    y_raw = np.zeros((n, T))           # proximal convention: raw row t is Y_{t+1}
    Z, P, A = _sim_two_decision(spec, rng, noise_scale, y_raw[:, 1:])
    a_next, z_next = np.zeros((n, T)), np.zeros((n, T))
    a_next[:, :-1], z_next[:, :-1] = A[:, 1:], Z[:, 1:]
    cols = _panel_columns(n, T, a=A, p=P, y=y_raw, z=Z, a_next=a_next, z_next=z_next)
    return from_columns(cols, Schema(aux=("z",)), lag=spec.lag)


def _build_proximal(spec: DgmSpec, rng, noise_scale):
    n, T = spec.n, spec.horizon
    y, prev_ca, prev_caz = (np.empty((n, T - 1)) for _ in range(3))
    Z, P, A = _sim_two_decision(spec, rng, noise_scale, y)
    # re-index on the second decision of each pair: T-1 usable proximal rows
    np.subtract(A[:, :-1], P[:, :-1], out=prev_ca)
    cols = _panel_columns(n, T - 1, a=A[:, 1:], p=P[:, 1:], y=y, z=Z[:, 1:], prev_ca=prev_ca,
                          prev_caz=np.multiply(prev_ca, Z[:, :-1], out=prev_caz))
    return from_columns(cols, Schema(aux=("z",), controls=("z", "prev_ca", "prev_caz")))


def _build_timevarying(spec: DgmSpec, rng, noise_scale):
    """Drifting state with a time-linear effect.

    The state deviates from its conditional mean by a unit-normal draw plus
    a small uniform wobble; the effect perturbation is carried partly
    (coefficient ``_J3_RHO``) by that observed deviation, which is what the
    auxiliary adjustment can exploit.
    """
    n, T = spec.n, spec.horizon
    b00, b01 = spec.beta0 if isinstance(spec.beta0, tuple) else (spec.beta0, 0.0)
    state_mean = {}
    state_dev = {}

    def draw_z(t, prev_a):
        zt = 0.05 * (t + 1) + 0.1 * prev_a
        state_mean[t] = zt
        u = rng.standard_normal(n)
        state_dev[t] = u
        half = 0.01 * (t + 1)
        return zt + u + rng.uniform(-half, half, n)

    Z, P, A = _draw_sequential(n, T, spec.eta, rng, draw_z)
    # the scaled errors, copied once to subject-major; the mean part is added in place
    y = np.multiply(gen_ar_errors(T, rng, n=n), noise_scale, out=np.empty((n, T)))
    u_mat = np.stack([state_dev[t] for t in range(T)], axis=1)
    delta = noise_scale * (_J3_RHO * u_mat
                           + np.sqrt(1.0 - _J3_RHO ** 2) * rng.standard_normal((n, T)))
    tgrid = np.arange(1, T + 1)[None, :]
    zmean = np.stack([state_mean[t] for t in range(T)], axis=1)
    y += (b00 + b01 * tgrid + delta + spec.beta1 * (Z - zmean)) * (A - P) + 0.8 * Z
    cols = _panel_columns(n, T, a=A, p=P, y=y, z=Z)
    return from_columns(cols, Schema(moderators=("t",), aux=("z",), controls=("z", "t")))


def _build_robust(spec: DgmSpec, rng, noise_scale):
    n, T = spec.n, spec.horizon
    Z, P, A = _draw_sequential(n, T, spec.eta, rng,
                               lambda t, prev: rng.integers(0, 2, n) * 2.0 - 1.0)
    y = np.multiply(gen_ar_errors(T, rng, n=n), noise_scale, out=np.empty((n, T)))
    y += 0.2 * Z + float(spec.beta0) * (A - P)
    cols = _panel_columns(n, T, a=A, p=P, y=y, z=Z)
    return from_columns(cols, Schema(aux=("z",), controls=("z",)))


def _build_centerbias(spec: DgmSpec, rng, noise_scale):
    """Two-point state with a time-ramped success probability.

    The treatment rate then drifts over the study, so a time-varying weight
    numerator (the per-time treatment frequency) puts non-constant weight on
    decision points, and the pooled mean of Z no longer satisfies the
    orthogonality condition.
    """
    n, T = spec.n, spec.horizon
    ramp = (2.0 * np.arange(T) / max(T - 1, 1)) - 1.0      # -1 .. 1
    qz = 0.5 + _J1_AMP * ramp
    mz = 2.0 * qz - 1.0

    def draw_z(t, prev_a):
        return np.where(rng.random(n) < qz[t], 1.0, -1.0)

    Z, P, A = _draw_sequential(n, T, _J1_ETA, rng, draw_z)
    y = np.multiply(gen_ar_errors(T, rng, n=n), noise_scale, out=np.empty((n, T)))
    y += _J1_MAIN * Z + (float(spec.beta0) + spec.beta1 * (Z - mz[None, :])) * (A - P)
    ptilde_t = np.clip(A.mean(axis=0), 1.0 / (2 * n), 1.0 - 1.0 / (2 * n))
    ptilde = np.broadcast_to(ptilde_t, (n, T))
    cols = _panel_columns(n, T, a=A, p=P, y=y, z=Z, ptilde=ptilde)
    return from_columns(cols, Schema(aux=("z",), controls=("z",), ptilde="ptilde"))


def _build_binary(spec: DgmSpec, rng, noise_scale):
    n, T = spec.n, spec.horizon
    Z, P, A = _draw_sequential(n, T, spec.eta, rng,
                               lambda t, prev: rng.integers(0, 2, n) * 2.0 - 1.0)
    prob = expit(-1.0 + 0.2 * Z) * np.exp(float(spec.beta0) * A)
    y = (rng.random((n, T)) < prob).astype(float)
    cols = _panel_columns(n, T, a=A, p=P, y=y, z=Z)
    return from_columns(cols, Schema(aux=("z",), controls=("z",)))


_BUILDERS = {
    "lagged_eq12": _build_lagged,
    "proximal_j2": _build_proximal,
    "timevarying_j3": _build_timevarying,
    "nonmoderator_robust": _build_robust,
    "centerbias_j1": _build_centerbias,
    "binary_demo": _build_binary,
}


def gen_panel(spec: DgmSpec, rng: np.random.Generator | None = None,
              noise_scale: float = 1.0) -> MrtDataset:
    """Generate one panel for ``spec`` (``noise_scale=0`` is a test hook)."""
    return _BUILDERS[spec.kind](spec, _rng_for(spec) if rng is None else rng, noise_scale)


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass(frozen=True)
class McArm:
    """One estimator arm; ``schema`` re-views each replicate's panel before the fit."""

    label: str
    config: EstimatorConfig
    schema: Schema | None = None


@dataclass(eq=False)
class McReport:
    """Aggregated Monte Carlo comparison, with replicate-level detail retained."""

    spec: DgmSpec
    labels: tuple[str, ...]
    coef_names: tuple[str, ...]
    truth: np.ndarray
    replicates: int
    rows: list[dict]
    est: np.ndarray            # (R, arms, q)
    se: np.ndarray
    varhat: np.ndarray
    cover: np.ndarray
    ok: np.ndarray             # (R, arms)

    def row(self, label: str, coef: str | None = None) -> dict:
        for r in self.rows:
            if r["method"] == label and (coef is None or r["coef"] == coef):
                return r
        raise KeyError(f"no row for {label!r}/{coef!r}")

    def to_text(self) -> str:
        hdr = (f"{'method':<22}{'coef':<10}{'est':>10}{'se':>9}{'cp':>8}"
               f"{'%REgain':>9}{'mRE':>8}{'RSD':>8}{'fail':>6}")
        lines = [f"kind={self.spec.kind} n={self.spec.n} T={self.spec.horizon} "
                 f"beta1={self.spec.beta1} replicates={self.replicates} "
                 f"seed={self.spec.seed}", hdr]
        for r in self.rows:
            lines.append(
                f"{r['method']:<22}{r['coef']:<10}{r['est_mean']:>10.4f}"
                f"{r['se_mean']:>9.4f}{r['cp']:>8.3f}{r['re_gain_pct']:>9.3f}"
                f"{r['mre']:>8.3f}{r['rsd']:>8.3f}{r['n_failed']:>6d}")
        return "\n".join(lines) + "\n"

    def replicate_csv_rows(self) -> list[dict]:
        out = []
        for rep in range(self.replicates):
            for m, label in enumerate(self.labels):
                for c, coef in enumerate(self.coef_names):
                    out.append({
                        "replicate": rep, "method": label, "coef": coef,
                        "ok": int(self.ok[rep, m]),
                        "est": float(self.est[rep, m, c]),
                        "se": float(self.se[rep, m, c]),
                        "varhat": float(self.varhat[rep, m, c]),
                        "covered": int(self.cover[rep, m, c]),
                    })
        return out


def compute_metrics(est_m, se_m, var_m, cover_m, est_b, var_b, truth: float) -> dict:
    """Summary metrics for one method against a baseline (equal-length rows)."""
    est_m, est_b = np.asarray(est_m, float), np.asarray(est_b, float)
    if est_m.shape != est_b.shape:
        raise ZeroVariance("replicate counts differ between method and baseline")
    var_m, var_b = np.asarray(var_m, float), np.asarray(var_b, float)
    if np.any(var_m <= 0.0):
        raise ZeroVariance("degenerate estimated variance for method")
    sd_m = float(np.std(est_m, ddof=1)) if est_m.size > 1 else 0.0
    sd_b = float(np.std(est_b, ddof=1)) if est_b.size > 1 else 0.0
    if sd_m == 0.0 and sd_b == 0.0:
        rsd = 1.0
    elif sd_m == 0.0:
        raise ZeroVariance("degenerate Monte Carlo spread for method")
    else:
        rsd = sd_b / sd_m
    return {
        "est_mean": float(np.mean(est_m)),
        "se_mean": float(np.mean(se_m)),
        "cp": float(np.mean(cover_m)),
        "re_gain_pct": float(np.mean(var_b > var_m)),
        "mre": float(np.mean(var_b / var_m)),
        "rsd": rsd,
        "mc_sd": sd_m,
        "mc_se": sd_m / float(np.sqrt(max(est_m.size, 1))),
        "bias": float(np.mean(est_m)) - truth,
    }


def _fit_one(spec: DgmSpec, rep: int, arms: list[McArm], truth: np.ndarray) -> list:
    """Generate replicate ``rep`` and fit every arm on it.

    One entry per arm: ``None`` when the fit raised an :class:`MrtxError`,
    else ``(beta0, se, diag(vcov_beta0), covered)``. Each fit is dropped once
    its summary is taken, so no arm's model matrix is alive during the next fit.
    """
    base = gen_panel(spec, _rng_for(spec, rep))
    out = []
    for arm in arms:
        try:
            res = run_fit(base if arm.schema is None else base.with_schema(arm.schema),
                          arm.config)
        except MrtxError:
            out.append(None)
            continue
        out.append((res.beta0, res.se, np.diag(res.vcov_beta0),
                    (res.ci_lo <= truth) & (truth <= res.ci_hi)))
        del res
    return out


def run_monte_carlo(spec: DgmSpec, arms: list[McArm], replicates: int,
                    workers: int = 1) -> McReport:
    """Replicate the design, fit every arm, and aggregate the comparison.

    ``arms`` is a list of :class:`McArm`; the first entry is the baseline
    for the relative-efficiency metrics. Before the first replicate, the run
    is refused with :class:`ConfigParse` unless ``replicates`` and ``workers``
    are integers >= 1 and there are arms, each a pooled method at ``spec.lag``
    under its own label whose schema names only columns in ``spec.columns``.
    Per-replicate failures are counted and excluded pairwise, never silently
    dropped.
    """
    for name, value in (("replicates", replicates), ("workers", workers)):
        if not _is_number(value, numbers.Integral) or value < 1:
            raise ConfigParse(f"{name} must be >= 1 and integral, got {name}={value!r}")
    if not arms:
        raise ConfigParse("a Monte Carlo run needs at least one arm")
    labels = [arm.label for arm in arms]
    for arm in arms:
        if arm.config.method in PER_TIME:
            raise ConfigParse(f"arm {arm.label!r}: a per-time method needs a decision index")
        if arm.config.lag != spec.lag:
            raise ConfigParse(f"arm {arm.label!r}: lag {arm.config.lag} is not the "
                              f"{spec.kind} design's lag {spec.lag}")
        if labels.count(arm.label) > 1:
            raise ConfigParse(f"arm {arm.label!r}: the label is used twice")
        schema = arm.schema or Schema()
        for name in (*schema.moderators, *schema.aux, *schema.controls, schema.ptilde):
            if name is not None and name not in spec.columns:
                raise ConfigParse(f"arm {arm.label!r}: column {name!r} is not generated "
                                  f"by the {spec.kind} design")
    truth = np.atleast_1d(np.asarray(spec.beta0, dtype=float))   # the design's target effect
    q = truth.shape[0]
    shape = (replicates, len(arms), q)
    est, se, var = (np.full(shape, np.nan) for _ in range(3))
    cov = np.zeros(shape, dtype=bool)
    ok = np.zeros(shape[:2], dtype=bool)
    # the builtin map keeps the default serial run on this thread (Ctrl-C stays prompt)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        fits = (map if pool is None else pool.map)(
            lambda rep: _fit_one(spec, rep, arms, truth), range(replicates))
        for rep, arm_fits in enumerate(fits):
            for m, summary in enumerate(arm_fits):
                if summary is not None:
                    est[rep, m], se[rep, m], var[rep, m], cov[rep, m] = summary
                    ok[rep, m] = True

    rows = []
    coef_names = tuple(f"beta0[{i}]" for i in range(q))
    for m, arm in enumerate(arms):
        both = ok[:, 0] & ok[:, m]
        if not both.any():
            raise ZeroVariance(f"no successful replicates for {arm.label}")
        for c in range(q):
            metrics = compute_metrics(
                est[both, m, c], se[both, m, c], var[both, m, c],
                cov[both, m, c], est[both, 0, c], var[both, 0, c],
                float(truth[c]))
            metrics.update({"method": arm.label, "coef": coef_names[c],
                            "n_failed": int((~ok[:, m]).sum()),
                            "n_used": int(both.sum())})
            rows.append(metrics)
    return McReport(spec=spec, labels=tuple(labels),
                    coef_names=coef_names, truth=truth, replicates=replicates,
                    rows=rows, est=est, se=se, varhat=var, cover=cov, ok=ok)
