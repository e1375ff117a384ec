"""Centering functions for auxiliary variables.

Adjusting an auxiliary variable inside the treatment-interaction block only
leaves the target effect untouched when the centered variable is orthogonal
(under ``p_tilde (1 - p_tilde)`` weights, pooled over usable decision points)
to the moderator feature span. ``fit_centering`` computes the linear working
model satisfying that condition empirically: each auxiliary column is
projected onto span{f} by weighted least squares, so the normal-equation
residual is exactly the orthogonality residual.

``naive_centerings`` exposes the deliberately simpler alternatives (per-time
mean, single pooled mean) used to demonstrate when centering goes wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MrtDataset
from .errors import DimensionMismatch, SingularGram
from .variance import checked_solve


@dataclass(frozen=True, eq=False)
class CenteringModel:
    """Linear centering model ``mu_i(s) = f(s)' theta_i`` for each auxiliary column.

    ``influence`` holds each subject's influence on ``theta``, ``G^{-1} U_j``
    with ``U_j`` the subject's weighted normal-equation residual, so variance
    stacking never needs a refit. Models built by :func:`centering_from_rows`
    carry none: they are not orthogonality-fitted and cannot back a stacked
    variance.
    """

    theta: np.ndarray                       # (q, p_z)
    influence: np.ndarray | None = None     # (n_subjects, q, p_z)

    @property
    def orthogonal(self) -> bool:
        return self.influence is not None

    @property
    def q(self) -> int:
        return self.theta.shape[0]

    def mu_rows(self, ds: MrtDataset) -> np.ndarray:
        """Per-row centering values (rows, p_z)."""
        if ds.f.shape[1] != self.q:
            raise DimensionMismatch("moderator dimension does not match centering model")
        return ds.f @ self.theta


def _weights(ds: MrtDataset) -> np.ndarray:
    w = ds.p_tilde * (1.0 - ds.p_tilde)
    return np.where(ds.usable_mask, w, 0.0)


def _cross(f: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``F' diag(w) Z`` by einsum.

    With one column on each side, ``F' Z`` through ``@`` is a BLAS ``ddot``,
    which OpenBLAS splits across threads above 10 000 rows; the woken
    threads then spin idle for about 0.1 CPU s per call.
    """
    return np.einsum("ri,r,rk->ik", f, w, z)


def weighted_projection(f: np.ndarray, z: np.ndarray, w: np.ndarray, n: int,
                        exc, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``theta`` of ``(F'WF/n) theta = F'WZ/n`` and the Gram ``F'WF/n``.

    The solve goes through ``checked_solve``, which raises ``exc`` naming ``what``.
    """
    gram = _cross(f, w, f) / n
    return checked_solve(gram, _cross(f, w, z) / n, exc, what), gram


def fit_centering(ds: MrtDataset) -> CenteringModel:
    """Weighted projection of every auxiliary column onto the moderator span.

    Solves, for each auxiliary column i, the pooled normal equations
    ``G theta_i = P_N[sum_t w_t f_t z_it]`` with ``w_t = p_tilde(1-p_tilde)``
    and ``G = P_N[sum_t w_t f_t f_t']``. The residual of these equations is
    the empirical orthogonality condition, so a successful fit drives it to
    numerical zero.
    """
    if ds.p_z < 1:
        raise DimensionMismatch("dataset declares no auxiliary columns")
    w = _weights(ds)
    theta, gram = weighted_projection(ds.f, ds.z, w, ds.n_subjects,
                                      SingularGram, "centering fit")
    resid = ds.z - ds.f @ theta                          # (rows, p_z)
    # each subject's normal-equation residual U_j, laid out (q, N, p_z) so that
    # one solve takes every subject's right-hand side; weighted_projection
    # has already checked the Gram
    u = np.einsum("ntk,nt,nti->kni", ds.per_subject(ds.f), ds.per_subject(w),
                  ds.per_subject(resid))
    influence = np.linalg.solve(gram, u.reshape(ds.q, -1)).reshape(u.shape)
    return CenteringModel(theta, influence.transpose(1, 0, 2))


def orthogonality_residual(ds: MrtDataset, mu_rows: np.ndarray) -> float:
    """Max-abs entry of the empirical orthogonality matrix for given per-row mu."""
    mu_rows = np.asarray(mu_rows, dtype=float)
    if mu_rows.ndim == 1:
        mu_rows = mu_rows[:, None]
    if mu_rows.shape != ds.z.shape:
        raise DimensionMismatch(
            f"mu has shape {mu_rows.shape}, auxiliary block has {ds.z.shape}")
    mat = _cross(ds.f, _weights(ds), ds.z - mu_rows) / ds.n_subjects
    return float(np.abs(mat).max()) if mat.size else 0.0


def naive_centerings(ds: MrtDataset, kind: str) -> np.ndarray:
    """Per-row mu values for the simple centerings used as foils.

    ``time_specific_mean`` is the cross-subject mean of each auxiliary column
    at every decision point; ``global_mean`` is the single pooled mean.
    """
    if ds.p_z < 1:
        raise DimensionMismatch("dataset declares no auxiliary columns")
    if kind == "global_mean":
        mu = ds.z.mean(axis=0)
        return np.broadcast_to(mu, ds.z.shape).copy()
    if kind == "time_specific_mean":
        by_subj = ds.per_subject(ds.z)                   # (N, T, p_z)
        per_t = by_subj.mean(axis=0)                     # (T, p_z)
        return np.tile(per_t, (ds.n_subjects, 1))
    raise DimensionMismatch(f"unknown naive centering kind {kind!r}")


def centering_from_rows(ds: MrtDataset, mu_rows: np.ndarray, label: str) -> CenteringModel:
    """Wrap externally chosen per-row centerings as a (non-orthogonal) model.

    The mu values must lie in the moderator span (constant when f is an
    intercept-only design, per-time via f columns otherwise); we recover the
    representing theta by unweighted projection. Intended for bias
    demonstrations; stacked variance refuses such models.
    """
    mu_rows = np.asarray(mu_rows, dtype=float)
    if mu_rows.ndim == 1:
        mu_rows = mu_rows[:, None]
    theta, _ = weighted_projection(ds.f, mu_rows, np.ones(ds.n_rows), 1,
                                   SingularGram, "centering representation")
    rep = ds.f @ theta
    if not np.allclose(rep, mu_rows, atol=1e-8):
        raise DimensionMismatch(
            f"{label}: requested centering is not representable in the moderator span")
    return CenteringModel(theta)
