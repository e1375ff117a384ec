"""Centering functions for auxiliary variables.

Adjusting an auxiliary variable inside the treatment-interaction block only
leaves the target effect untouched when the centered variable is orthogonal
(under ``p_tilde (1 - p_tilde)`` weights, pooled over usable decision points)
to the moderator feature span. ``fit_centering`` computes the linear working
model satisfying that condition empirically: each auxiliary column is
projected onto span{f} by weighted least squares, so the normal-equation
residual is exactly the orthogonality residual.

The same constructor builds the plain-mean foils that show when centering
goes wrong; every kind reads the usable rows only, ``t <= T - lag + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MrtDataset
from .errors import DimensionMismatch, SingularGram
from .variance import checked_solve

CENTERING_KINDS = ("orthogonal", "global_mean", "time_specific_mean")


@dataclass(frozen=True, eq=False)
class CenteringModel:
    """Linear centering model ``mu_i(s) = f(s)' theta_i`` for each auxiliary column.

    ``influence`` holds each subject's influence on ``theta``, ``G^{-1} U_j``
    with ``U_j`` the subject's weighted normal-equation residual, so variance
    stacking never needs a refit. The plain-mean kinds carry none: they are
    not orthogonality-fitted and cannot back a stacked variance.
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
        return _dot(ds.f, self.theta)


def _usable_weights(ds: MrtDataset) -> np.ndarray:
    return ds.usable(ds.p_tilde * (1.0 - ds.p_tilde))


def _cross(f: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``F' diag(w) Z`` by einsum.

    With one column on each side, ``F' Z`` through ``@`` is a BLAS ``ddot``,
    which OpenBLAS splits across threads above 10 000 rows; the woken
    threads then spin idle for about 0.1 CPU s per call.
    """
    return np.einsum("ri,r,rk->ik", f, w, z)


def _dot(M: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``M @ b`` over ``M``'s last axis, into ``out`` if given; a one-column ``@``
    (``out`` or not) is slower than the broadcast product."""
    if M.shape[-1] > 1:
        return np.matmul(M, b, out=out)
    return np.multiply(M[..., 0] if b.ndim == 1 else M, b[0], out=out)


def weighted_projection(f: np.ndarray, z: np.ndarray, w: np.ndarray, n: int,
                        exc, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``theta`` of ``(F'WF/n) theta = F'WZ/n`` and the Gram ``F'WF/n``.

    The solve goes through ``checked_solve``, which raises ``exc`` naming ``what``.
    """
    gram = _cross(f, w, f) / n
    return checked_solve(gram, _cross(f, w, z) / n, exc, what), gram


def fit_centering(ds: MrtDataset, kind: str = "orthogonal") -> CenteringModel:
    """The centering model of ``kind``, one of ``CENTERING_KINDS``, on the usable rows.

    ``orthogonal`` solves, for each auxiliary column i, the pooled normal
    equations ``G theta_i = P_N[sum_t w_t f_t z_it]`` with ``w_t = p_tilde(1-p_tilde)``
    and ``G = P_N[sum_t w_t f_t f_t']``, whose residual is the empirical
    orthogonality condition. The foils, ``time_specific_mean`` (the cross-subject
    mean at each decision point) and ``global_mean`` (the pooled mean), must lie
    in the moderator span; their theta is the unweighted projection onto it.
    """
    if ds.p_z < 1:
        raise DimensionMismatch("dataset declares no auxiliary columns")
    f, z = ds.usable(ds.f), ds.usable(ds.z)
    if kind == "orthogonal":
        w = _usable_weights(ds)
        theta, gram = weighted_projection(f, z, w, ds.n_subjects,
                                          SingularGram, "centering fit")
        # each subject's normal-equation residual U_j, laid out (q, N, p_z) so that
        # one solve takes every subject's right-hand side; weighted_projection
        # has already checked the Gram
        u = np.einsum("ntk,nt,nti->kni", ds.per_subject(f), ds.per_subject(w),
                      ds.per_subject(z - _dot(f, theta)))
        influence = np.linalg.solve(gram, u.reshape(ds.q, -1)).reshape(u.shape)
        return CenteringModel(theta, influence.transpose(1, 0, 2))
    if kind == "global_mean":
        mu = np.tile(z.mean(axis=0), (len(z), 1))
    elif kind == "time_specific_mean":
        mu = np.tile(ds.per_subject(z).mean(axis=0), (ds.n_subjects, 1))
    else:
        raise DimensionMismatch(f"unknown centering kind {kind!r}")
    theta, _ = weighted_projection(f, mu, np.ones(len(mu)), 1,
                                   SingularGram, "centering representation")
    if not np.allclose(_dot(f, theta), mu, atol=1e-8):
        raise DimensionMismatch(
            f"{kind}: requested centering is not representable in the moderator span")
    return CenteringModel(theta)


def orthogonality_residual(ds: MrtDataset, mu_rows: np.ndarray) -> float:
    """Max-abs entry of the empirical orthogonality matrix, over the usable
    rows, for given per-row mu."""
    mu_rows = np.asarray(mu_rows, dtype=float)
    if mu_rows.ndim == 1:
        mu_rows = mu_rows[:, None]
    if mu_rows.shape != ds.z.shape:
        raise DimensionMismatch(
            f"mu has shape {mu_rows.shape}, auxiliary block has {ds.z.shape}")
    mat = _cross(ds.usable(ds.f), _usable_weights(ds),
                 ds.usable(ds.z - mu_rows)) / ds.n_subjects
    return float(np.abs(mat).max()) if mat.size else 0.0
