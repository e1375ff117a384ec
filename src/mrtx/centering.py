"""Centering functions for auxiliary variables.

Adjusting an auxiliary variable inside the treatment-interaction block only
leaves the target effect untouched when the centered variable is orthogonal
(under ``p_tilde (1 - p_tilde)`` weights, pooled over usable decision points)
to the moderator feature span. ``fit_centering`` computes the linear working
model satisfying that condition empirically: each auxiliary column is
projected onto span{f} by weighted least squares, through the package's one
engine ``variance.wls_solve``, so the normal-equation residual is exactly the
orthogonality residual.

The same constructor builds the plain-mean foils that show when centering
goes wrong; every kind reads the usable rows only, ``t <= T - lag + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MrtDataset
from .errors import DimensionMismatch
from .variance import wls_solve

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
    """``p_tilde (1 - p_tilde)`` per subject and usable row, a broadcast if ``p_tilde`` is."""
    pt = ds.usable_block(ds.p_tilde)
    one = pt if any(pt.strides) else pt[:1, :1]
    return np.broadcast_to(one * (1.0 - one), pt.shape)


def _dot(M: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``M @ b`` over ``M``'s last axis, into ``out`` if given; a one-column ``@``
    (``out`` or not) is slower than the broadcast product."""
    if M.shape[-1] > 1:
        return np.matmul(M, b, out=out)
    return np.multiply(M[..., 0] if b.ndim == 1 else M, b[0], out=out)


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
    f, z = ds.usable_block(ds.f), ds.usable_block(ds.z)     # views, read in blocks
    if kind == "orthogonal":
        w = _usable_weights(ds)
        theta, gram = wls_solve(f, z, w, ds.n_subjects)
        # each subject's normal-equation residual U_j, laid out (q, N, p_z) so that
        # one solve takes every subject's right-hand side; wls_solve has already
        # checked the Gram
        resid = _dot(f, theta)
        u = np.einsum("ntk,nt,nti->kni", f, w, np.subtract(z, resid, out=resid))
        influence = np.linalg.solve(gram, u.reshape(ds.q, -1)).reshape(u.shape)
        return CenteringModel(theta, influence.transpose(1, 0, 2))
    if kind == "global_mean":
        mu = np.broadcast_to(z.mean(axis=(0, 1)), z.shape)
    elif kind == "time_specific_mean":
        mu = np.broadcast_to(z.mean(axis=0), z.shape)
    else:
        raise DimensionMismatch(f"unknown centering kind {kind!r}")
    theta, _ = wls_solve(f, mu, np.ones(z.shape[:2]), 1)
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
    # F' diag(w) Z by einsum: with one column on each side, F' Z through @ is a
    # BLAS ddot, which OpenBLAS splits across idly spinning threads above 10 000 rows
    mat = np.einsum("nti,nt,ntk->ik", ds.usable_block(ds.f), _usable_weights(ds),
                    ds.usable_block(ds.z - mu_rows)) / ds.n_subjects
    return float(np.abs(mat).max()) if mat.size else 0.0
