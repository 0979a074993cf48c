"""Hot numeric kernels for the averaging solver.

Batched numpy code for the per-edge residuals and Jacobian blocks of the
view-graph objective, built on the quaternion array functions of
:mod:`rotavg.so3`.

Conventions (shared with :mod:`rotavg.so3`):

* quaternions are ``(w, x, y, z)`` with unit norm and ``w >= 0``,
* the edge residual is ``r_e = Log(R_ij R_j R_i^T)``,
* for a right-multiplied update ``R_i <- R_i Exp(d_i)`` the residual
  Jacobians are ``dr/dd_i = -A_e`` and ``dr/dd_j = +A_e`` with
  ``A_e = Jr_inv(r_e) R_i``  (``Jr_inv`` = inverse right Jacobian of Log).
"""

from __future__ import annotations

import numpy as np

from .so3 import hat, quat_conj, quat_log, quat_mul, quat_to_matrix

__all__ = ["edge_terms", "jr_inv"]


def jr_inv(phi):
    """Inverse right Jacobian of the SO(3) logarithm, batched (..., 3)."""
    theta = np.linalg.norm(phi, axis=-1)
    small = theta < 1e-4
    t = np.where(small, 1.0, theta)
    # coefficient of K^2; series below 1e-4, closed form (cot) above
    c_series = 1.0 / 12.0 + theta ** 2 / 720.0 + theta ** 4 / 30240.0
    with np.errstate(invalid="ignore", divide="ignore"):
        c_closed = 1.0 / t ** 2 - (np.cos(t / 2.0) / np.sin(t / 2.0)) / (2.0 * t)
    c = np.where(small, c_series, c_closed)
    K = hat(phi)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + 0.5 * K + c[..., None, None] * (K @ K)


def edge_terms(quats: np.ndarray, edges: np.ndarray, meas: np.ndarray):
    """Residuals and Jacobian blocks for every edge.

    Args:
        quats: (N, 4) node rotations.
        edges: (E, 2) int node indices (i, j) per edge.
        meas: (E, 4) measured relative rotations R_ij.

    Returns:
        res: (E, 3) residuals Log(R_ij R_j R_i^T).
        amat: (E, 3, 3) blocks A_e = Jr_inv(res_e) R_i.
    """
    quats = np.asarray(quats, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64)
    meas = np.asarray(meas, dtype=np.float64)
    qi = quats[edges[:, 0]]
    qj = quats[edges[:, 1]]
    res = quat_log(quat_mul(quat_mul(meas, qj), quat_conj(qi)))
    amat = jr_inv(res) @ quat_to_matrix(qi)
    return res, amat
