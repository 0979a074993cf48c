"""Hot numeric kernels for the averaging solver.

Batched numpy code for the per-edge residuals and Jacobian blocks of the
view-graph objective.  The gauge alignment in :mod:`rotavg.evaluate` reuses
the quaternion product, conjugate and logarithm and the batched inverse
right Jacobian of the SO(3) logarithm.

Conventions (shared with :mod:`rotavg.so3`):

* quaternions are ``(w, x, y, z)`` with unit norm and ``w >= 0``,
* the edge residual is ``r_e = Log(R_ij R_j R_i^T)``,
* for a right-multiplied update ``R_i <- R_i Exp(d_i)`` the residual
  Jacobians are ``dr/dd_i = -A_e`` and ``dr/dd_j = +A_e`` with
  ``A_e = Jr_inv(r_e) R_i``  (``Jr_inv`` = inverse right Jacobian of Log).
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_terms", "jr_inv"]


def _quat_mul(a, b):
    """Hamilton product of quaternion batches (..., 4).

    Written one component at a time, rounding as ``np.sum`` and
    ``np.cross`` over the vector parts do:
    ``w = w1 w2 - (((0 + x1 x2) + y1 y2) + z1 z2)`` and
    ``v = (w1 v2 + w2 v1) + v1 x v2``, with each cross-product component
    formed as one product minus the other.  ``np.sum`` starts from +0, which
    only changes the sign of a zero sum.
    """
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        w1 * w2 - (0.0 + x1 * x2 + y1 * y2 + z1 * z2),
        w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
        w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2),
        w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2),
    ], axis=-1)


def _quat_conj(q):
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _quat_to_mat(q):
    """Rotation matrices (..., 3, 3) from unit quaternions (..., 4)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def _quat_log(q):
    """Axis-angle vectors (..., 3); output norm <= pi for w >= 0 inputs."""
    q = np.where(q[..., :1] < 0.0, -q, q)
    w = q[..., 0]
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    theta = 2.0 * np.arctan2(s, w)
    # small-angle: theta/s -> 2/w
    small = s < 1e-12
    scale = np.where(small, 2.0, theta / np.where(small, 1.0, s))
    return scale[..., None] * v


def _hat(v):
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


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
    K = _hat(phi)
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
    qe = _quat_mul(_quat_mul(meas, qj), _quat_conj(qi))
    res = _quat_log(qe)
    amat = jr_inv(res) @ _quat_to_mat(qi)
    return res, amat
