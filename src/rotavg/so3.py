"""SO(3) arithmetic on quaternion arrays, and the one-rotation :class:`Rotation`.

The package's quaternion formulas are written once here, on ``(..., 4)``
quaternion and ``(..., 3)`` rotation-vector arrays: the Hamilton product
:func:`quat_mul`, :func:`quat_conj`, :func:`quat_exp`, :func:`quat_log`,
:func:`quat_to_matrix`, the cross-product matrix :func:`hat` and the
canonical normalization :func:`canonical_quats`.  A row's result does not
depend on the batch it is in, so one formula serves the batched solver and
the one-rotation :class:`Rotation` alike.  The exponential and logarithm
follow Sola, Deray & Atchuthan, "A micro Lie theory for state estimation
in robotics" (2018).

A :class:`Rotation` stores a unit quaternion ``(w, x, y, z)`` canonicalized
to ``w >= 0`` (so ``q`` and ``-q`` compare equal), with matrix and
axis-angle forms derived on demand.  It is the N = 1 case of the array
functions; loops over many rotations use the arrays directly.

Residual convention used throughout the package: for an edge measurement
``R_ij`` constraining absolute rotations ``R_i``, ``R_j`` the residual is

    L_e(R_i, R_j, R_ij) = Log(R_ij (R_i R_j^T)^T)

a 3-vector in radians whose norm equals the geodesic angle between the
measurement and the predicted relative rotation ``R_i R_j^T``.  The
objective is invariant under a common right-multiplication of all absolute
rotations (the gauge freedom).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import raise_first_failure

__all__ = [
    "Rotation",
    "canonical_quats",
    "checked_rotations",
    "hat",
    "quat_conj",
    "quat_exp",
    "quat_log",
    "quat_mul",
    "quat_to_matrix",
    "exp_so3",
    "log_so3",
    "geodesic_angle",
    "relative_residual",
]

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
# weights on the signs of (w, x, y, z): each outweighs all later ones together
_FIRST_SIGN = np.array([8.0, 4.0, 2.0, 1.0])


def quat_mul(a, b):
    """Hamilton product ``a b`` of quaternion arrays (..., 4), broadcast.

    Written one component at a time, rounding as ``np.sum`` and
    ``np.cross`` over the vector parts do:
    ``w = w1 w2 - (((0 + x1 x2) + y1 y2) + z1 z2)`` and
    ``v = (w1 v2 + w2 v1) + v1 x v2``, with each cross-product component
    formed as one product minus the other.  ``np.sum`` starts from +0, which
    only changes the sign of a zero sum.
    """
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    w = w1 * w2 - (0.0 + x1 * x2 + y1 * y2 + z1 * z2)
    out = np.empty(np.shape(w) + (4,))
    out[..., 0] = w
    out[..., 1] = w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2)
    out[..., 2] = w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2)
    out[..., 3] = w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2)
    return out


def quat_conj(q):
    """Conjugates (w, -x, -y, -z): the inverse rotations of unit quaternions."""
    return q * _CONJUGATE


def canonical_quats(q):
    """Unit norm, then w >= 0 (the first nonzero entry positive), per row of (..., 4).

    A row within 1e-12 of unit norm is not divided, so canonical rows come
    back bit for bit.
    """
    n = np.sqrt(np.vecdot(q, q))[..., None]
    q = np.where(np.abs(n - 1.0) > 1e-12, q / n, q)
    return np.where((np.sign(q) @ _FIRST_SIGN < 0.0)[..., None], -q, q)


def quat_exp(v):
    """Exp of rotation vectors (..., 3) as canonical unit quaternions (..., 4).

    ``sin`` and ``cos`` are evaluated per element with :mod:`math`; below an
    angle of 1e-8 the series ``sin(t/2)/t = 1/2 - t^2/48`` and
    ``cos(t/2) = 1 - (t/2)^2/2`` take over.
    """
    theta = np.sqrt(np.vecdot(v, v))
    half = 0.5 * theta
    small = theta < 1e-8
    halves = np.ravel(half).tolist()
    sin_half = np.reshape([math.sin(h) for h in halves], np.shape(half))
    cos_half = np.reshape([math.cos(h) for h in halves], np.shape(half))
    s = np.where(small, 0.5 - theta * theta / 48.0, sin_half / np.where(small, 1.0, theta))
    w = np.where(small, 1.0 - half * half / 2.0, cos_half)
    return canonical_quats(np.concatenate([w[..., None], s[..., None] * v], axis=-1))


def quat_log(q):
    """Rotation vectors (..., 3) of unit quaternions (..., 4); norms in [0, pi]."""
    q = np.where(q[..., :1] < 0.0, -q, q)
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    # small angles: theta / s -> 2 / w
    small = s < 1e-12
    scale = np.where(small, 2.0, 2.0 * np.arctan2(s, q[..., 0]) / np.where(small, 1.0, s))
    return scale[..., None] * v


def quat_to_matrix(q):
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.shape(w) + (3, 3))
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


def hat(v):
    """Cross-product matrices [v]x (..., 3, 3) of vectors (..., 3)."""
    out = np.zeros(np.shape(v)[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


class Rotation:
    """Immutable rotation backed by a unit quaternion (w, x, y, z)."""

    __slots__ = ("_q",)

    def __init__(self, wxyz):
        q = np.asarray(wxyz, dtype=np.float64)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have 4 entries, got shape {q.shape}")
        for message, passed in _quaternion_checks(q, math.sqrt(float(q @ q))):
            if not passed:
                raise ValueError(message)
        q = canonical_quats(q)
        q.setflags(write=False)
        self._q = q

    @classmethod
    def _trusted(cls, q) -> "Rotation":
        """Wrap a canonical quaternion unchecked, making it read-only."""
        q.setflags(write=False)
        r = object.__new__(cls)
        r._q = q
        return r

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @property
    def quaternion(self) -> np.ndarray:
        """Unit quaternion (w, x, y, z), w >= 0."""
        return self._q

    @property
    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self._q)

    @property
    def axis_angle(self) -> np.ndarray:
        return log_so3(self)

    def inverse(self) -> "Rotation":
        return Rotation._trusted(canonical_quats(quat_conj(self._q)))

    def compose(self, other: "Rotation") -> "Rotation":
        """self * other (apply other first)."""
        return Rotation._trusted(canonical_quats(quat_mul(self._q, other._q)))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def __repr__(self) -> str:
        w, x, y, z = self._q
        return f"Rotation(w={w:.9g}, x={x:.9g}, y={y:.9g}, z={z:.9g})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rotation) and bool(np.array_equal(self._q, other._q))

    def __hash__(self) -> int:
        return hash(self._q.tobytes())

    def allclose(self, other: "Rotation", atol: float = 1e-12) -> bool:
        return geodesic_angle(self, other) <= atol


def _quaternion_checks(q, norm):
    """(message, passed) for each rule a quaternion must pass, in check order.

    ``q`` is one quaternion (4,) with its norm, or an (N, 4) stack with
    an (N,) array of norms; ``passed`` is a bool or an (N,) mask.
    """
    return (("non-finite quaternion entries", np.isfinite(q).all(axis=-1)),
            ("quaternion norm overflows", np.isfinite(norm)),
            ("zero-norm quaternion", norm >= 1e-12))


def checked_rotations(q):
    """``[Rotation(row) for row in q]`` for an (N, 4) float array, checked at once.

    The first row that breaks a rule :class:`Rotation` checks raises the
    ``ValueError`` that ``Rotation(row)`` raises.
    """
    raise_first_failure(_quaternion_checks(q, np.sqrt(np.vecdot(q, q))), ValueError)
    rows = canonical_quats(q)
    rows.setflags(write=False)
    return [Rotation._trusted(row) for row in rows]


def exp_so3(v) -> Rotation:
    """Rodrigues exponential: rotation by angle ||v|| about axis v/||v||."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError("tangent vector must have 3 entries")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite tangent vector")
    return Rotation._trusted(quat_exp(v))


def log_so3(r: Rotation) -> np.ndarray:
    """Axis-angle logarithm; output norm in [0, pi]."""
    return quat_log(r.quaternion)


def geodesic_angle(ra: Rotation, rb: Rotation) -> float:
    """Bi-invariant angle ||Log(Ra Rb^T)|| in [0, pi] radians."""
    return float(np.linalg.norm(quat_log(quat_mul(ra.quaternion, quat_conj(rb.quaternion)))))


def relative_residual(ri: Rotation, rj: Rotation, rij: Rotation) -> np.ndarray:
    """Residual Log(R_ij (R_i R_j^T)^T); zero iff R_ij = R_i R_j^T."""
    pred_inv = rj.compose(ri.inverse())  # (R_i R_j^T)^T
    return log_so3(rij.compose(pred_inv))
