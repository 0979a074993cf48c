"""Exact SO(3) arithmetic: rotations, exp/log maps, geodesic residuals.

A :class:`Rotation` stores a unit quaternion ``(w, x, y, z)`` canonicalized
to ``w >= 0`` (so ``q`` and ``-q`` compare equal), with matrix and
axis-angle forms derived on demand.  All functions are pure.

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

__all__ = [
    "Rotation",
    "canonical_quats",
    "exp_so3",
    "log_so3",
    "geodesic_angle",
    "relative_residual",
]


class Rotation:
    """Immutable rotation backed by a unit quaternion (w, x, y, z)."""

    __slots__ = ("_q",)

    def __init__(self, wxyz):
        q = np.asarray(wxyz, dtype=np.float64)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have 4 entries, got shape {q.shape}")
        n = math.sqrt(float(q @ q))
        for message, passed in _quaternion_checks(q, n):
            if not passed:
                raise ValueError(message)
        # skip division when already normalized so round-trips stay bit-exact
        if abs(n - 1.0) > 1e-12:
            q = q / n
        if q[0] < 0.0 or (q[0] == 0.0 and _first_nonzero_negative(q)):
            q = -q
        q.setflags(write=False)
        self._q = q

    @classmethod
    def _trusted(cls, q) -> "Rotation":
        """Wrap a canonical read-only quaternion unchecked (for :func:`checked_rotations`)."""
        r = object.__new__(cls)
        r._q = q
        return r

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Build from a 3x3 orthonormal matrix (Shepperd's method)."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite matrix entries")
        if np.linalg.norm(m @ m.T - np.eye(3)) > 1e-6 or np.linalg.det(m) < 0.0:
            raise ValueError("matrix is not a rotation (orthonormality/det check failed)")
        t = m[0, 0] + m[1, 1] + m[2, 2]
        # branch on the largest of (trace, diagonal entries) for stability,
        # which also resolves the angle-pi case
        if t > max(m[0, 0], m[1, 1], m[2, 2]):
            r = math.sqrt(1.0 + t)
            s = 0.5 / r
            q = np.array([
                0.5 * r,
                (m[2, 1] - m[1, 2]) * s,
                (m[0, 2] - m[2, 0]) * s,
                (m[1, 0] - m[0, 1]) * s,
            ])
        else:
            k = int(np.argmax(np.diag(m)))
            i, j = (k + 1) % 3, (k + 2) % 3
            r = math.sqrt(1.0 + m[k, k] - m[i, i] - m[j, j])
            s = 0.5 / r
            q = np.empty(4)
            q[0] = (m[j, i] - m[i, j]) * s
            q[1 + k] = 0.5 * r
            q[1 + i] = (m[i, k] + m[k, i]) * s
            q[1 + j] = (m[j, k] + m[k, j]) * s
        return cls(q)

    @classmethod
    def from_axis_angle(cls, v) -> "Rotation":
        return exp_so3(v)

    @property
    def quaternion(self) -> np.ndarray:
        """Unit quaternion (w, x, y, z), w >= 0."""
        return self._q

    @property
    def matrix(self) -> np.ndarray:
        w, x, y, z = self._q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    @property
    def axis_angle(self) -> np.ndarray:
        return log_so3(self)

    def inverse(self) -> "Rotation":
        w, x, y, z = self._q
        return Rotation(np.array([w, -x, -y, -z]))

    def compose(self, other: "Rotation") -> "Rotation":
        """self * other (apply other first)."""
        w1, x1, y1, z1 = self._q
        w2, x2, y2, z2 = other._q
        return Rotation(np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.float64)

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
            ("zero-norm quaternion", norm >= 1e-12))


def canonical_quats(q):
    """Row-wise :class:`Rotation` normalization of an (N, 4) stack: unit norm, then w >= 0.

    Each row of a valid stack equals ``Rotation(row).quaternion`` bit for bit.
    """
    n = np.sqrt(np.vecdot(q, q))
    # skip the division when already normalized, as Rotation does
    q = np.where((np.abs(n - 1.0) > 1e-12)[:, None], q / n[:, None], q)
    v = q[:, 1:]
    nonzero = v != 0.0
    first = v[np.arange(len(v)), np.argmax(nonzero, axis=1)]
    flip = (q[:, 0] < 0.0) | ((q[:, 0] == 0.0) & nonzero.any(axis=1) & (first < 0.0))
    return np.where(flip[:, None], -q, q)


def checked_rotations(q):
    """``[Rotation(row) for row in q]`` for an (N, 4) float array, checked at once.

    Returns None when some row breaks a rule :class:`Rotation` checks; the
    caller then builds the rotations one at a time to raise that row's error.
    """
    if not all(passed.all() for _, passed in _quaternion_checks(q, np.sqrt(np.vecdot(q, q)))):
        return None
    rows = canonical_quats(q)
    rows.setflags(write=False)
    return [Rotation._trusted(row) for row in rows]


def _first_nonzero_negative(q) -> bool:
    for v in q[1:]:
        if v != 0.0:
            return v < 0.0
    return False


def exp_so3(v) -> Rotation:
    """Rodrigues exponential: rotation by angle ||v|| about axis v/||v||."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError("tangent vector must have 3 entries")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite tangent vector")
    theta = math.sqrt(float(v @ v))
    half = 0.5 * theta
    if theta < 1e-8:
        # sin(t/2)/t = 1/2 - t^2/48 + O(t^4)
        s = 0.5 - theta * theta / 48.0
        w = 1.0 - half * half / 2.0
    else:
        s = math.sin(half) / theta
        w = math.cos(half)
    return Rotation(np.array([w, s * v[0], s * v[1], s * v[2]]))


def log_so3(r: Rotation) -> np.ndarray:
    """Axis-angle logarithm; output norm in [0, pi]."""
    w, x, y, z = r.quaternion  # w >= 0 by canonicalization
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return np.array([2.0 * x, 2.0 * y, 2.0 * z])
    scale = 2.0 * math.atan2(s, w) / s
    return np.array([scale * x, scale * y, scale * z])


def geodesic_angle(ra: Rotation, rb: Rotation) -> float:
    """Bi-invariant angle ||Log(Ra Rb^T)|| in [0, pi] radians."""
    d = ra.compose(rb.inverse())
    w = min(1.0, abs(float(d.quaternion[0])))
    return 2.0 * math.acos(w)


def relative_residual(ri: Rotation, rj: Rotation, rij: Rotation) -> np.ndarray:
    """Residual Log(R_ij (R_i R_j^T)^T); zero iff R_ij = R_i R_j^T."""
    pred_inv = rj.compose(ri.inverse())  # (R_i R_j^T)^T
    return log_so3(rij.compose(pred_inv))
