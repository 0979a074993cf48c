"""Covariance of a relative rotation from two-view point correspondences.

Propagates pixel-level noise of the inlier matches through the Sampson
residual into a 3x3 covariance of the relative rotation:

    C = sigma^2 (J^T J)^{-1}

with ``J`` the stacked Jacobian of the signed Sampson residuals w.r.t. a
right-multiplied axis-angle perturbation of ``R_ij``.

:func:`rotation_covariances` makes one array pass over the concatenated
matches of all pairs: the Sampson gradients of every match in the rank-two
form ``dS/dF = u p^T + p' w^T``, then each pair's ``J^T J``, condition check
and inverse.  A pair that cannot be weighted gets its error instead of a
covariance, so one bad pair never stops the others.
:func:`covariance_of_rotation` is its one-pair case.  Each
:class:`CameraIntrinsics` computes ``K^{-1}`` once.  The whitening matrix
``D`` (lower-triangular, ``D D^T = C^{-1}``) is what the averaging solver
applies to the edge residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, InsufficientDataError
from .so3 import Rotation, hat, quat_to_matrix

__all__ = [
    "CameraIntrinsics",
    "TwoViewGeometry",
    "fundamental_from_pose",
    "sampson_batch",
    "rotation_jacobian",
    "rotation_covariances",
    "covariance_of_rotation",
    "whitener_from_covariance",
]

# JtJ condition numbers above this are treated as degenerate geometry
COND_LIMIT = 1e12
# squared Sampson denominators below this make a correspondence degenerate
DEN2_LIMIT = 1e-30
_DEGENERATE_MATCH = "degenerate correspondence (zero Sampson denominator)"
COVARIANCE_MODES = ("rotation_only", "marginalize_translation")


# [e_k]x for the unit vectors e_0, e_1, e_2
_E_HAT = hat(np.eye(3))


def _intrinsics_checks(k):
    """(message, passed) for each rule a 3x3 K must pass, in check order.

    ``k`` is one (3, 3) matrix or an (N, 3, 3) stack; ``passed`` is a bool or
    an (N,) mask.  One matrix stops at the first rule it fails.
    """
    yield "K must be finite", np.isfinite(k).all(axis=(-2, -1))
    yield ("K must be upper-triangular with K[2][2] = 1",
           (np.abs(k[..., 2, 2] - 1.0) <= 1e-12)
           & (k[..., 1, 0] == 0) & (k[..., 2, 0] == 0) & (k[..., 2, 1] == 0))
    yield "focal lengths must be positive", (k[..., 0, 0] > 0) & (k[..., 1, 1] > 0)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Upper-triangular calibration matrix K (pixels), read-only."""

    k: np.ndarray

    def __post_init__(self):
        k = np.array(self.k, dtype=np.float64)
        if k.shape != (3, 3):
            raise ValueError("K must be 3x3")
        for message, passed in _intrinsics_checks(k):
            if not passed:
                raise ValueError(message)
        k.flags.writeable = False
        object.__setattr__(self, "k", k)

    @cached_property
    def inverse(self) -> np.ndarray:
        """K^{-1}, computed on first read and read-only."""
        inv = np.linalg.inv(self.k)
        inv.flags.writeable = False
        return inv


@dataclass(frozen=True)
class TwoViewGeometry:
    """Relative pose + intrinsics + inlier matches of one image pair.

    ``matches`` is an (N, 4) array of N >= 1 rows ``[x, y, x', y']`` in
    pixels, the rule :func:`rotavg.viewgraph.load_pairs` applies, so every
    geometry :func:`rotavg.viewgraph.save_pairs` writes loads back.
    The translation is normalized to unit length on construction; a
    non-finite translation or match coordinate, or a translation whose norm
    overflows or is below 1e-12, raises ``ValueError``.
    """

    rotation: Rotation
    translation: np.ndarray
    intrinsics_i: CameraIntrinsics
    intrinsics_j: CameraIntrinsics
    matches: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite translation")
        with np.errstate(over="ignore"):
            n = np.linalg.norm(t)
        if n == np.inf:
            raise ValueError("translation norm overflows")
        if n < 1e-12:
            raise ValueError("zero-baseline translation")
        object.__setattr__(self, "translation", t / n)
        m = np.asarray(self.matches, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != 4:
            raise ValueError("matches must be an (N, 4) array [x, y, x', y']")
        if len(m) == 0:
            raise ValueError("matches must hold at least one row")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite match coordinates")
        object.__setattr__(self, "matches", m)

    @classmethod
    def _trusted(cls, rotation, translation, intrinsics_i, intrinsics_j,
                 matches) -> "TwoViewGeometry":
        """Build a geometry unchecked from a unit translation and (N, 4)
        matches; fed only by :func:`rotavg.viewgraph.load_pairs`."""
        geom = object.__new__(cls)
        geom.__dict__.update(rotation=rotation, translation=translation,
                             intrinsics_i=intrinsics_i, intrinsics_j=intrinsics_j,
                             matches=matches)
        return geom


def whitener_from_covariance(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular D with D D^T = C^{-1}, for one 3x3 C or a (..., 3, 3) stack."""
    cov = np.asarray(cov, dtype=np.float64)
    try:
        inv = np.linalg.inv(cov)
        inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
        return np.linalg.cholesky(inv)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError("covariance is not positive definite") from exc


def _fundamental(ki_inv, kj_inv, r, t):
    """F = K_j^{-T} R [t]x K_i^{-1} for one pose or a stack of them."""
    return np.swapaxes(kj_inv, -1, -2) @ r @ hat(t) @ ki_inv


def fundamental_from_pose(geom: TwoViewGeometry) -> np.ndarray:
    """F = K_j^{-T} R_ij [t_ij]x K_i^{-1} (rank 2 by construction)."""
    return _fundamental(geom.intrinsics_i.inverse, geom.intrinsics_j.inverse,
                        geom.rotation.matrix, geom.translation)


def _epipolar_terms(f, m, counts):
    """Homogeneous p and p', F p, (F^T p')_{0,1}, p'^T F p and the squared
    Sampson denominator of every match, each as a (components, N) array.

    ``m`` holds the matches as rows ``x, y, x', y'`` (shape (4, N)); ``f``
    is a (P, 3, 3) stack whose pair p owns the next ``counts[p]`` matches.
    """
    n = m.shape[1]
    xh = np.ones((3, n))
    xh[:2] = m[:2]
    yh = np.ones((3, n))
    yh[:2] = m[2:]
    fn = np.repeat(f.reshape(-1, 9).T, counts, axis=1).reshape(3, 3, n)  # each match's F
    fp = np.einsum("abn,bn->an", fn, xh)
    ftq = np.einsum("ban,bn->an", fn[:, :2], yh)
    del fn
    num = np.einsum("an,an->n", yh, fp)
    den2 = np.einsum("an,an->n", fp[:2], fp[:2]) + np.einsum("an,an->n", ftq, ftq)
    return xh, yh, fp, ftq, num, den2


def sampson_batch(f: np.ndarray, matches: np.ndarray) -> np.ndarray:
    """Signed Sampson distances (pixels) of all matches w.r.t. F."""
    m = np.asarray(matches, dtype=np.float64)
    *_, num, den2 = _epipolar_terms(np.asarray(f, dtype=np.float64), m.T, [len(m)])
    if np.any(den2 < DEN2_LIMIT):
        raise DegenerateGeometryError(_DEGENERATE_MATCH)
    return num / np.sqrt(den2)


def _sampson_gradients(f, m, counts):
    """d(Sampson)/dF of every match as a (9, N) array, and the degenerate-match mask.

    Arguments as in :func:`_epipolar_terms`.  With S = p'^T F p / den,
    dS/dF = u p^T + p' w^T, where u = p'/den - c [(F p)_0, (F p)_1, 0],
    w = -c [(F^T p')_0, (F^T p')_1, 0] and c = p'^T F p / den^3, so only
    (3, N) factors are formed.  Degenerate matches get finite placeholder
    columns.  A finite match far enough out may overflow these terms; that
    raises no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xh, yh, fp, ftq, num, den2 = _epipolar_terms(f, m, counts)
        degenerate = den2 < DEN2_LIMIT
        den2[degenerate] = 1.0
        den = np.sqrt(den2)
        c = num / (den2 * den)
        u = yh / den
        u[:2] -= c * fp[:2]
        w = -c * ftq
        del fp, ftq, num, den2, den, c
        grad = np.empty((3, 3, len(degenerate)))
        for a in range(3):
            np.multiply(u[a], xh, out=grad[a])
            grad[a, :2] += yh[a] * w
    return grad.reshape(9, -1), degenerate


def _generators(ki_inv, kj_inv, r, t, marginalize):
    """dF/d(parameter) as (P, K, 9) rows: K = 3 rotation generators
    (R <- R exp(delta)), plus 2 for the unit translation rotated in its
    tangent plane when ``marginalize``."""
    mids = _E_HAT @ hat(t)[:, None]                        # [e_k]x [t]x
    if marginalize:
        # orthonormal basis (b1, b2) of the plane perpendicular to t
        a = np.where((np.abs(t[:, :1]) < 0.9), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        b1 = np.cross(t, a)
        b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
        b2 = np.cross(t, b1)
        mids = np.concatenate([mids, hat(np.stack([np.cross(b1, t), np.cross(b2, t)], 1))], 1)
    gens = (np.swapaxes(kj_inv, 1, 2) @ r)[:, None] @ mids @ ki_inv[:, None]
    return gens.reshape(len(t), -1, 9)


def _pose_stacks(geoms):
    """K_i^{-1}, K_j^{-1}, R and t of every pair, stacked."""
    return (np.array([g.intrinsics_i.inverse for g in geoms]),
            np.array([g.intrinsics_j.inverse for g in geoms]),
            quat_to_matrix(np.array([g.rotation.quaternion for g in geoms])),
            np.array([g.translation for g in geoms]))


def rotation_jacobian(geom: TwoViewGeometry) -> np.ndarray:
    """Stacked N x 3 Jacobian of the signed Sampson residuals.

    Column k is the derivative w.r.t. the k-th component of a right-applied
    axis-angle perturbation of the relative rotation, at zero perturbation.
    """
    if len(geom.matches) < 3:
        raise InsufficientDataError("need at least 3 inliers for the rotation Jacobian")
    stacks = _pose_stacks([geom])
    grad, degenerate = _sampson_gradients(_fundamental(*stacks), geom.matches.T,
                                          [len(geom.matches)])
    if degenerate.any():
        raise DegenerateGeometryError(_DEGENERATE_MATCH)
    return (_generators(*stacks, marginalize=False)[0] @ grad).T


def rotation_covariances(geoms, residual_sigma: float = 1.0, mode: str = "rotation_only"):
    """Rotation covariances of many pairs from one array pass over their matches.

    Returns a (P, 3, 3) stack and a list of P entries, each ``None`` or the
    :class:`~rotavg.errors.InsufficientDataError` /
    :class:`~rotavg.errors.DegenerateGeometryError` that
    :func:`covariance_of_rotation` raises for that pair; a failed pair's
    covariance is NaN.  ``rotation_only``: C = sigma^2 (J^T J)^{-1} with the
    N x 3 rotation Jacobian.  ``marginalize_translation``: invert the 5x5
    system over rotation + unit-translation tangent and keep the top-left
    3x3 block.  Each pair's result depends on that pair alone.  A mode not
    in ``COVARIANCE_MODES`` or a ``residual_sigma`` (pixels) that is not
    positive and finite raises ``ValueError``.
    """
    if mode not in COVARIANCE_MODES:
        raise ValueError(f"unknown covariance mode {mode!r}")
    if not 0.0 < residual_sigma < np.inf:
        raise ValueError(f"residual sigma must be positive and finite, not {residual_sigma:g}")
    geoms = list(geoms)
    covs = np.full((len(geoms), 3, 3), np.nan)
    errors = [None] * len(geoms)
    for p, g in enumerate(geoms):
        if len(g.matches) < 3:
            errors[p] = InsufficientDataError("need at least 3 inliers for covariance estimation")
    live = [p for p, err in enumerate(errors) if err is None]
    if not live:
        return covs, errors
    stacks = _pose_stacks([geoms[p] for p in live])
    counts = np.array([len(geoms[p].matches) for p in live])
    starts = np.cumsum(counts) - counts
    grad, degenerate = _sampson_gradients(
        _fundamental(*stacks), np.concatenate([geoms[p].matches.T for p in live], axis=1),
        counts)
    gens = _generators(*stacks, marginalize=mode == "marginalize_translation")
    jtj = np.empty((len(live), gens.shape[1], gens.shape[1]))
    for q, (s, n) in enumerate(zip(starts, counts)):
        j = gens[q] @ grad[:, s:s + n]
        jtj[q] = j @ j.T
    bad = np.logical_or.reduceat(degenerate, starts)
    ok = ~bad & np.all(np.isfinite(jtj), axis=(1, 2))
    sv = np.linalg.svd(jtj[ok], compute_uv=False)
    ok[ok] = (sv[:, -1] > 0.0) & (sv[:, 0] <= COND_LIMIT * sv[:, -1])
    inv = np.linalg.inv(jtj[ok])
    cov = residual_sigma ** 2 * inv[:, :3, :3]
    covs[np.asarray(live)[ok]] = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    for q, p in enumerate(live):
        if bad[q]:
            errors[p] = DegenerateGeometryError(_DEGENERATE_MATCH)
        elif not ok[q]:
            errors[p] = DegenerateGeometryError(
                f"ill-conditioned JtJ (condition number > {COND_LIMIT:g}); "
                "caller should fall back to unit weighting")
    return covs, errors


def covariance_of_rotation(
    geom: TwoViewGeometry,
    residual_sigma: float = 1.0,
    mode: str = "rotation_only",
) -> np.ndarray:
    """Propagate pixel noise into the 3x3 rotation covariance (radians^2) of one pair.

    The one-pair case of :func:`rotation_covariances`; raises the pair's
    error instead of returning it.  :func:`whitener_from_covariance` gives
    its whitener.
    """
    covs, errors = rotation_covariances([geom], residual_sigma, mode)
    if errors[0] is not None:
        raise errors[0]
    return covs[0]
