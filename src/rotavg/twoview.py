"""Covariance of a relative rotation from two-view point correspondences.

Propagates pixel-level noise of the inlier matches through the Sampson
residual into a 3x3 covariance of the relative rotation:

    C = sigma^2 (J^T J)^{-1}

with ``J`` the stacked Jacobian of the signed Sampson residuals w.r.t. a
right-multiplied axis-angle perturbation of ``R_ij``.  The whitening matrix
``D`` (lower-triangular, ``D D^T = C^{-1}``) is what the averaging solver
applies to the edge residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InsufficientDataError
from .so3 import Rotation, exp_so3

__all__ = [
    "CameraIntrinsics",
    "Correspondence",
    "TwoViewGeometry",
    "CovarianceResult",
    "fundamental_from_pose",
    "sampson_distance",
    "sampson_batch",
    "rotation_jacobian",
    "covariance_of_rotation",
    "scalar_uncertainty",
    "whitener_from_covariance",
]

# JtJ condition numbers above this are treated as degenerate geometry
COND_LIMIT = 1e12


def _hat(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Upper-triangular calibration matrix K (pixels)."""

    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.float64)
        if k.shape != (3, 3):
            raise ValueError("K must be 3x3")
        if abs(k[2, 2] - 1.0) > 1e-12 or k[1, 0] != 0 or k[2, 0] != 0 or k[2, 1] != 0:
            raise ValueError("K must be upper-triangular with K[2][2] = 1")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "k", k)

    @property
    def inverse(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.k)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
            raise DegenerateGeometryError("singular intrinsics matrix") from exc


@dataclass(frozen=True)
class Correspondence:
    """Pixel match: p in view i, p_prime in view j."""

    p: np.ndarray
    p_prime: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64).reshape(2)
        q = np.asarray(self.p_prime, dtype=np.float64).reshape(2)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("non-finite correspondence coordinates")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_prime", q)


@dataclass(frozen=True)
class TwoViewGeometry:
    """Relative pose + intrinsics + inlier matches of one image pair.

    ``matches`` is an (N, 4) array of rows ``[x, y, x', y']`` in pixels.
    The translation is normalized to unit length on construction.
    """

    rotation: Rotation
    translation: np.ndarray
    intrinsics_i: CameraIntrinsics
    intrinsics_j: CameraIntrinsics
    matches: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        n = np.linalg.norm(t)
        if n < 1e-12:
            raise ValueError("zero-baseline translation")
        object.__setattr__(self, "translation", t / n)
        m = np.asarray(self.matches, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != 4:
            raise ValueError("matches must be an (N, 4) array [x, y, x', y']")
        object.__setattr__(self, "matches", m)

    @property
    def inliers(self) -> list[Correspondence]:
        return [Correspondence(row[:2], row[2:]) for row in self.matches]


@dataclass(frozen=True)
class CovarianceResult:
    """Rotation covariance C (radians^2) and its whitener D (D D^T = C^{-1})."""

    covariance: np.ndarray
    whitener: np.ndarray
    trace: float = field(init=False)
    fro_norm_inv: float = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.covariance, dtype=np.float64)
        d = np.asarray(self.whitener, dtype=np.float64)
        object.__setattr__(self, "covariance", c)
        object.__setattr__(self, "whitener", d)
        object.__setattr__(self, "trace", float(np.trace(c)))
        object.__setattr__(self, "fro_norm_inv", float(np.linalg.norm(d @ d.T)))


def whitener_from_covariance(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular D with D D^T = C^{-1}."""
    cov = np.asarray(cov, dtype=np.float64)
    try:
        inv = np.linalg.inv(cov)
        inv = 0.5 * (inv + inv.T)
        return np.linalg.cholesky(inv)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError("covariance is not positive definite") from exc


def fundamental_from_pose(geom: TwoViewGeometry) -> np.ndarray:
    """F = K_j^{-T} R_ij [t_ij]x K_i^{-1} (rank 2 by construction)."""
    ki_inv = geom.intrinsics_i.inverse
    kj_inv = geom.intrinsics_j.inverse
    return kj_inv.T @ geom.rotation.matrix @ _hat(geom.translation) @ ki_inv


def sampson_batch(f: np.ndarray, matches: np.ndarray) -> np.ndarray:
    """Signed Sampson distances (pixels) of all matches w.r.t. F."""
    xh = np.column_stack([matches[:, 0], matches[:, 1], np.ones(len(matches))])
    yh = np.column_stack([matches[:, 2], matches[:, 3], np.ones(len(matches))])
    fp = xh @ f.T          # rows F p
    ftq = yh @ f           # rows F^T p'
    num = np.sum(yh * fp, axis=1)
    den2 = fp[:, 0] ** 2 + fp[:, 1] ** 2 + ftq[:, 0] ** 2 + ftq[:, 1] ** 2
    if np.any(den2 < 1e-30):
        raise DegenerateGeometryError("degenerate correspondence (zero Sampson denominator)")
    return num / np.sqrt(den2)


def sampson_distance(f: np.ndarray, c: Correspondence) -> float:
    """Signed Sampson distance of one correspondence."""
    row = np.concatenate([c.p, c.p_prime])[None, :]
    return float(sampson_batch(np.asarray(f, dtype=np.float64), row)[0])


def _sampson_gradient_wrt_f(f, matches):
    """d(Sampson)/dF for every match, shape (N, 3, 3)."""
    xh = np.column_stack([matches[:, 0], matches[:, 1], np.ones(len(matches))])
    yh = np.column_stack([matches[:, 2], matches[:, 3], np.ones(len(matches))])
    fp = xh @ f.T
    ftq = yh @ f
    num = np.sum(yh * fp, axis=1)
    den2 = fp[:, 0] ** 2 + fp[:, 1] ** 2 + ftq[:, 0] ** 2 + ftq[:, 1] ** 2
    if np.any(den2 < 1e-30):
        raise DegenerateGeometryError("degenerate correspondence (zero Sampson denominator)")
    den = np.sqrt(den2)
    # d(num)/dF_ab = y_a x_b
    dnum = yh[:, :, None] * xh[:, None, :]
    # d(den^2)/dF_ab = 2 (Fp)_a x_b [a<3] + 2 (F^T p')_b y_a [b<3]
    fp_m = fp.copy()
    fp_m[:, 2] = 0.0
    ftq_m = ftq.copy()
    ftq_m[:, 2] = 0.0
    dden2 = 2.0 * (fp_m[:, :, None] * xh[:, None, :] + yh[:, :, None] * ftq_m[:, None, :])
    return dnum / den[:, None, None] - (num / (2.0 * den2 * den))[:, None, None] * dden2


def _rotation_generators(geom):
    """dF/d(delta_k) for R_ij <- R_ij exp(delta), k = 0..2."""
    ki_inv = geom.intrinsics_i.inverse
    kj_inv = geom.intrinsics_j.inverse
    r = geom.rotation.matrix
    th = _hat(geom.translation)
    gens = np.empty((3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        gens[k] = kj_inv.T @ r @ _hat(e) @ th @ ki_inv
    return gens


def _translation_generators(geom):
    """dF/d(eta_k) for t rotated in its 2D unit-sphere tangent, k = 0..1."""
    t = geom.translation
    # orthonormal basis of the plane perpendicular to t
    a = np.array([1.0, 0.0, 0.0]) if abs(t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = np.cross(t, a)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(t, b1)
    ki_inv = geom.intrinsics_i.inverse
    kj_inv = geom.intrinsics_j.inverse
    r = geom.rotation.matrix
    gens = np.empty((2, 3, 3))
    for k, b in enumerate((b1, b2)):
        gens[k] = kj_inv.T @ r @ _hat(np.cross(b, t)) @ ki_inv
    return gens


def rotation_jacobian(geom: TwoViewGeometry) -> np.ndarray:
    """Stacked N x 3 Jacobian of the signed Sampson residuals.

    Column k is the derivative w.r.t. the k-th component of a right-applied
    axis-angle perturbation of the relative rotation, at zero perturbation.
    """
    if len(geom.matches) < 3:
        raise InsufficientDataError("need at least 3 inliers for the rotation Jacobian")
    f = fundamental_from_pose(geom)
    ds_df = _sampson_gradient_wrt_f(f, geom.matches)
    gens = _rotation_generators(geom)
    return np.einsum("nab,kab->nk", ds_df, gens)


def _full_jacobian(geom):
    """N x 5 Jacobian over rotation (3) and unit-translation tangent (2)."""
    f = fundamental_from_pose(geom)
    ds_df = _sampson_gradient_wrt_f(f, geom.matches)
    gens = np.concatenate([_rotation_generators(geom), _translation_generators(geom)])
    return np.einsum("nab,kab->nk", ds_df, gens)


def covariance_of_rotation(
    geom: TwoViewGeometry,
    residual_sigma: float = 1.0,
    mode: str = "rotation_only",
) -> CovarianceResult:
    """Propagate pixel noise into the 3x3 rotation covariance.

    ``rotation_only``: C = sigma^2 (J^T J)^{-1} with the N x 3 rotation
    Jacobian.  ``marginalize_translation``: invert the 5x5 system over
    rotation + unit-translation tangent and keep the top-left 3x3 block.
    """
    if mode not in ("rotation_only", "marginalize_translation"):
        raise ValueError(f"unknown covariance mode {mode!r}")
    if len(geom.matches) < 3:
        raise InsufficientDataError("need at least 3 inliers for covariance estimation")
    if mode == "rotation_only":
        j = rotation_jacobian(geom)
    else:
        j = _full_jacobian(geom)
    jtj = j.T @ j
    sv = np.linalg.svd(jtj, compute_uv=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > COND_LIMIT:
        raise DegenerateGeometryError(
            f"ill-conditioned JtJ (condition number > {COND_LIMIT:g}); "
            "caller should fall back to unit weighting"
        )
    inv = np.linalg.inv(jtj)
    cov = residual_sigma ** 2 * inv[:3, :3]
    cov = 0.5 * (cov + cov.T)
    return CovarianceResult(covariance=cov, whitener=whitener_from_covariance(cov))


def scalar_uncertainty(c: CovarianceResult, kind: str) -> float:
    """Scalar summary: trace of C, or Frobenius norm of C^{-1}."""
    if kind == "trace":
        return c.trace
    if kind == "fro_norm_inv":
        return c.fro_norm_inv
    raise ValueError(f"unknown scalar uncertainty kind {kind!r}")
