"""Synthetic problem generation and ground truth for experiments.

Generates view graphs with heteroscedastic relative-rotation noise and a
controlled fraction of outlier edges (uniformly random rotations), plus
synthetic two-view scenes for validating the covariance propagation.
Outlier edges always carry low inlier counts (a matching front end finds
few consistent correspondences on a wrong pair), while their reported
covariance is confident by default — propagating uncertainty through a
wrong-but-locally-consistent model yields misleadingly small covariances —
with an "honest" large-covariance variant for comparison.  All randomness flows through a counter-based
Philox generator keyed by the seed, so identical configs reproduce
bit-identical scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .so3 import Rotation, canonical_quats, quat_conj, quat_exp, quat_mul
from .twoview import CameraIntrinsics, TwoViewGeometry
from .viewgraph import ViewGraph, is_connected

__all__ = ["SynthConfig", "SynthScene", "generate_graph", "generate_two_view_scene"]

# floor on the reported covariance sigma so zero-noise configs stay PD
SIGMA_FLOOR_RAD = 1e-8
# inlier count of an edge: base * sigma_min / sigma * exp(N(0, jitter^2)), at least 5
INLIER_COUNT_BASE = 200
INLIER_COUNT_JITTER = 0.7


@dataclass(frozen=True)
class SynthConfig:
    n_cameras: int
    edge_density: float
    noise_sigmas_deg: tuple[tuple[float, float], ...]  # (fraction, sigma_deg)
    outlier_fraction: float = 0.0
    seed: int = 0
    report_true_covariance: bool = True
    # covariance reported for outlier edges: "confident" (small, as
    # propagation through a wrong model would yield) or "honest" (large)
    outlier_covariance: str = "confident"

    def __post_init__(self):
        if self.n_cameras < 2:
            raise ValueError("need at least 2 cameras")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValueError("edge density must be in (0, 1]")
        fractions = [f for f, _ in self.noise_sigmas_deg]
        sigmas = [s for _, s in self.noise_sigmas_deg]
        if not np.all(np.isfinite(fractions + sigmas)):
            raise ValueError("mixture fractions and sigmas must be finite")
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ValueError("mixture fractions must be in [0, 1]")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("mixture fractions must sum to 1")
        if any(s < 0.0 for s in sigmas):
            raise ValueError("mixture sigmas must be non-negative")
        if any(s > 180.0 for s in sigmas):
            raise ValueError("mixture sigmas must be at most 180 degrees")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier fraction must be in [0, 1)")
        if self.outlier_covariance not in ("confident", "honest"):
            raise ValueError("outlier_covariance must be 'confident' or 'honest'")


@dataclass(frozen=True)
class SynthScene:
    graph: ViewGraph
    outlier_edge_ids: tuple[tuple[int, int], ...]
    edge_sigmas_rad: dict[tuple[int, int], float] = field(default_factory=dict)


def _unit_rows(q):
    """Rows of ``q`` divided by their norms: uniformly random rotations for Gaussian ``q``."""
    return q / np.sqrt(np.vecdot(q, q))[:, None]


def generate_graph(config: SynthConfig) -> SynthScene:
    """Sample a connected heteroscedastic view graph with ground truth.

    Raises ConfigurationError when 64 draws give no connected graph, which
    happens when ``edge_density`` is too low for ``n_cameras``.
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    fractions = np.array([f for f, _ in config.noise_sigmas_deg])
    sigmas_rad = np.radians([s for _, s in config.noise_sigmas_deg])
    sigma_min = max(float(sigmas_rad.min()), SIGMA_FLOOR_RAD)

    for _ in range(64):
        gt_q = canonical_quats(_unit_rows(rng.normal(size=(config.n_cameras, 4))))
        # the loop draws every random number in order; the edge rotations
        # are formed afterwards, all at once
        keys, covs, counts = [], [], []
        outlier_rows, outlier_q, inlier_rows, noise = [], [], [], []
        edge_sigmas = {}
        for i in range(config.n_cameras):
            for j in range(i + 1, config.n_cameras):
                if rng.random() >= config.edge_density:
                    continue
                is_outlier = rng.random() < config.outlier_fraction
                comp = int(rng.choice(len(fractions), p=fractions))
                sigma = float(sigmas_rad[comp])
                if is_outlier:
                    outlier_rows.append(len(keys))
                    outlier_q.append(rng.normal(size=4))
                    sigma_meta = sigma_min if config.outlier_covariance == "confident" else np.pi / 2
                    count_factor = sigma_min / (np.pi / 2)
                else:
                    inlier_rows.append(len(keys))
                    noise.append(rng.normal(scale=max(sigma, 1e-300), size=3) if sigma > 0
                                 else np.zeros(3))
                    sigma_meta = max(sigma, SIGMA_FLOOR_RAD)
                    count_factor = sigma_min / sigma_meta
                covs.append(sigma_meta ** 2 * np.eye(3))
                jitter = float(np.exp(rng.normal(scale=INLIER_COUNT_JITTER)))
                counts.append(max(5, round(INLIER_COUNT_BASE * count_factor * jitter)))
                keys.append((i, j))
                edge_sigmas[(i, j)] = sigma_meta
        # inlier R_ij = Exp(eps) R_i R_j^T, each product canonical as Rotation's
        ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
        ij = ends[inlier_rows]
        gt_j_inv = canonical_quats(quat_conj(gt_q[ij[:, 1]]))
        truth = canonical_quats(quat_mul(gt_q[ij[:, 0]], gt_j_inv))
        edge_q = np.empty((len(keys), 4))
        edge_q[inlier_rows] = quat_mul(quat_exp(np.reshape(noise, (-1, 3))), truth)
        edge_q[outlier_rows] = _unit_rows(np.reshape(outlier_q, (-1, 4)))
        graph = ViewGraph.from_columns(
            np.arange(config.n_cameras), ends[:, 0], ends[:, 1], edge_q, gt_quats=gt_q,
            covariances=np.reshape(covs, (-1, 3, 3)) if config.report_true_covariance else None,
            inlier_counts=counts)
        if is_connected(graph):
            return SynthScene(
                graph=graph,
                outlier_edge_ids=tuple(keys[k] for k in outlier_rows),
                edge_sigmas_rad=edge_sigmas,
            )
    raise ConfigurationError(
        "failed to sample a connected graph; increase edge_density or n_cameras"
    )


DEFAULT_INTRINSICS = CameraIntrinsics(np.array([
    [600.0, 0.0, 320.0],
    [0.0, 600.0, 240.0],
    [0.0, 0.0, 1.0],
]))


def generate_two_view_scene(
    n_points: int,
    pixel_sigma: float,
    rotation: Rotation,
    translation,
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS,
    seed: int = 0,
    scene_depth: float = 6.0,
    return_clean: bool = False,
):
    """Synthesize a two-view scene with known pose and noisy pixel matches.

    Points are drawn uniformly in a box in front of camera i (centered at
    ``scene_depth`` along the optical axis); camera j sees
    ``x_j = R (x_i + t)`` with unit-norm baseline ``t``, so the epipolar
    constraint matches ``F = K_j^{-T} R [t]x K_i^{-1}``.  Gaussian pixel
    noise of ``pixel_sigma`` is added to all four coordinates.  The larger
    ``scene_depth``, the narrower the relative baseline.
    """
    if n_points < 8:
        raise ValueError("need at least 8 points")
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    if np.linalg.norm(t) < 1e-12:
        raise ValueError("zero-baseline pose rejected for covariance synthesis")
    t = t / np.linalg.norm(t)
    rng = np.random.Generator(np.random.Philox(seed))
    r = rotation.matrix
    half = 0.4 * scene_depth
    pts = np.empty((n_points, 3))
    count = 0
    for _ in range(100 * n_points):
        x = np.array([
            rng.uniform(-half, half),
            rng.uniform(-half, half),
            rng.uniform(0.7 * scene_depth, 1.3 * scene_depth),
        ])
        xj = r @ (x + t)
        if x[2] > 0.1 and xj[2] > 0.1:
            pts[count] = x
            count += 1
            if count == n_points:
                break
    if count < n_points:
        raise RuntimeError("could not place points in front of both cameras")
    k = intrinsics.k
    pi = (pts / pts[:, 2:]) @ k.T
    xj = (r @ (pts + t).T).T
    pj = (xj / xj[:, 2:]) @ k.T
    clean = np.column_stack([pi[:, :2], pj[:, :2]])
    noisy = clean + rng.normal(scale=pixel_sigma, size=clean.shape) if pixel_sigma > 0 else clean.copy()
    geom = TwoViewGeometry(
        rotation=rotation,
        translation=t,
        intrinsics_i=intrinsics,
        intrinsics_j=intrinsics,
        matches=noisy,
    )
    if return_clean:
        return geom, clean, pts
    return geom
