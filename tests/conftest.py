"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate

from rotavg.errors import DegenerateGeometryError, InsufficientDataError
from rotavg.so3 import Rotation, exp_so3
from rotavg.synth import generate_two_view_scene
from rotavg.twoview import CameraIntrinsics, TwoViewGeometry

# terminal reporter captured at configure time; lets acceptance tests emit
# one PASS/FAIL line per criterion that survives output capture
TERMINAL = None


@pytest.hookimpl(trylast=True)  # the terminal reporter registers during configure
def pytest_configure(config):
    global TERMINAL
    TERMINAL = config.pluginmanager.get_plugin("terminalreporter")


def report_line(line: str) -> None:
    if TERMINAL is not None:
        TERMINAL.write_line(line)
    else:  # pragma: no cover - direct (non-pytest) invocation
        print(line, flush=True)


def random_rotation(rng) -> Rotation:
    q = rng.normal(size=4)
    return Rotation(q / np.linalg.norm(q))


def random_unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def moderate_rotation(rng, lo_deg: float = 5.0, hi_deg: float = 30.0) -> Rotation:
    """Rotation with a moderate angle, keeping synthetic scenes in view."""
    angle = np.radians(rng.uniform(lo_deg, hi_deg))
    return exp_so3(angle * random_unit_vector(rng))


def random_pd_matrix(rng, dim: int = 3, jitter: float = 0.1) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return a @ a.T + jitter * np.eye(dim)


def trimmed_chi_density(r: float, sigma: float, nu: int, k: float) -> float:
    """Chi density with scale sigma, trimmed to zero beyond k * sigma."""
    if r <= 0.0 or r >= k * sigma:
        return 0.0
    c = 2.0 ** (1.0 - 0.5 * nu) / math.gamma(0.5 * nu)
    return c * r ** (nu - 1.0) / sigma ** nu * math.exp(-r * r / (2.0 * sigma * sigma))


def marginal_weight_by_quadrature(spec, r: float) -> float:
    """Oracle: marginal of the trimmed chi density over sigma ~ U(0, sigma_max).

    Integrates in log(sigma) so the density spike near sigma ~ r stays
    resolved even when r is many orders of magnitude below sigma_max.
    """
    lo = r / spec.k  # density is zero for sigma < r/k
    if lo >= spec.scale:
        return 0.0
    val, _ = scipy.integrate.quad(
        lambda u: trimmed_chi_density(r, math.exp(u), spec.nu, spec.k) * math.exp(u),
        math.log(lo), math.log(spec.scale), limit=400,
    )
    return val / spec.scale


def bad_two_view_geometries(rng):
    """Three pairs that cannot be weighted, with the error each must get.

    A 2-match pair, a pair whose matches repeat one row (rank-one J^T J)
    and a pair with a match at both epipoles (zero Sampson denominator).
    """
    geom = generate_two_view_scene(
        n_points=10, pixel_sigma=1.0, rotation=moderate_rotation(rng),
        translation=random_unit_vector(rng), seed=int(rng.integers(2**31)),
    )
    unit_k = CameraIntrinsics(np.eye(3))
    # K = I, R = I, t = z: F = [z]x, whose epipoles are both at the origin
    epipole = TwoViewGeometry(Rotation.identity(), np.array([0.0, 0.0, 1.0]), unit_k, unit_k,
                              np.array([[0.1, 0.2, 0.3, 0.1], [0.0, 0.0, 0.0, 0.0],
                                        [0.4, -0.2, 0.5, 0.3], [-0.3, 0.1, 0.2, -0.4]]))
    return [
        (TwoViewGeometry(geom.rotation, geom.translation, geom.intrinsics_i,
                         geom.intrinsics_j, geom.matches[:2]),
         InsufficientDataError, "need at least 3 inliers for covariance estimation"),
        (TwoViewGeometry(geom.rotation, geom.translation, geom.intrinsics_i,
                         geom.intrinsics_j, np.tile(geom.matches[:1], (5, 1))),
         DegenerateGeometryError, "ill-conditioned JtJ (condition number > 1e+12); "
                                  "caller should fall back to unit weighting"),
        (epipole, DegenerateGeometryError,
         "degenerate correspondence (zero Sampson denominator)"),
    ]
