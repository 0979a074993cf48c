"""Per-edge kernels: residuals against so3, Jacobian blocks against finite differences."""

import numpy as np

from rotavg import kernels
from rotavg.so3 import Rotation, exp_so3, log_so3, quat_mul, relative_residual

from conftest import random_rotation


def _random_problem(rng, n_nodes=15, n_edges=40):
    quats = np.array([random_rotation(rng).quaternion for _ in range(n_nodes)])
    edges = []
    while len(edges) < n_edges:
        i, j = rng.integers(0, n_nodes, size=2)
        if i != j:
            edges.append((int(i), int(j)))
    edges = np.array(edges, dtype=np.int64)
    meas = np.array([random_rotation(rng).quaternion for _ in range(n_edges)])
    return quats, edges, meas


def test_numpy_residuals_match_reference_implementation():
    rng = np.random.default_rng(0)
    quats, edges, meas = _random_problem(rng)
    res, _ = kernels.edge_terms(quats, edges, meas)
    for idx, (i, j) in enumerate(edges):
        expected = relative_residual(Rotation(quats[i]), Rotation(quats[j]),
                                     Rotation(meas[idx]))
        assert np.allclose(res[idx], expected, atol=1e-12)


def test_jacobian_blocks_match_finite_differences():
    rng = np.random.default_rng(1)
    quats, edges, meas = _random_problem(rng, n_nodes=6, n_edges=10)
    res, amat = kernels.edge_terms(quats, edges, meas)
    h = 1e-7
    for idx, (i, j) in enumerate(edges):
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            # dr/dd_j = +A_e for R_j <- R_j Exp(d)
            qp = quats.copy()
            qp[j] = Rotation(quats[j]).compose(exp_so3(d)).quaternion
            qm = quats.copy()
            qm[j] = Rotation(quats[j]).compose(exp_so3(-d)).quaternion
            rp, _ = kernels.edge_terms(qp, edges, meas)
            rm, _ = kernels.edge_terms(qm, edges, meas)
            fd = (rp[idx] - rm[idx]) / (2.0 * h)
            assert np.allclose(fd, amat[idx, :, k], atol=1e-5)
            # dr/dd_i = -A_e for R_i <- R_i Exp(d)
            qp = quats.copy()
            qp[i] = Rotation(quats[i]).compose(exp_so3(d)).quaternion
            qm = quats.copy()
            qm[i] = Rotation(quats[i]).compose(exp_so3(-d)).quaternion
            rp, _ = kernels.edge_terms(qp, edges, meas)
            rm, _ = kernels.edge_terms(qm, edges, meas)
            fd = (rp[idx] - rm[idx]) / (2.0 * h)
            assert np.allclose(fd, -amat[idx, :, k], atol=1e-5)


def _jr_series(phi, terms=40):
    """Right Jacobian of Exp, sum_n (-K)^n / (n+1)!, no cancellation at small angles."""
    k = np.array([[0.0, -phi[2], phi[1]], [phi[2], 0.0, -phi[0]], [-phi[1], phi[0], 0.0]])
    out = np.zeros((3, 3))
    term = np.eye(3)
    for n in range(terms):
        out += term
        term = -term @ k / (n + 2)
    return out


def test_jr_inv_matches_finite_differences():
    """Log(Exp(phi) Exp(d)) = phi + Jr_inv(phi) d + O(|d|^2), both branches,
    and Jr_inv inverts the series right Jacobian to round-off."""
    rng = np.random.default_rng(4)
    directions = rng.normal(size=(12, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    angles = np.array([1e-6, 5e-5, 0.01, 0.3, 1.0, 2.5] * 2)
    phis = directions * angles[:, None]
    blocks = kernels.jr_inv(phis)
    h = 1e-6
    for phi, block in zip(phis, blocks):
        assert np.allclose(block @ _jr_series(phi), np.eye(3), rtol=0.0, atol=1e-13)
        base = exp_so3(phi)
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            fd = (log_so3(base.compose(exp_so3(d)))
                  - log_so3(base.compose(exp_so3(-d)))) / (2.0 * h)
            assert np.allclose(fd, block[:, k], atol=1e-6)


def _quat_mul_reference(a, b):
    """The Hamilton product written with np.sum and np.cross over the vector parts."""
    w1, v1 = a[..., 0], a[..., 1:]
    w2, v2 = b[..., 0], b[..., 1:]
    w = w1 * w2 - np.sum(v1 * v2, axis=-1)
    v = w1[..., None] * v2 + w2[..., None] * v1 + np.cross(v1, v2)
    return np.concatenate([w[..., None], v], axis=-1)


def test_quat_mul_rounds_like_sum_and_cross():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(10_000, 4))
    b = rng.normal(size=(10_000, 4))
    a[:100, 0] = 0.0                 # w = 0
    b[100:200, 1:] = 0.0             # zero vector part
    a[200:300, 1] = -0.0             # signed zeros
    b[200:300, 0] = -0.0
    a[300:400] = -0.0
    b[400:500, 2:] = -0.0
    out = quat_mul(a, b)
    assert out.shape == a.shape
    assert out.tobytes() == _quat_mul_reference(a, b).tobytes()
