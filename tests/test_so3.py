"""SO(3) arithmetic: exp/log round trips, geodesic metric, residual gauge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg.so3 import (
    Rotation,
    canonical_quats,
    checked_rotations,
    exp_so3,
    geodesic_angle,
    log_so3,
    quat_exp,
    quat_log,
    quat_mul,
    quat_to_matrix,
    relative_residual,
)

from conftest import random_rotation


def _hat(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


# ---------------------------------------------------------------------------
# exp_so3
# ---------------------------------------------------------------------------


def test_exp_zero_is_identity():
    r = exp_so3(np.zeros(3))
    assert np.allclose(r.matrix, np.eye(3), atol=1e-15)
    assert r == Rotation.identity()


def test_exp_quarter_turn_about_x():
    r = exp_so3(np.array([np.pi / 2, 0.0, 0.0]))
    expected = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
    ])
    assert np.allclose(r.matrix, expected, atol=1e-15)


def test_exp_matches_rodrigues_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=3)
        theta = np.linalg.norm(v)
        k = _hat(v / theta)
        rodrigues = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
        assert np.allclose(exp_so3(v).matrix, rodrigues, atol=1e-12)


def test_exp_tiny_angle_first_order():
    v = 1e-10 * np.array([0.3, -0.5, 0.8])
    first_order = np.eye(3) + _hat(v)
    assert np.max(np.abs(exp_so3(v).matrix - first_order)) < 1e-18


def test_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        exp_so3(np.array([np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError):
        exp_so3(np.zeros(4))


# ---------------------------------------------------------------------------
# log_so3
# ---------------------------------------------------------------------------


def test_log_identity_is_zero():
    assert np.allclose(log_so3(Rotation.identity()), np.zeros(3), atol=0.0)


def test_log_exp_round_trip():
    v = np.array([0.3, -0.2, 0.1])
    assert np.allclose(log_so3(exp_so3(v)), v, atol=1e-12)


def test_log_pi_rotation_about_z():
    r = exp_so3(np.array([0.0, 0.0, np.pi]))
    v = log_so3(r)
    assert abs(np.linalg.norm(v) - np.pi) < 1e-12
    axis = v / np.linalg.norm(v)
    assert min(np.linalg.norm(axis - [0, 0, 1]), np.linalg.norm(axis + [0, 0, 1])) < 1e-9


def test_log_output_norm_at_most_pi():
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert np.linalg.norm(log_so3(random_rotation(rng))) <= np.pi + 1e-12


def test_exp_log_matrix_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = random_rotation(rng)
        back = exp_so3(log_so3(r))
        assert np.linalg.norm(back.matrix - r.matrix) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.floats(1e-12, np.pi - 1e-6))
def test_round_trip_property(direction, norm):
    d = np.asarray(direction)
    if np.linalg.norm(d) < 1e-6:
        d = np.array([1.0, 0.0, 0.0])
    v = norm * d / np.linalg.norm(d)
    assert np.allclose(log_so3(exp_so3(v)), v, atol=1e-9)


# ---------------------------------------------------------------------------
# Rotation representation
# ---------------------------------------------------------------------------


def test_quaternion_sign_canonicalization():
    q = np.array([0.5, 0.5, 0.5, 0.5])
    assert Rotation(q) == Rotation(-q)
    assert hash(Rotation(q)) == hash(Rotation(-q))
    assert Rotation(q).quaternion[0] >= 0.0


def _quaternion_rows(rng):
    q = rng.normal(size=(10_000, 4))
    q[:2000] /= np.linalg.norm(q[:2000], axis=1)[:, None]   # already unit
    q[2000:2100] *= 1e-3                                      # far from unit
    q[2100:2200, 0] = -np.abs(q[2100:2200, 0])                # negative w
    q[2200:2300, 0] = 0.0                                     # w = 0, first nonzero < 0
    q[2200:2300, 1] = -np.abs(q[2200:2300, 1])
    q[2300:2400, :2] = 0.0                                    # w = x = 0, y < 0
    q[2300:2400, 2] = -np.abs(q[2300:2400, 2])
    q[2400:2500, 0] = -0.0                                    # signed zeros
    q[2400:2450, 1] = -0.0
    q[2500:2600, 1:] = -0.0
    q[2600] = [-0.0, -0.0, -0.0, -1.0]
    q[2601] = [0.0, -0.0, 0.0, 2.0]
    return q


def _canonical_reference(q):
    """The normalization rule written per entry: unit norm (rows within 1e-12
    left undivided), then a sign flip when the first nonzero entry is negative."""
    n = math.sqrt(float(q @ q))
    if abs(n - 1.0) > 1e-12:
        q = q / n
    first = next((v for v in q if v != 0.0), 0.0)
    return -q if first < 0.0 else q


def test_canonical_quats_match_rotation_bytewise():
    q = _quaternion_rows(np.random.default_rng(5))
    ref = np.array([Rotation(row).quaternion for row in q])
    assert canonical_quats(q).tobytes() == ref.tobytes()
    assert ref.tobytes() == np.array([_canonical_reference(row) for row in q]).tobytes()
    rotations = checked_rotations(q)
    assert [r.quaternion.tobytes() for r in rotations] == [row.tobytes() for row in ref]
    assert all(r == Rotation(row) for r, row in zip(rotations[:100], q))


def _tangent_rows(rng):
    v = rng.normal(size=(10_000, 3))
    v[:100] = 0.0                                             # zero step
    v[100:200] *= 1e-9 * rng.random((100, 1))                 # angles below 1e-8
    v[200:300] *= np.pi / np.linalg.norm(v[200:300], axis=1)[:, None]  # angle pi
    v[300:400] *= 5.0                                         # angles beyond pi
    v[400:500, :2] = -0.0                                     # signed zeros
    v[500] = [0.0, 0.0, -np.pi]
    return v


def _exp_reference(v):
    """Exp written per vector with math.sin and math.cos, canonicalized."""
    theta = math.sqrt(float(v @ v))
    half = 0.5 * theta
    if theta < 1e-8:
        s, w = 0.5 - theta * theta / 48.0, 1.0 - half * half / 2.0
    else:
        s, w = math.sin(half) / theta, math.cos(half)
    return _canonical_reference(np.array([w, s * v[0], s * v[1], s * v[2]]))


def test_array_functions_match_rotation_bytewise():
    """Each (N, ...) so3 function gives every row the bytes of its one-rotation wrapper."""
    rng = np.random.default_rng(13)
    a = _quaternion_rows(rng)
    b = np.concatenate([canonical_quats(rng.normal(size=(5000, 4))), a[:5000]])
    v = _tangent_rows(rng)
    ra = [Rotation(row) for row in a]
    rb = [Rotation(row) for row in b]
    ca = canonical_quats(a)
    exp = quat_exp(v)
    assert (canonical_quats(quat_mul(ca, canonical_quats(b))).tobytes()
            == np.array([p.compose(q).quaternion for p, q in zip(ra, rb)]).tobytes())
    assert exp.tobytes() == np.array([exp_so3(row).quaternion for row in v]).tobytes()
    assert exp.tobytes() == np.array([_exp_reference(row) for row in v]).tobytes()
    assert quat_log(ca).tobytes() == np.array([log_so3(r) for r in ra]).tobytes()
    assert quat_log(exp).tobytes() == np.array([log_so3(exp_so3(row)) for row in v]).tobytes()
    assert quat_to_matrix(ca).tobytes() == np.array([r.matrix for r in ra]).tobytes()


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, 0.0],
                                 [np.nan, 0.0, 0.0, 1.0], [1.0, np.inf, 0.0, 0.0],
                                 # finite entries whose squared norm overflows
                                 [1e308, 1e308, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0]])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_checked_rotations_reject_what_rotation_rejects(bad):
    with pytest.raises(ValueError) as expected:
        Rotation(np.array(bad))
    q = np.array([[1.0, 0.0, 0.0, 0.0], bad, [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError) as exc:
        checked_rotations(q)
    assert str(exc.value) == str(expected.value)


def test_matrix_is_orthonormal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = random_rotation(rng).matrix
        assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-10
        assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_rotation(rng), random_rotation(rng)
        assert np.allclose((a @ b).matrix, a.matrix @ b.matrix, atol=1e-12)


def test_inverse_is_transpose():
    rng = np.random.default_rng(6)
    r = random_rotation(rng)
    assert np.allclose(r.inverse().matrix, r.matrix.T, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_compose_preserves_unit_norm(vals):
    q1 = np.asarray(vals[:4])
    q2 = np.asarray(vals[4:])
    if np.linalg.norm(q1) < 1e-3 or np.linalg.norm(q2) < 1e-3:
        return
    q = Rotation(q1).compose(Rotation(q2)).quaternion
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# geodesic_angle
# ---------------------------------------------------------------------------


def test_geodesic_angle_of_equal_rotations_is_zero():
    rng = np.random.default_rng(7)
    r = random_rotation(rng)
    assert geodesic_angle(r, r) == 0.0


def test_geodesic_angle_matches_rotation_angle():
    for theta in (0.1, 1.0, 2.0, np.pi - 1e-6):
        r = exp_so3(np.array([theta, 0.0, 0.0]))
        assert abs(geodesic_angle(Rotation.identity(), r) - theta) < 1e-9


def test_geodesic_angle_is_precise_near_zero():
    for axis in ([1.0, 0.0, 0.0], [0.6, -0.48, 0.64]):
        for theta in (1e-10, 1e-8, 2e-8, 1e-3):
            angle = geodesic_angle(exp_so3(theta * np.array(axis)), Rotation.identity())
            assert abs(angle - theta) <= 1e-15 * theta


def test_geodesic_angle_symmetry_and_bi_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        r, s, q = (random_rotation(rng) for _ in range(3))
        a = geodesic_angle(r, s)
        assert abs(a - geodesic_angle(s, r)) < 1e-12
        assert abs(a - geodesic_angle(q @ r, q @ s)) < 1e-10
        assert abs(a - geodesic_angle(r @ q, s @ q)) < 1e-10


def test_geodesic_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b, c = (random_rotation(rng) for _ in range(3))
        assert geodesic_angle(a, c) <= geodesic_angle(a, b) + geodesic_angle(b, c) + 1e-9


# ---------------------------------------------------------------------------
# relative_residual
# ---------------------------------------------------------------------------


def test_residual_zero_on_consistent_triple():
    assert np.allclose(
        relative_residual(Rotation.identity(), Rotation.identity(), Rotation.identity()),
        np.zeros(3), atol=0.0,
    )
    rng = np.random.default_rng(10)
    ri, rj = random_rotation(rng), random_rotation(rng)
    rij = ri.compose(rj.inverse())
    assert np.linalg.norm(relative_residual(ri, rj, rij)) < 1e-15


def test_residual_norm_matches_definition():
    theta = 0.4
    ri = exp_so3(np.array([theta, 0.0, 0.0]))
    res = relative_residual(ri, Rotation.identity(), Rotation.identity())
    assert abs(np.linalg.norm(res) - theta) < 1e-12


def test_residual_norm_equals_geodesic_angle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ri, rj, rij = (random_rotation(rng) for _ in range(3))
        res = relative_residual(ri, rj, rij)
        pred = ri.compose(rj.inverse())
        assert abs(np.linalg.norm(res) - geodesic_angle(rij, pred)) < 1e-12


def test_residual_gauge_invariance_right_multiplication():
    rng = np.random.default_rng(12)
    for _ in range(50):
        ri, rj, rij, q = (random_rotation(rng) for _ in range(4))
        base = np.linalg.norm(relative_residual(ri, rj, rij))
        gauged = np.linalg.norm(relative_residual(ri @ q, rj @ q, rij))
        assert abs(base - gauged) < 1e-10
