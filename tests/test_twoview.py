"""Two-view covariance propagation: F, Sampson, Jacobians, whitening."""

import dataclasses
import math

import numpy as np
import pytest

from rotavg.errors import DegenerateGeometryError, InsufficientDataError
from rotavg.so3 import Rotation, exp_so3
from rotavg.synth import DEFAULT_INTRINSICS, generate_two_view_scene
from rotavg.twoview import (
    CameraIntrinsics,
    TwoViewGeometry,
    covariance_of_rotation,
    fundamental_from_pose,
    rotation_covariances,
    rotation_jacobian,
    sampson_batch,
    whitener_from_covariance,
)

from conftest import (bad_two_view_geometries, moderate_rotation, random_pd_matrix,
                      random_unit_vector)

IDENTITY_K = CameraIntrinsics(np.eye(3))
F_TX = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, 1.0, 0.0],
])


def _random_scene(rng, n_points=60, pixel_sigma=1.0, scene_depth=None, seed=None):
    return generate_two_view_scene(
        n_points=n_points,
        pixel_sigma=pixel_sigma,
        rotation=moderate_rotation(rng),
        translation=random_unit_vector(rng),
        seed=int(rng.integers(0, 2**31)) if seed is None else seed,
        scene_depth=float(rng.uniform(4.0, 8.0)) if scene_depth is None else scene_depth,
    )


# ---------------------------------------------------------------------------
# intrinsics and geometry validation
# ---------------------------------------------------------------------------


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(np.array([[1.0, 0, 0], [0.1, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        CameraIntrinsics(np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        CameraIntrinsics(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="K must be 3x3"):
        CameraIntrinsics(np.eye(2))


def test_geometry_normalizes_translation():
    g = TwoViewGeometry(
        rotation=Rotation.identity(),
        translation=np.array([3.0, 0.0, 0.0]),
        intrinsics_i=IDENTITY_K,
        intrinsics_j=IDENTITY_K,
        matches=np.zeros((3, 4)),
    )
    assert abs(np.linalg.norm(g.translation) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        TwoViewGeometry(Rotation.identity(), np.zeros(3), IDENTITY_K, IDENTITY_K, np.zeros((3, 4)))


def test_geometry_rejects_non_finite_input():
    t = np.array([0.0, 0.0, 1.0])
    bad_matches = np.zeros((3, 4))
    bad_matches[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite match"):
        TwoViewGeometry(Rotation.identity(), t, IDENTITY_K, IDENTITY_K, bad_matches)
    with pytest.raises(ValueError, match="non-finite translation"):
        TwoViewGeometry(Rotation.identity(), np.array([np.inf, 0.0, 1.0]),
                        IDENTITY_K, IDENTITY_K, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="finite"):
        CameraIntrinsics(np.diag([np.nan, 1.0, 1.0]))


def test_geometry_rejects_zero_matches():
    """An (0, 4) array has the right shape but no row: the loader's rule, so
    no geometry that save_pairs writes as "matches": [] exists."""
    with pytest.raises(ValueError, match="at least one row"):
        TwoViewGeometry(Rotation.identity(), np.array([0.0, 0.0, 1.0]), IDENTITY_K, IDENTITY_K,
                        np.zeros((0, 4)))


def test_intrinsics_inverse_is_cached_and_read_only():
    k = CameraIntrinsics(np.array([[500.0, 1.0, 320.0], [0.0, 480.0, 240.0], [0.0, 0.0, 1.0]]))
    inv = k.inverse
    assert k.inverse is inv
    assert np.array_equal(inv, np.linalg.inv(k.k))
    assert not inv.flags.writeable and not k.k.flags.writeable


# ---------------------------------------------------------------------------
# fundamental matrix
# ---------------------------------------------------------------------------


def test_fundamental_identity_pose_is_cross_product_matrix():
    g = TwoViewGeometry(Rotation.identity(), np.array([1.0, 0.0, 0.0]),
                        IDENTITY_K, IDENTITY_K, np.zeros((3, 4)))
    assert np.allclose(fundamental_from_pose(g), F_TX, atol=1e-15)


def test_fundamental_rank_two_and_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rot = moderate_rotation(rng)
        t = random_unit_vector(rng)
        k1 = CameraIntrinsics(np.array([
            [rng.uniform(300, 900), rng.uniform(0, 2), rng.uniform(200, 400)],
            [0.0, rng.uniform(300, 900), rng.uniform(150, 300)],
            [0.0, 0.0, 1.0],
        ]))
        k2 = CameraIntrinsics(np.array([
            [rng.uniform(300, 900), 0.0, rng.uniform(200, 400)],
            [0.0, rng.uniform(300, 900), rng.uniform(150, 300)],
            [0.0, 0.0, 1.0],
        ]))
        g = TwoViewGeometry(rot, t, k1, k2, np.zeros((3, 4)))
        f = fundamental_from_pose(g)
        # independent element-wise recomposition
        tx = np.array([
            [0.0, -t[2], t[1]],
            [t[2], 0.0, -t[0]],
            [-t[1], t[0], 0.0],
        ])
        oracle = np.linalg.inv(k2.k).T @ rot.matrix @ tx @ np.linalg.inv(k1.k)
        assert np.max(np.abs(f - oracle)) < 1e-12
        sv = np.linalg.svd(f, compute_uv=False)
        assert sv[-1] < 1e-10 * sv[0]
        assert abs(np.linalg.det(f)) < 1e-10 * sv[0] ** 3


def test_fundamental_satisfies_epipolar_constraint_on_clean_points():
    rng = np.random.default_rng(1)
    geom, clean, _ = generate_two_view_scene(
        n_points=40, pixel_sigma=0.0, rotation=moderate_rotation(rng),
        translation=random_unit_vector(rng), seed=3, return_clean=True,
    )
    f = fundamental_from_pose(geom)
    xh = np.column_stack([clean[:, 0], clean[:, 1], np.ones(len(clean))])
    yh = np.column_stack([clean[:, 2], clean[:, 3], np.ones(len(clean))])
    assert np.max(np.abs(np.sum(yh * (xh @ f.T), axis=1))) < 1e-9


# ---------------------------------------------------------------------------
# Sampson distance
# ---------------------------------------------------------------------------


def test_sampson_point_on_epipolar_line():
    assert sampson_batch(F_TX, [[0.0, 0.0, 1.0, 0.0]])[0] == 0.0


def test_sampson_hand_value():
    assert abs(sampson_batch(F_TX, [[0.0, 0.0, 0.0, 1.0]])[0] - (-1.0 / math.sqrt(2.0))) < 1e-15


def test_sampson_scale_invariance():
    rng = np.random.default_rng(2)
    rows = np.array([np.concatenate([rng.normal(size=2), rng.normal(size=2)]) for _ in range(20)])
    a = sampson_batch(F_TX, rows)
    b = sampson_batch(10.0 * F_TX, rows)
    assert np.all(np.abs(a - b) < 1e-12)


def test_sampson_degenerate_denominator():
    with pytest.raises(DegenerateGeometryError):
        sampson_batch(np.zeros((3, 3)), [[0.0, 0.0, 0.0, 0.0]])


def test_rotation_jacobian_rejects_a_match_at_both_epipoles():
    """A match at the epipoles K t and K R t has a zero Sampson denominator."""
    r = Rotation(np.array([0.99, 0.05, -0.1, 0.02]))
    t = np.array([0.3, -0.2, 1.0])
    k = DEFAULT_INTRINSICS.k
    e_i, e_j = k @ t, k @ r.matrix @ t
    matches = np.array([[10.0, 20.0, 30.0, 40.0], [50.0, 60.0, 70.0, 80.0],
                        [*(e_i[:2] / e_i[2]), *(e_j[:2] / e_j[2])]])
    geom = TwoViewGeometry(r, t, DEFAULT_INTRINSICS, DEFAULT_INTRINSICS, matches)
    with pytest.raises(DegenerateGeometryError, match="zero Sampson denominator"):
        rotation_jacobian(geom)


def test_sampson_batch_matches_scalar():
    rng = np.random.default_rng(3)
    geom = _random_scene(rng)
    f = fundamental_from_pose(geom)
    batch = sampson_batch(f, geom.matches)
    for row, val in zip(geom.matches, batch):
        scalar = sampson_batch(f, row[None, :])[0]
        assert abs(scalar - val) < 1e-10 * max(1.0, abs(scalar))


# ---------------------------------------------------------------------------
# rotation Jacobian vs. finite differences
# ---------------------------------------------------------------------------


def _fd_rotation_jacobian(geom, h=1e-6):
    cols = []
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        gp = dataclasses.replace(geom, rotation=geom.rotation.compose(exp_so3(d)))
        gm = dataclasses.replace(geom, rotation=geom.rotation.compose(exp_so3(-d)))
        rp = sampson_batch(fundamental_from_pose(gp), geom.matches)
        rm = sampson_batch(fundamental_from_pose(gm), geom.matches)
        cols.append((rp - rm) / (2.0 * h))
    return np.column_stack(cols)


def _max_rel_error(analytic, fd):
    scale = max(np.abs(analytic).max(), 1e-12)
    return float(np.max(np.abs(analytic - fd)) / scale)


def test_rotation_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        geom = _random_scene(rng)
        worst = max(worst, _max_rel_error(rotation_jacobian(geom), _fd_rotation_jacobian(geom)))
    assert worst < 1e-4


def test_rotation_jacobian_generic_position():
    rng = np.random.default_rng(5)
    geom = _random_scene(rng, pixel_sigma=0.0)
    j = rotation_jacobian(geom)
    assert np.all(np.isfinite(j))
    assert np.linalg.eigvalsh(j.T @ j).min() > 0.0


def test_duplicating_correspondences_doubles_jtj():
    rng = np.random.default_rng(6)
    geom = _random_scene(rng, n_points=20)
    j = rotation_jacobian(geom)
    doubled = dataclasses.replace(geom, matches=np.vstack([geom.matches, geom.matches]))
    j2 = rotation_jacobian(doubled)
    assert np.allclose(j2.T @ j2, 2.0 * (j.T @ j), rtol=1e-12)


def test_rotation_jacobian_requires_three_inliers():
    rng = np.random.default_rng(7)
    geom = _random_scene(rng, n_points=10)
    small = dataclasses.replace(geom, matches=geom.matches[:2])
    with pytest.raises(InsufficientDataError):
        rotation_jacobian(small)
    with pytest.raises(InsufficientDataError):
        covariance_of_rotation(small)


# ---------------------------------------------------------------------------
# covariance and whitening
# ---------------------------------------------------------------------------


def test_whitener_diag_example():
    d = whitener_from_covariance(np.diag([4.0, 1.0, 1.0]))
    assert np.allclose(d, np.diag([0.5, 1.0, 1.0]), atol=1e-12)


def test_whitener_rejects_non_pd():
    with pytest.raises(DegenerateGeometryError):
        whitener_from_covariance(np.diag([1.0, -1.0, 1.0]))


def test_whitening_identity_and_quadratic_form():
    rng = np.random.default_rng(8)
    for _ in range(100):
        c = random_pd_matrix(rng)
        d = whitener_from_covariance(c)
        assert np.tril(d, -1).shape == (3, 3)
        assert np.allclose(np.triu(d, 1), 0.0)  # lower-triangular
        err = np.linalg.norm(d @ d.T @ c - np.eye(3)) / np.linalg.norm(np.eye(3))
        assert err < 1e-7
        r = rng.normal(size=3)
        lhs = float(np.sum((d.T @ r) ** 2))
        rhs = float(r @ np.linalg.solve(c, r))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_covariance_modes_and_sigma_scaling():
    rng = np.random.default_rng(9)
    geom = _random_scene(rng)
    ro = covariance_of_rotation(geom, residual_sigma=1.0, mode="rotation_only")
    mt = covariance_of_rotation(geom, residual_sigma=1.0, mode="marginalize_translation")
    # marginalizing the translation can only inflate the rotation covariance
    assert np.linalg.eigvalsh(mt - ro).min() > -1e-12
    scaled = covariance_of_rotation(geom, residual_sigma=2.0, mode="rotation_only")
    assert np.allclose(scaled, 4.0 * ro, rtol=1e-12)
    with pytest.raises(ValueError):
        covariance_of_rotation(geom, mode="nope")


def test_more_data_never_increases_uncertainty():
    rng = np.random.default_rng(10)
    geom = generate_two_view_scene(
        n_points=120, pixel_sigma=1.0, rotation=moderate_rotation(rng),
        translation=random_unit_vector(rng), seed=11,
    )
    base = dataclasses.replace(geom, matches=geom.matches[:60])
    c_small = covariance_of_rotation(base)
    c_big = covariance_of_rotation(geom)
    # eigenvalues of C never grow when PSD mass is added to JtJ
    assert np.linalg.eigvalsh(c_small - c_big).min() > -1e-15


def test_degenerate_jtj_raises():
    rng = np.random.default_rng(11)
    geom = _random_scene(rng, n_points=10)
    repeated = dataclasses.replace(geom, matches=np.tile(geom.matches[:1], (5, 1)))
    with pytest.raises(DegenerateGeometryError):
        covariance_of_rotation(repeated)


def test_trace_ordering_well_vs_poorly_constrained_pairs():
    """Wide-baseline pairs with many inliers beat narrow-baseline sparse ones."""
    rng = np.random.default_rng(12)
    wins = 0
    for trial in range(10):
        rot = moderate_rotation(rng)
        t = random_unit_vector(rng)
        wide = generate_two_view_scene(
            n_points=500, pixel_sigma=1.0, rotation=rot, translation=t,
            seed=100 + trial, scene_depth=2.0,
        )
        narrow = generate_two_view_scene(
            n_points=50, pixel_sigma=1.0, rotation=rot, translation=t,
            seed=200 + trial, scene_depth=50.0,
        )
        tr_wide = np.trace(covariance_of_rotation(wide))
        tr_narrow = np.trace(covariance_of_rotation(narrow))
        wins += tr_wide < tr_narrow
    assert wins == 10


# ---------------------------------------------------------------------------
# batched covariance pass
# ---------------------------------------------------------------------------


def _batch(rng, sizes):
    return [_random_scene(rng, n_points=n) for n in sizes]


@pytest.mark.parametrize("mode", ["rotation_only", "marginalize_translation"])
@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_rotation_covariances_match_per_pair(mode, sigma):
    rng = np.random.default_rng(13)
    geoms = _batch(rng, [8, 25, 60, 140, 33])
    covs, errors = rotation_covariances(geoms, residual_sigma=sigma, mode=mode)
    assert covs.shape == (5, 3, 3) and errors == [None] * 5
    for geom, cov in zip(geoms, covs):
        ref = covariance_of_rotation(geom, residual_sigma=sigma, mode=mode)
        assert np.max(np.abs(cov - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("sigma", [1.0, 1.7])
def test_covariance_of_rotation_is_built_from_rotation_jacobian(sigma):
    """Both read one Jacobian pass: sigma^2 (J^T J)^{-1} from rotation_jacobian,
    symmetrized, is covariance_of_rotation bit for bit."""
    for geom in _batch(np.random.default_rng(17), [8, 25, 60, 140, 33]):
        j = rotation_jacobian(geom)
        c = sigma ** 2 * np.linalg.inv(j.T @ j)
        assert (covariance_of_rotation(geom, residual_sigma=sigma).tobytes()
                == (0.5 * (c + c.T)).tobytes())


def test_rotation_covariances_reject_bad_sigma():
    geoms = _batch(np.random.default_rng(13), [8, 25])
    for sigma in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="residual sigma must be positive and finite"):
            rotation_covariances(geoms, residual_sigma=sigma)


@pytest.mark.parametrize("sigma", [1e200, 1e-200, 1e-160, np.float64(1e200)],
                         ids=["overflow", "underflow", "subnormal", "numpy-overflow"])
def test_rotation_covariances_reject_sigma_whose_square_is_out_of_range(sigma):
    """The loss scale's rule: C = sigma^2 (J^T J)^{-1} needs sigma^2 to be a finite
    normal float.  Outside it both entry points raise a ValueError naming the
    residual sigma, without a RuntimeWarning, instead of an OverflowError or a
    covariance that underflows to zero."""
    geoms = _batch(np.random.default_rng(13), [8, 25])
    for call in (lambda: rotation_covariances(geoms, residual_sigma=sigma),
                 lambda: covariance_of_rotation(geoms[0], residual_sigma=sigma)):
        with pytest.raises(ValueError, match=r"^residual sigma .* is out of range: its square "
                                             r"must be finite and at least the smallest normal"):
            call()


@pytest.mark.parametrize("mode", ["rotation_only", "marginalize_translation"])
def test_sampson_terms_that_overflow_raise_no_warning(mode):
    """A finite match coordinate of 1e155 overflows its Sampson denominator
    without a RuntimeWarning in either caller of the Sampson gradients: the
    other pair's covariance and the other matches' Jacobian rows are unchanged."""
    geoms = _batch(np.random.default_rng(14), [12, 20])
    far = geoms[1].matches.copy()
    far[0, 1] = 1e155
    near, geoms[1] = geoms[1], dataclasses.replace(geoms[1], matches=far)
    covs, errors = rotation_covariances(geoms, mode=mode)
    alone, _ = rotation_covariances(geoms[:1], mode=mode)
    assert errors[0] is None and covs[0].tobytes() == alone[0].tobytes()
    assert rotation_jacobian(geoms[1])[1:].tobytes() == rotation_jacobian(near)[1:].tobytes()


def test_rotation_covariances_isolate_bad_pairs():
    rng = np.random.default_rng(14)
    good = _batch(rng, [40, 12, 90])
    bad = bad_two_view_geometries(rng)
    mixed = [bad[0][0], good[0], bad[1][0], good[1], bad[2][0], good[2]]
    for mode in ("rotation_only", "marginalize_translation"):
        clean, clean_errors = rotation_covariances(good, mode=mode)
        covs, errors = rotation_covariances(mixed, mode=mode)
        assert clean_errors == [None] * 3
        assert np.array_equal(covs[[1, 3, 5]], clean)  # bit-identical
        assert [errors[k] for k in (1, 3, 5)] == [None] * 3
        for k, (geom, kind, message) in zip((0, 2, 4), bad):
            assert type(errors[k]) is kind and str(errors[k]) == message
            assert np.all(np.isnan(covs[k]))
            with pytest.raises(kind) as info:  # the one-pair case raises the same error
                covariance_of_rotation(geom, mode=mode)
            assert str(info.value) == message
    assert rotation_covariances([])[0].shape == (0, 3, 3)
    with pytest.raises(ValueError):
        rotation_covariances(good, mode="nope")


def test_whitener_of_stack_matches_per_matrix():
    rng = np.random.default_rng(15)
    stack = np.array([random_pd_matrix(rng) for _ in range(20)])
    batched = whitener_from_covariance(stack)
    assert batched.shape == (20, 3, 3)
    assert np.array_equal(batched, np.array([whitener_from_covariance(c) for c in stack]))
    with pytest.raises(DegenerateGeometryError):
        whitener_from_covariance(np.array([np.eye(3), np.diag([1.0, -1.0, 1.0])]))
