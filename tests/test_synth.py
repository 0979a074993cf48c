"""Synthetic scene generation: reproducibility, calibration, metadata."""

import numpy as np
import pytest
import scipy.stats

from rotavg.so3 import Rotation, geodesic_angle, log_so3, relative_residual
from rotavg.synth import (
    SIGMA_FLOOR_RAD,
    SynthConfig,
    generate_graph,
    generate_two_view_scene,
)
from rotavg.twoview import covariance_of_rotation, fundamental_from_pose, sampson_batch
from rotavg.viewgraph import connected_components

from conftest import moderate_rotation, random_unit_vector


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_two_view_scene_behind_camera_j_raises():
    """A half turn about y puts every point in front of camera i behind camera j."""
    with pytest.raises(RuntimeError, match="could not place points in front of both cameras"):
        generate_two_view_scene(8, 1.0, Rotation(np.array([0.0, 0.0, 1.0, 0.0])), [0.0, 0.0, 1.0])


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(1, 0.5, ((1.0, 1.0),))
    with pytest.raises(ValueError):
        SynthConfig(5, 0.0, ((1.0, 1.0),))
    with pytest.raises(ValueError):
        SynthConfig(5, 0.5, ((0.6, 1.0),))  # fractions must sum to 1
    with pytest.raises(ValueError):
        SynthConfig(5, 0.5, ((1.0, -1.0),))
    with pytest.raises(ValueError):
        SynthConfig(5, 0.5, ((1.0, 1.0),), outlier_fraction=1.0)
    with pytest.raises(ValueError):
        SynthConfig(5, 0.5, ((1.0, 1.0),), outlier_covariance="nope")
    # NaN and inf pass comparisons; negative fractions can still sum to 1
    for mixture, why in ((((1.0, np.nan),), "finite"), (((np.nan, 1.0),), "finite"),
                         (((1.0, np.inf),), "finite"),
                         (((-0.5, 1.0), (1.5, 1.0)), r"in \[0, 1\]"),
                         (((1.0, 1e200),), "at most 180 degrees")):
        with pytest.raises(ValueError, match=why):
            SynthConfig(5, 0.5, mixture)


# ---------------------------------------------------------------------------
# graph generation
# ---------------------------------------------------------------------------


def test_reproducibility_bitwise():
    config = SynthConfig(20, 0.4, ((0.5, 0.5), (0.5, 5.0)), outlier_fraction=0.1, seed=13)
    a = generate_graph(config)
    b = generate_graph(config)
    assert a.outlier_edge_ids == b.outlier_edge_ids
    assert [e.key for e in a.graph.edges] == [e.key for e in b.graph.edges]
    for ea, eb in zip(a.graph.edges, b.graph.edges):
        assert np.array_equal(ea.rotation.quaternion, eb.rotation.quaternion)
        assert ea.inlier_count == eb.inlier_count
        assert np.array_equal(ea.covariance, eb.covariance)
    c = generate_graph(SynthConfig(20, 0.4, ((0.5, 0.5), (0.5, 5.0)),
                                   outlier_fraction=0.1, seed=14))
    assert any(not np.array_equal(ea.rotation.quaternion, ec.rotation.quaternion)
               for ea, ec in zip(a.graph.edges, c.graph.edges))


def test_graph_is_connected_with_gt_everywhere():
    scene = generate_graph(SynthConfig(30, 0.15, ((1.0, 1.0),), seed=2))
    assert len(connected_components(scene.graph)) == 1
    assert all(n.gt_rotation is not None for n in scene.graph.nodes.values())


def test_zero_noise_graph_is_consistent():
    scene = generate_graph(SynthConfig(8, 0.8, ((1.0, 0.0),), seed=3))
    gt = {nid: n.gt_rotation for nid, n in scene.graph.nodes.items()}
    for e in scene.graph.edges:
        assert np.linalg.norm(relative_residual(gt[e.i], gt[e.j], e.rotation)) < 1e-12
        assert np.allclose(e.covariance, SIGMA_FLOOR_RAD ** 2 * np.eye(3))


def test_two_node_graph():
    scene = generate_graph(SynthConfig(2, 1.0, ((1.0, 2.0),), seed=4))
    assert len(scene.graph.edges) == 1
    e = scene.graph.edges[0]
    gt = scene.graph.nodes
    ang = geodesic_angle(e.rotation, gt[e.i].gt_rotation.compose(gt[e.j].gt_rotation.inverse()))
    assert ang < np.radians(15.0)  # a few sigma of 2 degrees


def test_mixture_noise_calibration():
    """Per-component residual statistics match the configured sigmas."""
    config = SynthConfig(150, 0.9, ((0.5, 0.5), (0.5, 5.0)), seed=5)
    scene = generate_graph(config)
    gt = {nid: n.gt_rotation for nid, n in scene.graph.nodes.items()}
    samples = {}
    for e in scene.graph.edges:
        eps = relative_residual(gt[e.i], gt[e.j], e.rotation)
        sigma = scene.edge_sigmas_rad[e.key]
        samples.setdefault(round(np.degrees(sigma), 6), []).append(eps)
    assert set(samples) == {0.5, 5.0}
    for sigma_deg, eps_list in samples.items():
        comps = np.concatenate(eps_list)
        assert comps.size > 10000
        sigma = np.radians(sigma_deg)
        assert abs(comps.std() - sigma) / sigma < 0.1
        # Kolmogorov-Smirnov on the standardized residual components
        _, p = scipy.stats.kstest(comps / sigma, "norm")
        assert p > 0.01


def test_no_covariance_flag():
    scene = generate_graph(SynthConfig(8, 0.8, ((1.0, 1.0),), seed=6,
                                       report_true_covariance=False))
    assert all(e.covariance is None for e in scene.graph.edges)
    assert all(e.inlier_count is not None for e in scene.graph.edges)


def test_outlier_metadata_channels():
    config = SynthConfig(40, 0.5, ((0.5, 0.5), (0.5, 5.0)),
                         outlier_fraction=0.15, seed=7)
    scene = generate_graph(config)
    outliers = set(scene.outlier_edge_ids)
    assert outliers
    sigma_min = np.radians(0.5)
    inlier_counts, outlier_counts = [], []
    for e in scene.graph.edges:
        if e.key in outliers:
            # confident covariance: the smallest mixture sigma
            assert np.allclose(e.covariance, sigma_min ** 2 * np.eye(3))
            outlier_counts.append(e.inlier_count)
        else:
            inlier_counts.append(e.inlier_count)
    # outlier edges always look weak in the inlier-count channel
    assert np.median(outlier_counts) < np.median(inlier_counts)
    assert max(outlier_counts) < np.percentile(inlier_counts, 75)
    honest = generate_graph(SynthConfig(40, 0.5, ((0.5, 0.5), (0.5, 5.0)),
                                        outlier_fraction=0.15, seed=7,
                                        outlier_covariance="honest"))
    for e in honest.graph.edges:
        if e.key in set(honest.outlier_edge_ids):
            assert np.allclose(e.covariance, (np.pi / 2) ** 2 * np.eye(3))


def test_outlier_rotations_are_far_from_truth():
    scene = generate_graph(SynthConfig(40, 0.5, ((1.0, 0.5),),
                                       outlier_fraction=0.2, seed=8))
    gt = {nid: n.gt_rotation for nid, n in scene.graph.nodes.items()}
    outliers = set(scene.outlier_edge_ids)
    angles = [np.linalg.norm(relative_residual(gt[e.i], gt[e.j], e.rotation))
              for e in scene.graph.edges if e.key in outliers]
    assert np.median(angles) > np.radians(30.0)


# ---------------------------------------------------------------------------
# two-view scenes
# ---------------------------------------------------------------------------


def test_two_view_scene_zero_noise_has_zero_sampson():
    rng = np.random.default_rng(9)
    geom = generate_two_view_scene(
        n_points=50, pixel_sigma=0.0, rotation=moderate_rotation(rng),
        translation=random_unit_vector(rng), seed=10,
    )
    res = sampson_batch(fundamental_from_pose(geom), geom.matches)
    assert np.max(np.abs(res)) < 1e-9


def test_two_view_scene_validation_and_determinism():
    rng = np.random.default_rng(11)
    rot = moderate_rotation(rng)
    with pytest.raises(ValueError):
        generate_two_view_scene(4, 1.0, rot, np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        generate_two_view_scene(20, 1.0, rot, np.zeros(3))
    a = generate_two_view_scene(20, 1.0, rot, np.array([1.0, 0, 0]), seed=12)
    b = generate_two_view_scene(20, 1.0, rot, np.array([1.0, 0, 0]), seed=12)
    assert np.array_equal(a.matches, b.matches)


@pytest.mark.parametrize("t, rule", [
    ([np.nan, 0.0, 0.0], "non-finite translation"),
    ([np.inf, 0.0, 0.0], "non-finite translation"),
    ([1e200, 1e200, 0.0], "translation norm overflows"),
    ([0.0, 0.0, 0.0], "zero-baseline translation"),
], ids=["nan", "inf", "overflow", "zero"])
def test_two_view_scene_refuses_a_bad_translation_before_any_draw(monkeypatch, t, rule):
    """The translation rules are TwoViewGeometry's: a translation that breaks one
    raises its ValueError before a generator is made, and with no RuntimeWarning
    (tier-1 takes those as errors), not after drawing the whole point budget."""
    made = []
    monkeypatch.setattr(np.random, "Generator", lambda *args: made.append(args))
    with pytest.raises(ValueError, match=f"^{rule}$"):
        generate_two_view_scene(20, 1.0, Rotation.identity(), t)
    assert made == []


def _two_view_points_one_at_a_time(n_points, rotation, t, seed, scene_depth):
    """The reference for generate_two_view_scene's point draws: one candidate
    point per iteration, at most 100 n_points of them.  Returns the points (or
    None when too few land in front of both cameras), the number of candidates
    drawn and the generator."""
    rng = np.random.Generator(np.random.Philox(seed))
    r = rotation.matrix
    half = 0.4 * scene_depth
    pts = np.empty((n_points, 3))
    count = drawn = 0
    for _ in range(100 * n_points):
        x = np.array([
            rng.uniform(-half, half),
            rng.uniform(-half, half),
            rng.uniform(0.7 * scene_depth, 1.3 * scene_depth),
        ])
        drawn += 1
        if x[2] > 0.1 and (r @ (x + t))[2] > 0.1:
            pts[count] = x
            count += 1
            if count == n_points:
                return pts, drawn, rng
    return None, drawn, rng


def test_two_view_scene_draws_the_one_point_at_a_time_stream(monkeypatch):
    """The array draws place the points, leave the generator where, and fail
    where, the point-by-point loop does.  Rotations up to 90 degrees and
    depths down to 0.16 baselines make some scenes need a second batch and
    some fail."""
    made = []
    real_generator = np.random.Generator

    def recording_generator(bit_generator):
        made.append(real_generator(bit_generator))
        return made[-1]

    rng = np.random.default_rng(2027)
    second_batch = failed = 0
    for seed in range(320):
        n = int(rng.integers(8, 40))
        rot = moderate_rotation(rng, 0.0, 90.0)
        t = random_unit_vector(rng)
        depth = float(10.0 ** rng.uniform(-0.8, 0.8))
        pts, drawn, ref_rng = _two_view_points_one_at_a_time(n, rot, t, seed, depth)
        second_batch += drawn > n
        monkeypatch.setattr(np.random, "Generator", recording_generator)
        try:
            if pts is None:
                failed += 1
                with pytest.raises(RuntimeError,
                                   match="could not place points in front of both cameras"):
                    generate_two_view_scene(n, 0.5, rot, t, seed=seed, scene_depth=depth)
                assert made[-1].random() == ref_rng.random()
                continue
            geom, clean, got = generate_two_view_scene(n, 0.5, rot, t, seed=seed,
                                                       scene_depth=depth, return_clean=True)
        finally:
            monkeypatch.setattr(np.random, "Generator", real_generator)
        assert got.tobytes() == pts.tobytes()
        noise = ref_rng.normal(scale=0.5, size=clean.shape)
        assert geom.matches.tobytes() == (clean + noise).tobytes()
        assert made[-1].random() == ref_rng.random()
    assert second_batch > 50 and failed > 20


def test_doubling_points_roughly_halves_trace():
    rng = np.random.default_rng(13)
    ratios = []
    for trial in range(25):
        rot = moderate_rotation(rng)
        t = random_unit_vector(rng)
        small = generate_two_view_scene(60, 1.0, rot, t, seed=500 + trial)
        big = generate_two_view_scene(120, 1.0, rot, t, seed=900 + trial)
        ratios.append(np.trace(covariance_of_rotation(big))
                      / np.trace(covariance_of_rotation(small)))
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 0.5) < 0.15  # 1/N scaling of (JtJ)^-1
