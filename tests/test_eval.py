"""Alignment to ground truth, AUC, and CDF export."""

import csv

import numpy as np
import pytest

from rotavg.evaluate import ALIGN_CAUCHY_SCALE, AlignmentResult, align_rotations, auc, export_cdf
from rotavg.losses import LossSpec, evaluate_loss
from rotavg.so3 import Rotation, exp_so3, geodesic_angle, log_so3

from conftest import random_rotation


def _random_gt(rng, n):
    return {i: random_rotation(rng) for i in range(n)}


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def test_alignment_of_identical_sets():
    rng = np.random.default_rng(0)
    gt = _random_gt(rng, 10)
    res = align_rotations(gt, gt)
    assert geodesic_angle(res.r_align, Rotation.identity()) < 1e-12
    assert max(res.per_view_errors.values()) < 1e-10
    assert res.inlier_fraction_under_5deg == 1.0


def test_alignment_recovers_global_rotation():
    rng = np.random.default_rng(1)
    gt = _random_gt(rng, 20)
    q = random_rotation(rng)
    est = {i: r.compose(q) for i, r in gt.items()}  # common gauge rotation
    res = align_rotations(est, gt)
    assert max(res.per_view_errors.values()) < 1e-8  # degrees
    assert geodesic_angle(res.r_align, q) < 1e-6


def test_alignment_idempotence():
    rng = np.random.default_rng(2)
    gt = _random_gt(rng, 15)
    q = random_rotation(rng)
    est = {i: r.compose(q).compose(exp_so3(rng.normal(scale=0.01, size=3)))
           for i, r in gt.items()}
    first = align_rotations(est, gt)
    aligned = {i: r.compose(first.r_align.inverse()) for i, r in est.items()}
    second = align_rotations(aligned, gt)
    assert geodesic_angle(second.r_align, Rotation.identity()) < 1e-8


def test_errors_recomputable_from_r_align():
    rng = np.random.default_rng(3)
    gt = _random_gt(rng, 12)
    est = {i: r.compose(exp_so3(rng.normal(scale=0.05, size=3))) for i, r in gt.items()}
    res = align_rotations(est, gt)
    for i in gt:
        m = gt[i].inverse().compose(est[i])
        err = np.degrees(np.linalg.norm(log_so3(m.compose(res.r_align.inverse()))))
        assert abs(err - res.per_view_errors[i]) < 1e-10


def test_robust_alignment_suppresses_outliers():
    rng = np.random.default_rng(4)
    gt = _random_gt(rng, 20)
    flip = exp_so3(np.array([0.0, 0.0, np.pi / 2]))  # 90 degree corruption
    est = {}
    corrupted = set(range(4))  # 20 percent of nodes
    for i, r in gt.items():
        est[i] = r.compose(flip) if i in corrupted else r
    robust = align_rotations(est, gt)  # Cauchy default
    clean_robust = [robust.per_view_errors[i] for i in gt if i not in corrupted]
    assert max(clean_robust) < 0.5
    l2 = align_rotations(est, gt, loss=LossSpec("trivial", scale=1.0))
    clean_l2 = [l2.per_view_errors[i] for i in gt if i not in corrupted]
    assert min(clean_l2) > 2.0


def test_alignment_requires_common_ids():
    with pytest.raises(ValueError):
        align_rotations({0: Rotation.identity()}, {1: Rotation.identity()})


def test_alignment_uses_only_common_ids():
    rng = np.random.default_rng(5)
    gt = _random_gt(rng, 10)
    est = {i: gt[i] for i in range(5)}
    est[99] = random_rotation(rng)  # no gt counterpart; ignored
    res = align_rotations(est, gt)
    assert set(res.per_view_errors) == set(range(5))
    assert max(res.per_view_errors.values()) < 1e-10


def _reference_alignment(est, gt):
    """The IRLS alignment mean computed node by node with Rotation objects (reference)."""
    loss = LossSpec("cauchy", scale=ALIGN_CAUCHY_SCALE)
    common = sorted(set(est) & set(gt))
    disc = [gt[nid].inverse().compose(est[nid]) for nid in common]
    m = np.zeros((4, 4))
    for d in disc:
        q = d.quaternion if d.quaternion @ disc[0].quaternion >= 0.0 else -d.quaternion
        m += np.outer(q, q)
    r = Rotation(np.linalg.eigh(m)[1][:, -1])
    for _ in range(64):
        res = [log_so3(d.compose(r.inverse())) for d in disc]
        weights = [float(evaluate_loss(loss, float(v @ v)).weight) for v in res]
        step = sum(w * v for w, v in zip(weights, res)) / sum(weights)
        if np.max(np.abs(step)) < 1e-14:
            break
        r = exp_so3(step).compose(r)
    errors = {nid: float(np.degrees(np.linalg.norm(log_so3(d.compose(r.inverse())))))
              for nid, d in zip(common, disc)}
    return r, errors


def _criterion_11_case():
    rng = np.random.default_rng(11)
    gt = {i: random_rotation(rng) for i in range(25)}
    q = random_rotation(rng)
    return {i: r.compose(q) for i, r in gt.items()}, gt


def _noisy_case():
    rng = np.random.default_rng(12)
    gt = _random_gt(rng, 25)
    q = random_rotation(rng)
    est = {i: r.compose(q).compose(exp_so3(rng.normal(scale=0.05, size=3)))
           for i, r in gt.items()}
    for i in (3, 11, 17):
        est[i] = random_rotation(rng)
    return est, gt


@pytest.mark.parametrize("case", [_criterion_11_case, _noisy_case])
def test_alignment_matches_per_node_reference(case):
    est, gt = case()
    r_ref, errors_ref = _reference_alignment(est, gt)
    res = align_rotations(est, gt)
    assert res.per_view_errors.keys() == errors_ref.keys()
    assert max(abs(res.per_view_errors[i] - errors_ref[i]) for i in gt) <= 1e-12
    assert np.abs(res.r_align.quaternion - r_ref.quaternion).max() < 1e-12
    assert res.inlier_fraction_under_5deg == sum(e < 5.0 for e in errors_ref.values()) / 25


def test_alignment_stops_at_a_stationary_point():
    """The weighted residual sum, minus the robust cost's gradient, vanishes at R_align."""
    est, gt = _noisy_case()
    res = align_rotations(est, gt)
    loss = LossSpec("cauchy", scale=ALIGN_CAUCHY_SCALE)
    grad = np.zeros(3)
    for i in gt:
        r = log_so3(gt[i].inverse().compose(est[i]).compose(res.r_align.inverse()))
        grad += evaluate_loss(loss, float(r @ r)).weight * r
    assert np.abs(grad).max() <= 1e-12


def test_alignment_with_every_weight_zero_is_finite():
    """No view inside a redescending loss's support: the chordal start is kept."""
    est, gt = _noisy_case()
    res = align_rotations(est, gt, loss=LossSpec("tukey", scale=1e-6))
    assert np.all(np.isfinite(res.r_align.quaternion))
    assert all(np.isfinite(e) for e in res.per_view_errors.values())


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def test_auc_hand_value():
    assert auc([1.0, 3.0], 5.0) == 60.0


def test_auc_extremes():
    assert auc([0.0, 0.0, 0.0], 5.0) == 100.0
    assert auc([5.0, 7.0, 100.0], 5.0) == 0.0


def test_auc_monotone_in_threshold():
    rng = np.random.default_rng(6)
    errors = rng.uniform(0.0, 30.0, size=100)
    values = [auc(errors, t) for t in (2.0, 5.0, 10.0, 20.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_auc_scale_and_permutation_invariance():
    rng = np.random.default_rng(7)
    errors = rng.uniform(0.0, 10.0, size=50)
    assert abs(auc(errors, 4.0) - auc(np.random.permutation(errors), 4.0)) < 1e-12
    assert abs(auc(errors, 4.0) - auc(3.0 * errors, 12.0)) < 1e-12


def test_auc_input_validation():
    with pytest.raises(ValueError):
        auc([], 5.0)
    with pytest.raises(ValueError):
        auc([np.nan], 5.0)
    with pytest.raises(ValueError):
        auc([1.0], 0.0)
    with pytest.raises(ValueError, match="threshold must be positive, not nan"):
        auc([1.0], float("nan"))


# ---------------------------------------------------------------------------
# CDF export
# ---------------------------------------------------------------------------


def _read_cdf(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["error_deg", "cdf"]
    return [(float(a), float(b)) for a, b in rows[1:]]


def test_export_cdf_single_error(tmp_path):
    path = tmp_path / "cdf.csv"
    export_cdf([2.0], path)
    assert _read_cdf(path) == [(2.0, 1.0)]


def test_export_cdf_identical_errors(tmp_path):
    path = tmp_path / "cdf.csv"
    export_cdf([3.0, 3.0, 3.0], path)
    rows = _read_cdf(path)
    assert all(e == 3.0 for e, _ in rows)
    assert rows[-1][1] == 1.0


def test_export_cdf_monotone(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "cdf.csv"
    errors = rng.uniform(0.0, 20.0, size=64)
    export_cdf(errors, path)
    rows = _read_cdf(path)
    assert [e for e, _ in rows] == sorted(errors)
    cdf = [c for _, c in rows]
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] == 1.0
    with pytest.raises(ValueError):
        export_cdf([], tmp_path / "empty.csv")
