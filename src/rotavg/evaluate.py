"""Alignment to ground truth and rotation-error statistics.

Estimates and ground truth differ by the gauge freedom of the averaging
objective: a common right-multiplied rotation.  The alignment therefore
fits one rotation ``R_align`` minimizing a robust (Cauchy) cost over the
per-node discrepancies ``m_i = R_i^T R_i'`` (ground truth vs. estimate) and
reports ``error_i = ||Log(m_i R_align^T)||``, the geodesic angle between
the ground truth and the gauge-corrected estimate ``R_i' R_align^T``.
The per-node discrepancies and residuals are (N, 4) quaternion arrays
handled by the :mod:`rotavg.so3` array functions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .losses import LossSpec, evaluate_loss
from .so3 import Rotation, canonical_quats, exp_so3, quat_conj, quat_log, quat_mul

__all__ = ["AlignmentResult", "align_rotations", "auc", "export_cdf"]

# Cauchy scale (radians) for the robust single-rotation fit
ALIGN_CAUCHY_SCALE = 0.1


@dataclass(frozen=True)
class AlignmentResult:
    r_align: Rotation
    per_view_errors: dict[int, float]  # degrees
    inlier_fraction_under_5deg: float


def _chordal_mean_quat(quats: np.ndarray) -> Rotation:
    """Single-rotation chordal mean via the quaternion eigenvector method."""
    q = np.where((quats @ quats[0] < 0.0)[:, None], -quats, quats)
    _, vecs = np.linalg.eigh(q.T @ q)
    return Rotation(vecs[:, -1])


def _residuals(quats: np.ndarray, r: Rotation) -> np.ndarray:
    """Log(m_i R^T) for every row m_i of ``quats``, as (N, 3)."""
    return quat_log(quat_mul(quats, quat_conj(r.quaternion)))


def fit_alignment_rotation(quats: np.ndarray, loss: LossSpec) -> Rotation:
    """Robust mean of the per-node discrepancies m_i, rows of (N, 4) quaternions.

    IRLS + damped Gauss-Newton on the residuals ``Log(m_i R^T)``.
    """
    r_align = _chordal_mean_quat(quats)
    lam = 1e-6
    prev_cost = None
    for _ in range(64):
        res = _residuals(quats, r_align)
        ev = evaluate_loss(loss, np.sum(res * res, axis=1))
        cost = float(np.sum(ev.value))
        if prev_cost is not None and abs(prev_cost - cost) <= 1e-14 * max(1.0, prev_cost):
            break
        prev_cost = cost
        w = ev.weight
        # residual r_i = Log(m_i R^T); for R <- R exp(d): dr/dd = -Jr_inv(r_i) R
        jac = -kernels.jr_inv(res) @ r_align.matrix
        jac_t = np.swapaxes(jac, 1, 2)
        h = np.sum(w[:, None, None] * np.matmul(jac_t, jac), axis=0)
        grad = np.sum(w[:, None] * np.matmul(jac_t, res[:, :, None])[:, :, 0], axis=0)
        if np.max(np.abs(grad)) < 1e-14:
            break
        accepted = False
        for _ in range(10):
            try:
                factor = scipy.linalg.cho_factor(h + lam * np.eye(3), check_finite=False)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            delta = scipy.linalg.cho_solve(factor, -grad, check_finite=False)
            trial = r_align.compose(exp_so3(delta))
            res_t = _residuals(quats, trial)
            cost_t = float(np.sum(evaluate_loss(loss, np.sum(res_t * res_t, axis=1)).value))
            if cost_t <= cost:
                r_align = trial
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted or np.linalg.norm(delta) < 1e-14:
            break
    return r_align


def align_rotations(
    est: dict[int, Rotation],
    gt: dict[int, Rotation],
    loss: LossSpec | None = None,
) -> AlignmentResult:
    """Fit the gauge rotation and compute per-view errors in degrees."""
    common = sorted(set(est) & set(gt))
    if not common:
        raise ValueError("estimate and ground truth share no node ids")
    if loss is None:
        loss = LossSpec("cauchy", scale=ALIGN_CAUCHY_SCALE)
    q_gt = np.array([gt[nid].quaternion for nid in common])
    q_est = np.array([est[nid].quaternion for nid in common])
    discrepancies = canonical_quats(quat_mul(quat_conj(q_gt), q_est))
    r_align = fit_alignment_rotation(discrepancies, loss)
    errors = np.degrees(np.linalg.norm(_residuals(discrepancies, r_align), axis=1))
    return AlignmentResult(
        r_align=r_align,
        per_view_errors=dict(zip(common, errors.tolist())),
        inlier_fraction_under_5deg=np.count_nonzero(errors < 5.0) / len(common),
    )


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless ``threshold`` is a positive number (NaN is not)."""
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, not {threshold:g}")


def auc(errors, threshold: float) -> float:
    """Exact area under the step recall curve, in percent.

    AUC@a = (100/N) * sum_i max(0, 1 - e_i / a).
    """
    errors = np.asarray(list(errors), dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    if not np.all(np.isfinite(errors)):
        raise ValueError("non-finite errors")
    check_threshold(threshold)
    return float(np.mean(np.maximum(0.0, 100.0 * (1.0 - errors / threshold))))


def export_cdf(errors, path) -> None:
    """Write sorted errors with their empirical CDF as CSV."""
    errors = sorted(float(e) for e in errors)
    if not errors:
        raise ValueError("empty error list")
    n = len(errors)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["error_deg", "cdf"])
        for i, e in enumerate(errors):
            writer.writerow([repr(e), repr((i + 1) / n)])
