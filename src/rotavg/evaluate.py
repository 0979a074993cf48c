"""Alignment to ground truth and rotation-error statistics.

Estimates and ground truth differ by the gauge freedom of the averaging
objective: a common right-multiplied rotation.  The alignment therefore
fits one rotation ``R_align``, the robust (Cauchy) mean of the per-node
discrepancies ``m_i = R_i^T R_i'`` (ground truth vs. estimate), and reports
``error_i = ||Log(m_i R_align^T)||``, the geodesic angle between the ground
truth and the gauge-corrected estimate ``R_i' R_align^T``.  The mean is an
IRLS (Weiszfeld-type) iteration on the residual logarithms, with no Jacobian,
damping or linear solve: it moves ``R_align`` by the weighted mean of the
residuals until that mean vanishes, which is the stationary point of the
robust cost (Hartley, Trumpf, Dai & Li, "Rotation Averaging", IJCV 2013).
The per-node discrepancies and residuals are (N, 4) quaternion arrays
handled by the :mod:`rotavg.so3` array functions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, evaluate_loss
from .so3 import Rotation, canonical_quats, quat_conj, quat_exp, quat_log, quat_mul

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


def _residuals(quats: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Log(m_i R^T) for every row m_i of ``quats`` and the quaternion ``q`` of R, as (N, 3)."""
    return quat_log(quat_mul(quats, quat_conj(q)))


def fit_alignment_rotation(quats: np.ndarray, loss: LossSpec) -> Rotation:
    """Robust mean of the per-node discrepancies m_i, rows of (N, 4) quaternions.

    IRLS mean of the residuals ``r_i = Log(m_i R^T)``, started at the chordal
    mean: each pass weighs the residuals with ``w_i = d(rho)/ds`` at
    ``s = ||r_i||^2`` and moves ``R <- Exp(step) R`` by their weighted mean
    ``step = sum w_i r_i / sum w_i``.  A fixed point has ``sum w_i r_i = 0``,
    the stationarity condition of ``sum rho(||r_i||^2)`` (its gradient in R
    is ``-R^T sum w_i r_i``).  The loop stops when ``||step||_inf < 1e-14``,
    when every weight is zero (no residual inside a redescending loss's
    support) or after 64 passes.
    """
    q = _chordal_mean_quat(quats).quaternion
    for _ in range(64):
        res = _residuals(quats, q)
        w = evaluate_loss(loss, np.sum(res * res, axis=1)).weight
        total = np.sum(w)
        if not total > 0.0:
            break
        step = w @ res / total
        if np.max(np.abs(step)) < 1e-14:
            break
        q = canonical_quats(quat_mul(quat_exp(step), q))
    return Rotation(q)


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
    errors = np.degrees(np.linalg.norm(_residuals(discrepancies, r_align.quaternion), axis=1))
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
