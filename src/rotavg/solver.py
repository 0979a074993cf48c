"""IRLS-wrapped damped Gauss-Newton rotation averaging.

Minimizes  sum_e rho(||W_e L_e(R_i, R_j, R_ij)||^2)  over all absolute
rotations, where ``W_e`` is the per-edge weighting transform (identity,
scalar, or the covariance whitener ``D_e^T``) and ``rho`` a robust loss.

The outer loop freezes IRLS weights from the current residuals: one
array-valued :func:`~rotavg.losses.evaluate_loss` call per re-weighting (and
one at the initialization) gives the robust cost and the weights of every
edge, and ``final_cost`` is the last such robust cost, that of the returned
rotations.  The inner loop runs Levenberg-damped Gauss-Newton on the
resulting weighted least-squares problem over right tangent-space updates
``R_i <- R_i exp(delta_i)``, with the smallest-id node held fixed (gauge).
Every re-weighted problem starts its Levenberg damping afresh from
``DAMPING_INIT``; no damping carries over between outer iterations.
Inner steps are accepted only when they decrease the frozen weighted
least-squares cost, which (rho being concave in the squared residual)
guarantees the robust cost never increases across outer iterations.
Every classic loss is; ``magsac`` is for ``nu <= 3``, and
:class:`SolverConfig` takes it at ``nu = 3`` only, so only round-off can
trip the outer loop's non-decrease guard.

All traversal and summation is in sorted edge-key order, so identical
inputs produce bit-identical results.

The inner loop is array code over a scatter pattern built once per solve
(:func:`_normal_pattern`): every per-edge 3x3 block entry and gradient
entry has a fixed slot in the dense gauge-reduced normal matrix, and each
inner iteration computes the blocks of all edges at once and scatters them
with ``np.bincount``, which sums in input order.  Each diagonal slot
therefore sums its edges in edge order, the i-row before the j-row, and
each off-diagonal slot takes exactly one edge (``ViewGraph`` rejects
duplicate pairs).  The slots lay the matrix out column by column, so it
comes out F-contiguous, the order LAPACK reads.  A damping retry copies
it once, adds lambda to the diagonal of the copy and factors the copy in
place; handed over in C order, the matrix would be transposed into a
second copy before every factorization.  The batched arithmetic is
chosen to round exactly like the per-edge and per-node formulas it
replaced: block products use batched ``np.matmul`` (not ``einsum``),
squared norms use ``np.vecdot`` (the same dot kernel as a 1-D
``x @ x``), and the retraction is the :mod:`rotavg.so3` exponential and
Hamilton product that :class:`~rotavg.so3.Rotation` wraps.

Every damped system ``(H + lambda I) d = -g`` is solved by one dense
Cholesky factorization (LAPACK ``potrf``/``potrs``), so memory is
O(nodes^2): 11 MB for the matrix at 400 cameras.  On view graphs of a few
hundred cameras this is several times faster than sparse LU, because these
graphs fill in badly under every LU ordering.  A system that is not
numerically positive definite yields a non-finite step, which the inner
loop treats like a rejected trial (grow lambda, retry).

A trial that is accepted keeps its residuals and Jacobian blocks, which
assemble the next normal equations, so each trial costs one
:func:`~rotavg.kernels.edge_terms` evaluation.

Before a trial, the inner loop compares the decrease predicted by the
damped Gauss-Newton model of ``1/2 sum_e w_e ||r_e||^2``,
``1/2 d^T (lambda d - g)`` (Madsen, Nielsen & Tingleff, 2004), with the
weighted least-squares cost.  When the prediction is at most machine
epsilon times the cost, no step can show a decrease above round-off, so
the inner run ends there, without evaluating the trial and without
growing lambda.  The tolerance is machine epsilon, not a setting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import kernels
from .errors import ConfigurationError, NumericalError
from .losses import LossSpec, evaluate_loss
from .so3 import Rotation, canonical_quats, checked_rotations, quat_exp, quat_mul
from .twoview import whitener_from_covariance
from .viewgraph import (ViewGraph, _check_records, _quaternion_rules, check_connected,
                        json_records, read_json_object, write_json)

logger = logging.getLogger(__name__)

WEIGHTING_MODES = ("none", "inlier_count", "cov_trace", "cov_fro", "cov_full")

DAMPING_INIT = 1e-4  # Levenberg lambda at the start of every outer iteration


@dataclass(frozen=True)
class SolverConfig:
    loss: LossSpec = field(default_factory=lambda: LossSpec("trivial"))
    weighting: str = "none"
    max_outer_irls: int = 32
    max_inner_gn: int = 10
    gradient_tol: float = 1e-10
    cost_rel_tol: float = 1e-9
    fallback_to_unit: bool = True

    def __post_init__(self):
        if self.weighting not in WEIGHTING_MODES:
            raise ConfigurationError(
                f"unknown weighting mode {self.weighting!r}; choose from {WEIGHTING_MODES}"
            )
        if self.loss.kind == "magsac" and self.loss.nu != 3:
            raise ConfigurationError(
                f"the solver takes the magsac loss at nu = 3 only, not {self.loss.nu}: for "
                "nu > 3 rho is not concave in the squared residual, so IRLS can raise the "
                "cost, and for nu = 2 the weight is unbounded at a zero residual"
            )
        if self.max_outer_irls < 1 or self.max_inner_gn < 1:
            raise ConfigurationError("iteration caps must be >= 1")
        for name in ("gradient_tol", "cost_rel_tol"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class AveragingResult:
    rotations: dict[int, Rotation]
    final_cost: float
    outer_iterations: int
    converged: bool
    edge_weights: dict[tuple[int, int], float]
    edge_residual_norms: dict[tuple[int, int], float]
    termination: str = ""
    unit_fallback_edges: int = 0


def _mean_inliers(g: ViewGraph) -> float:
    counts = [e.inlier_count for e in g.edges if e.inlier_count is not None]
    return float(np.mean(counts)) if counts else 1.0


def _transform_stack(g: ViewGraph, config: SolverConfig):
    """(E, 3, 3) weighting transforms W_e plus the unit-fallback count.

    ``cov_full`` uses D_e^T, ``cov_trace`` and ``cov_fro`` scale the identity
    by tr(C_e)^{-1/2} and (||C_e^{-1}||_F / 3)^{1/2}, ``inlier_count`` by
    (n_e / mean n)^{1/2}.  The whiteners of all weighted edges come from one
    stacked call.  Edges without the needed datum get the identity (reported
    in one warning), or raise when ``fallback_to_unit`` is off.
    """
    weighting = config.weighting
    mats = np.tile(np.eye(3), (len(g.edges), 1, 1))
    if weighting == "none":
        return mats, 0
    attr, what = (("inlier_count", "inlier count") if weighting == "inlier_count"
                  else ("covariance", "covariance"))
    rows = [k for k, e in enumerate(g.edges) if getattr(e, attr) is not None]
    fallbacks = len(g.edges) - len(rows)
    if fallbacks and not config.fallback_to_unit:
        e = next(e for e in g.edges if getattr(e, attr) is None)
        raise ConfigurationError(f"edge ({e.i}, {e.j}) has no {what} for {weighting} weighting")
    if rows:
        data = np.array([getattr(g.edges[k], attr) for k in rows], dtype=np.float64)
        if weighting == "cov_full":
            mats[rows] = np.swapaxes(whitener_from_covariance(data), 1, 2)
        else:
            if weighting == "inlier_count":
                scale = np.sqrt(data / _mean_inliers(g))
            elif weighting == "cov_trace":
                scale = 1.0 / np.sqrt(np.trace(data, axis1=1, axis2=2))
            else:
                d = whitener_from_covariance(data)
                inv = (d @ np.swapaxes(d, 1, 2)).reshape(-1, 9)
                scale = np.sqrt(np.sqrt(np.vecdot(inv, inv)) / 3.0)  # rounds as np.linalg.norm
            mats[rows] *= scale[:, None, None]
    if fallbacks:
        logger.warning("%d of %d edges have a missing %s; using unit weight for them",
                       fallbacks, len(g.edges), what)
    return mats, fallbacks


def _edge_arrays(g: ViewGraph, rotations: dict[int, Rotation]):
    """(N, 4) quaternions in ``g.node_ids`` order, (E, 2) node rows, (E, 4) measurements."""
    index = {nid: row for row, nid in enumerate(g.node_ids)}
    quats = np.array([rotations[nid].quaternion for nid in g.node_ids]).reshape(-1, 4)
    edges_idx = np.array([[index[e.i], index[e.j]] for e in g.edges], dtype=np.int64)
    meas = np.array([e.rotation.quaternion for e in g.edges])
    return quats, edges_idx.reshape(-1, 2), meas.reshape(-1, 4)


def _robust_cost(g: ViewGraph, rw, loss: LossSpec):
    """sum_e rho(||rw_e||^2) and the IRLS weights, from one loss evaluation."""
    ev = evaluate_loss(loss, np.vecdot(rw, rw))
    bad = np.flatnonzero(~np.isfinite(ev.value))
    if bad.size:
        e = g.edges[bad[0]]
        raise NumericalError(f"non-finite cost contribution on edge ({e.i}, {e.j})")
    return float(np.sum(ev.value)), ev.weight


def cost(g: ViewGraph, rotations: dict[int, Rotation], config: SolverConfig) -> float:
    """Robust objective sum_e rho(||W_e r_e||^2), summed in edge-key order."""
    transforms, _ = _transform_stack(g, config)
    res, _ = kernels.edge_terms(*_edge_arrays(g, rotations))
    return _robust_cost(g, np.einsum("eab,eb->ea", transforms, res), config.loss)[0]


def _apply_step(quats, delta):
    """Right-multiplicative update R_i <- R_i exp(delta_i), batched over nodes.

    Each updated row equals ``Rotation(q).compose(exp_so3(d)).quaternion``
    bit for bit; rows with a zero step are copied unchanged.
    """
    out = quats.copy()
    rows = np.flatnonzero(np.any(delta != 0.0, axis=1))
    out[rows] = canonical_quats(quat_mul(canonical_quats(quats[rows]), quat_exp(delta[rows])))
    return out


def _weighted_ls_cost(rw, lw):
    return float(np.sum(lw * np.sum(rw * rw, axis=1)))


class _Pattern(NamedTuple):
    """Fixed scatter slots of the gauge-reduced normal equations.

    Node row ``r`` has free index ``r - 1``; row 0 is the gauge.  With
    ``m = 3 * n_free``, a slot equal to ``m * m`` (``h_slot``) or ``m``
    (``g_slot``) drops an entry that belongs to the gauge node.
    """

    h_slot: np.ndarray  # (36 E,) column-major position in the m x m matrix of each block entry
    g_slot: np.ndarray  # (6 E,) gradient position of each per-edge entry
    m: int              # 3 * n_free unknowns


def _normal_pattern(edges_idx, n) -> _Pattern:
    """Slots for the blocks of :func:`_edge_blocks`, built once per solve.

    Per edge the 36 entries are, row-major over (u, v): B^T B into the
    i-diagonal block (3a+u, 3a+v), B^T B into the j-diagonal block
    (3c+u, 3c+v), and -B^T B into (3a+u, 3c+v) and its mirror (3c+v, 3a+u),
    with a, c the free indices of the edge's i- and j-node.
    """
    m = 3 * (n - 1)
    a = edges_idx[:, 0, None] - 1
    c = edges_idx[:, 1, None] - 1
    u, v = np.divmod(np.arange(9), 3)
    rows = np.stack([3 * a + u, 3 * c + u, 3 * a + u, 3 * c + v], axis=1)
    cols = np.stack([3 * a + v, 3 * c + v, 3 * c + v, 3 * a + u], axis=1)
    both = (a >= 0) & (c >= 0)
    keep = np.stack([a >= 0, c >= 0, both, both], axis=1)
    h_slot = np.where(keep, cols * m + rows, m * m)
    k = np.arange(3)
    g_slot = np.concatenate([np.where(a >= 0, 3 * a + k, m), np.where(c >= 0, 3 * c + k, m)],
                            axis=1)
    return _Pattern(h_slot=h_slot.ravel(), g_slot=g_slot.ravel(), m=m)


def _edge_blocks(b, rw, lw, pattern: _Pattern):
    """Dense sum_e w_e J_e^T J_e (m x m, F-contiguous) and the gradient sum_e w_e J_e^T r_e.

    ``b`` holds B_e = W_e A_e; the edge Jacobians are J_i = -B_e, J_j = +B_e.
    """
    bt = np.swapaxes(b, 1, 2)
    btb = (lw[:, None, None] * np.matmul(bt, b)).reshape(-1, 9)
    btr = lw[:, None] * np.matmul(bt, rw[:, :, None])[:, :, 0]
    m = pattern.m
    h = np.bincount(pattern.h_slot, np.concatenate([btb, btb, -btb, -btb], axis=1).ravel(),
                    minlength=m * m + 1)[:m * m].reshape(m, m).T
    grad = np.bincount(pattern.g_slot, np.concatenate([-btr, btr], axis=1).ravel(),
                       minlength=m + 1)[:m]
    return h, grad


def _solve_normal_equations(h, grad, lam):
    """Solve (H + lam I) delta = -grad over the gauge-reduced system.

    lam goes on the diagonal of an F-ordered copy of the dense H, so H itself
    is never rebuilt for a retry, and LAPACK factors that copy in place.
    Returns a non-finite step when H + lam I is not numerically positive
    definite.
    """
    h = h.copy(order="F")
    h[np.diag_indices_from(h)] += lam
    try:
        factor = scipy.linalg.cho_factor(h, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return np.full(len(grad), np.nan)
    return scipy.linalg.cho_solve(factor, -grad, check_finite=False)


def solve(g: ViewGraph, init: dict[int, Rotation], config: SolverConfig) -> AveragingResult:
    """Run IRLS + damped Gauss-Newton rotation averaging."""
    check_connected(g)
    node_ids = g.node_ids
    missing = [nid for nid in node_ids if nid not in init]
    if missing:
        raise ValueError(f"initialization missing nodes {missing}")
    if not g.edges:
        # a connected graph without edges is one node: nothing to average
        return AveragingResult(
            rotations={nid: init[nid] for nid in node_ids},
            final_cost=0.0,
            outer_iterations=0,
            converged=True,
            edge_weights={},
            edge_residual_norms={},
            termination="no_edges",
        )
    n = len(node_ids)
    quats, edges_idx, meas = _edge_arrays(g, init)
    transforms, fallbacks = _transform_stack(g, config)

    # the smallest node id (row 0) is pinned to its initial rotation
    pattern = _normal_pattern(edges_idx, n)

    def residuals(q):
        res, amat = kernels.edge_terms(q, edges_idx, meas)
        rw = np.einsum("eab,eb->ea", transforms, res)
        return res, amat, rw

    res, amat, rw = residuals(quats)
    robust_cost, lw = _robust_cost(g, rw, config.loss)

    converged = False
    termination = "max_outer_irls"
    outer_done = 0

    for outer in range(config.max_outer_irls):
        outer_done = outer + 1
        prev_quats = quats.copy()
        prev_cost = robust_cost

        # inner: damped Gauss-Newton on the frozen-weight LS problem. Each
        # re-weighted problem starts from the initial damping: a lambda grown
        # by round-off rejections at the end of the previous inner run would
        # cripple the first steps on the new weights.
        lam = DAMPING_INIT
        ls_cost = _weighted_ls_cost(rw, lw)
        for _ in range(config.max_inner_gn):
            h, grad = _edge_blocks(transforms @ amat, rw, lw, pattern)
            if np.max(np.abs(grad)) < config.gradient_tol:
                break

            accepted = False
            for _ in range(12):
                delta_free = _solve_normal_equations(h, grad, lam)
                if not np.all(np.isfinite(delta_free)):
                    lam *= 10.0
                    continue
                # the model decrease is at round-off and a larger lam only
                # shrinks it: end the run without a trial
                predicted = 0.5 * delta_free @ (lam * delta_free - grad)
                if predicted <= np.finfo(float).eps * ls_cost:
                    break
                delta = np.zeros((n, 3))
                delta[1:] = delta_free.reshape(-1, 3)
                trial = _apply_step(quats, delta)
                res_trial, amat_trial, rw_trial = residuals(trial)
                ls_trial = _weighted_ls_cost(rw_trial, lw)
                if ls_trial <= ls_cost:
                    quats, res, amat, rw = trial, res_trial, amat_trial, rw_trial
                    ls_cost = ls_trial
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
                lam *= 10.0
            if not accepted:
                break
            if np.linalg.norm(delta_free) < 1e-12:
                break

        new_cost, new_lw = _robust_cost(g, rw, config.loss)
        if new_cost > prev_cost + 1e-12:
            # IRLS safeguard: reject and stop at the previous iterate, which is
            # not a verified optimum, so converged stays False (robust_cost
            # and lw are still its own)
            quats = prev_quats
            res = residuals(quats)[0]
            termination = "irls_non_decrease_guard"
            break
        robust_cost, lw = new_cost, new_lw
        if abs(prev_cost - robust_cost) <= config.cost_rel_tol * max(1.0, prev_cost):
            converged = True
            termination = "cost_rel_tol"
            break

    rotations = dict(zip(node_ids, checked_rotations(quats)))
    keys = [e.key for e in g.edges]
    edge_weights = dict(zip(keys, lw.tolist()))
    # np.vecdot rounds like the 1-D x @ x inside np.linalg.norm
    edge_residual_norms = dict(zip(keys, np.sqrt(np.vecdot(res, res)).tolist()))
    return AveragingResult(
        rotations=rotations,
        final_cost=robust_cost,
        outer_iterations=outer_done,
        converged=converged,
        edge_weights=edge_weights,
        edge_residual_norms=edge_residual_norms,
        termination=termination,
        unit_fallback_edges=fallbacks,
    )


def save_result(result: AveragingResult, path) -> None:
    """Write the result JSON (rotations, cost, diagnostics)."""
    write_json({
        "rotations": [
            {"id": nid, "qwxyz": result.rotations[nid].quaternion.tolist()}
            for nid in sorted(result.rotations)
        ],
        "final_cost": result.final_cost,
        "iterations": result.outer_iterations,
        "converged": result.converged,
        "termination": result.termination,
        "edge_weights": [
            {
                "i": i,
                "j": j,
                "weight": result.edge_weights[(i, j)],
                "residual_norm": result.edge_residual_norms[(i, j)],
            }
            for (i, j) in sorted(result.edge_weights)
        ],
    }, path)


def load_result_rotations(path) -> dict[int, Rotation]:
    """Read back the rotations of a result JSON."""
    doc = read_json_object(path, ("rotations",))
    records = json_records(doc, "rotations", ("id", "qwxyz"), path, integers=("id",))
    q, rules = _quaternion_rules([rec["qwxyz"] for rec in records], "qwxyz", "node {id}")
    _check_records(rules, records, "qwxyz")
    return {rec["id"]: r for rec, r in zip(records, checked_rotations(q))}
