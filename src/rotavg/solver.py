"""IRLS-wrapped damped Gauss-Newton rotation averaging.

Minimizes  sum_e rho(||W_e L_e(R_i, R_j, R_ij)||^2)  over all absolute
rotations, where ``W_e`` is the per-edge weighting transform (identity,
scalar, or the covariance whitener ``D_e^T``) and ``rho`` a robust loss.

Each outer iteration freezes IRLS weights from the current residuals: one
array-valued :func:`~rotavg.losses.evaluate_loss` call per re-weighting (and
one at the initialization) gives the robust cost and the weights of every
edge, and ``final_cost`` is the last such robust cost, that of the returned
rotations.  It then takes one Levenberg-damped Gauss-Newton step on the
resulting weighted least-squares problem over right tangent-space updates
``R_i <- R_i exp(delta_i)`` of every node, and re-weights, as robust
Levenberg-Marquardt recomputes the robust weights at every step (Triggs et
al., "Bundle Adjustment -- A Modern Synthesis", 2000).  Solving the
frozen-weight problem further would only refine a problem the next
re-weighting replaces.  Every step starts its Levenberg
damping afresh from ``DAMPING_INIT`` and grows it tenfold per rejected
trial, up to 12 trials; no damping carries over between outer iterations.
A trial is accepted only when it does not increase the frozen weighted
least-squares cost, which (rho being concave in the squared residual)
guarantees the robust cost never increases across outer iterations.
Every classic loss is; ``magsac`` is for ``nu <= 3``, and
:class:`SolverConfig` takes it at ``nu = 3`` only, so only round-off can
trip the outer loop's non-decrease guard.  The solve ends when a
re-weighting changes the robust cost by at most ``cost_rel_tol`` relative,
for every loss alike: the ``trivial`` loss, whose weights never change,
stops there too rather than at the least-squares optimum to round-off.

No node is pinned (free gauge; Triggs et al., section 9).  A common update
of all nodes leaves the cost unchanged, so it lies in the null space of the
3n x 3n normal matrix H and the gradient g is orthogonal to it.  lambda >=
``DAMPING_INIT`` makes H + lambda I positive definite, so no step adds a
common rotation (sum_i delta_i = 0 up to round-off): from one initialization,
node labels and edge directions change the result only by round-off.
``gradient_tol`` bounds the gradient's infinity-norm over all 3n entries.

All traversal and summation is in sorted edge-key order, so identical
inputs produce bit-identical results.

The step is array code over slots and one m x m buffer (m = 3n) built
once per solve (:func:`_normal_pattern`): every per-edge 3x3 block entry
and gradient entry has a fixed position, and each step computes the blocks
of all edges at once.  The diagonal blocks are summed with
``np.bincount``, which sums in input order, so each diagonal entry sums
its edges in edge order, the i-row before the j-row.  Each off-diagonal
block belongs to exactly one edge (``ViewGraph`` rejects duplicate pairs),
so its entries are kept as they are, one value per entry.  The buffer is
F-contiguous, the order LAPACK reads.  Each trial zeroes it, writes the
diagonal blocks and, of each off-diagonal block and its mirror, the
entries below the diagonal, which is all that the lower ``potrf`` reads;
then it adds lambda to the diagonal and factors there in place.  A damping
retry writes the kept block values again instead of rebuilding them, and
no trial allocates or transposes a matrix.  The batched arithmetic is
chosen to round exactly like the per-edge and per-node formulas it
replaced: block products use batched ``np.matmul`` (not ``einsum``),
squared norms use ``np.vecdot`` (the same dot kernel as a 1-D ``x @ x``),
and the retraction is the :mod:`rotavg.so3` exponential and Hamilton
product that :class:`~rotavg.so3.Rotation` wraps.

Every damped system ``(H + lambda I) d = -g`` is solved by one dense
Cholesky factorization, LAPACK ``potrf``/``potrs`` called directly (the
routines ``scipy.linalg.cho_factor``/``cho_solve`` wrap), so memory is
O(nodes^2): 11 MB for the buffer at 400 cameras.  On view
graphs of a few hundred cameras this is several times faster than sparse
LU, because these graphs fill in badly under every LU ordering.  A system
that is not numerically positive definite yields a non-finite step, which
the step treats like a rejected trial (grow lambda, retry).

A trial that is accepted keeps its residuals and Jacobian blocks, which
give the next re-weighting and assemble the next normal equations, so each
trial costs one :func:`~rotavg.kernels.edge_terms` evaluation and each
outer iteration one assembly.

Before a trial, the step compares the decrease predicted by the
damped Gauss-Newton model of ``1/2 sum_e w_e ||r_e||^2``,
``1/2 d^T (lambda d - g)`` (Madsen, Nielsen & Tingleff, 2004), with the
weighted least-squares cost.  When the prediction is at most machine
epsilon times the cost, no step can show a decrease above round-off, so
the step ends there without moving, without evaluating the trial and
without growing lambda.  The tolerance is machine epsilon, not a setting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from . import kernels
from .errors import ConfigurationError, NumericalError, SchemaError
from .losses import LossSpec, evaluate_loss
from .so3 import Rotation, canonical_quats, checked_rotations, quat_exp, quat_mul
from .twoview import whitener_from_covariance
from .viewgraph import (EDGE_DATA, ViewGraph, _check_records, _quaternion_rules,
                        check_connected, json_records, read_json_object, refuse_non_finite,
                        write_json)

logger = logging.getLogger(__name__)

# weighting mode -> (the edge datum it reads, or None; its default loss scale).  Raw
# residuals are radians, whitened ones (cov_*) unitless with sigma ~ 1 for inliers;
# inlier-count scaling stretches raw residuals, so its scale is looser.
WEIGHTINGS = {
    "none": (None, 0.02),
    "inlier_count": ("inlier_count", 0.06),
    "cov_trace": ("covariance", 3.0),
    "cov_fro": ("covariance", 3.0),
    "cov_full": ("covariance", 3.0),
}
WEIGHTING_MODES = tuple(WEIGHTINGS)

DAMPING_INIT = 1e-4  # Levenberg lambda at the start of every outer iteration


@dataclass(frozen=True)
class SolverConfig:
    loss: LossSpec = field(default_factory=lambda: LossSpec("trivial"))
    weighting: str = "none"
    max_outer_irls: int = 32
    gradient_tol: float = 1e-10
    cost_rel_tol: float = 1e-9

    def __post_init__(self):
        default_loss_scale(self.weighting)  # rejects an unknown mode
        if self.loss.kind == "magsac" and self.loss.nu != 3:
            raise ConfigurationError(
                f"the solver takes the magsac loss at nu = 3 only, not {self.loss.nu}: for "
                "nu > 3 rho is not concave in the squared residual, so IRLS can raise the "
                "cost, and for nu = 2 the weight is unbounded at a zero residual"
            )
        if self.max_outer_irls < 1:
            raise ConfigurationError("max_outer_irls must be >= 1")
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


def default_loss_scale(weighting: str) -> float:
    """The loss scale of ``weighting``'s residuals when none is given."""
    if weighting not in WEIGHTINGS:
        raise ConfigurationError(
            f"unknown weighting mode {weighting!r}; choose from {WEIGHTING_MODES}")
    return WEIGHTINGS[weighting][1]


def _transform_stack(g: ViewGraph, config: SolverConfig):
    """(E, 3, 3) weighting transforms W_e plus the unit-fallback count.

    Each mode reads the edge datum :data:`WEIGHTINGS` names, from its
    column of ``g``.  ``cov_full`` uses D_e^T,
    ``cov_trace`` and ``cov_fro`` scale the identity by tr(C_e)^{-1/2} and
    (||C_e^{-1}||_F / 3)^{1/2}, ``inlier_count`` by (n_e / mean n)^{1/2},
    the mean over the edges that have a count.  Edges without the datum get
    the identity, reported in one warning.
    """
    datum = WEIGHTINGS[config.weighting][0]
    mats = np.tile(np.eye(3), (len(g.ends), 1, 1))
    if datum is None:
        return mats, 0
    has, column = g.edge_datum(datum)
    data = column[has].astype(np.float64)
    if len(data):
        if config.weighting == "cov_full":
            mats[has] = np.swapaxes(whitener_from_covariance(data), 1, 2)
        else:
            if config.weighting == "inlier_count":
                scale = np.sqrt(data / np.mean(data))
            elif config.weighting == "cov_trace":
                scale = 1.0 / np.sqrt(np.trace(data, axis1=1, axis2=2))
            else:
                d = whitener_from_covariance(data)
                inv = (d @ np.swapaxes(d, 1, 2)).reshape(-1, 9)
                scale = np.sqrt(np.sqrt(np.vecdot(inv, inv)) / 3.0)  # rounds as np.linalg.norm
            mats[has] *= scale[:, None, None]
    fallbacks = len(g.ends) - len(data)
    if fallbacks:
        logger.warning("%d of %d edges have a missing %s; using unit weight for them",
                       fallbacks, len(g.ends), EDGE_DATA[datum])
    return mats, fallbacks


def _node_quats(g: ViewGraph, rotations: dict[int, Rotation]):
    """(N, 4) quaternions of ``rotations`` in node-row order."""
    return np.array([rotations[nid].quaternion for nid in g.node_ids]).reshape(-1, 4)


def _robust_cost(g: ViewGraph, sq, loss: LossSpec):
    """sum_e rho(sq_e) and the IRLS weights, from one loss evaluation.

    ``sq`` holds the squared weighted residual norms ||rw_e||^2.
    """
    ev = evaluate_loss(loss, sq)
    bad = np.flatnonzero(~np.isfinite(ev.value))
    if bad.size:
        i, j = g.edge_ids[bad[0]].tolist()
        raise NumericalError(f"non-finite cost contribution on edge ({i}, {j})")
    return float(np.sum(ev.value)), ev.weight


def cost(g: ViewGraph, rotations: dict[int, Rotation], config: SolverConfig) -> float:
    """Robust objective sum_e rho(||W_e r_e||^2), summed in edge-key order."""
    transforms, _ = _transform_stack(g, config)
    res, _ = kernels.edge_terms(_node_quats(g, rotations), g.ends, g.quats)
    rw = np.einsum("eab,eb->ea", transforms, res)
    return _robust_cost(g, np.vecdot(rw, rw), config.loss)[0]


def _apply_step(quats, delta):
    """Right-multiplicative update R_i <- R_i exp(delta_i), batched over nodes.

    Each row equals ``Rotation(q).compose(exp_so3(d)).quaternion`` bit for bit.
    """
    return canonical_quats(quat_mul(canonical_quats(quats), quat_exp(delta)))


class _Pattern(NamedTuple):
    """Fixed slots and storage of the normal equations over all ``m = 3 n`` unknowns.

    Positions in ``work`` are column-major flat indices, as ``work`` is F-ordered.
    """

    diag_slot: np.ndarray  # (18 E,) bin of each diagonal-block entry, 9 bins per node
    diag_pos: np.ndarray   # (9 n,) position in work of each bin
    off_pos: np.ndarray    # (9 E,) position in work of each off-diagonal entry, or of its mirror
    #                        when the entry lies above the diagonal
    g_slot: np.ndarray     # (6 E,) gradient position of each per-edge entry
    work: np.ndarray       # (m, m) F-ordered H + lam I and its factor, rewritten by each trial


def _normal_pattern(edges_idx, n) -> _Pattern:
    """Slots and the buffer for the blocks of :func:`_edge_blocks`, built once per solve.

    Per edge the 18 diagonal-block entries are, row-major over (u, v): B^T B
    into the i-diagonal block (3a+u, 3a+v), then into the j-diagonal block
    (3c+u, 3c+v), with a, c the node rows of the edge's i- and j-node; its 9
    off-diagonal entries -B^T B belong at (3a+u, 3c+v) and their mirror
    (3c+v, 3a+u), of which only the one below the diagonal is written.
    """
    m = 3 * n
    a = edges_idx[:, 0, None]
    c = edges_idx[:, 1, None]
    u, v = np.divmod(np.arange(9), 3)
    diag_slot = np.concatenate([9 * a + 3 * u + v, 9 * c + 3 * u + v], axis=1)
    node = 3 * np.arange(n)[:, None]
    diag_pos = (node + v) * m + node + u
    off_pos = np.where(a > c, (3 * c + v) * m + 3 * a + u, (3 * a + u) * m + 3 * c + v)
    k = np.arange(3)
    g_slot = np.concatenate([3 * a + k, 3 * c + k], axis=1)
    return _Pattern(diag_slot=diag_slot.ravel(), diag_pos=diag_pos.ravel(),
                    off_pos=off_pos.ravel(), g_slot=g_slot.ravel(),
                    work=np.empty((m, m), order="F"))


def _edge_blocks(b, rw, lw, pattern: _Pattern):
    """Block values of sum_e w_e J_e^T J_e and the gradient sum_e w_e J_e^T r_e.

    ``b`` holds B_e = W_e A_e; the edge Jacobians are J_i = -B_e, J_j = +B_e.
    Returns ``((diag, off), grad)``: the (9 n,) summed diagonal-block bins of
    ``pattern.diag_pos`` and the (9 E,) off-diagonal entries of
    ``pattern.off_pos``, which :func:`_solve_normal_equations` places.  Each
    diagonal entry sums its edges in edge order, the i-row before the j-row;
    each off-diagonal block belongs to exactly one edge (``ViewGraph``
    rejects duplicate pairs).
    """
    bt = np.swapaxes(b, 1, 2)
    # a contiguous B^T makes numpy call gemm, not its slower per-matrix syrk route;
    # both round B^T B alike
    btb = (lw[:, None, None] * np.matmul(np.ascontiguousarray(bt), b)).reshape(-1, 9)
    btr = lw[:, None] * np.matmul(bt, rw[:, :, None])[:, :, 0]
    diag = np.bincount(pattern.diag_slot, np.concatenate([btb, btb], axis=1).ravel(),
                       minlength=len(pattern.diag_pos))
    grad = np.bincount(pattern.g_slot, np.concatenate([-btr, btr], axis=1).ravel(),
                       minlength=len(pattern.work))
    return (diag, -btb.ravel()), grad


def _solve_normal_equations(pattern: _Pattern, blocks, grad, lam):
    """Solve (H + lam I) delta = -grad over all 3n unknowns, H from ``blocks``.

    H is singular along a common update of all nodes; lam > 0 makes H + lam I
    positive definite.  The diagonal blocks and the lower triangle of the
    off-diagonal blocks are written into the zeroed ``pattern.work``, the only
    entries the lower ``potrf`` reads, and LAPACK factors H + lam I there in
    place; a retry at a larger lam writes ``blocks`` again.  Returns a
    non-finite step when H + lam I is not numerically positive definite.
    """
    work = pattern.work
    work.fill(0.0)
    flat = work.ravel(order="F")  # a view: work is F-contiguous
    diag, off = blocks
    flat[pattern.diag_pos] = diag
    flat[pattern.off_pos] = off
    flat[:: len(work) + 1] += lam
    factor, info = lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        step, info = lapack.dpotrs(factor, -grad, lower=1, overwrite_b=1)
    if info > 0:  # the leading minor of order info is not positive definite
        return np.full(len(grad), np.nan)
    if info < 0:
        raise ValueError(f"LAPACK rejected argument {-info} of potrf or potrs")
    return step


def solve(g: ViewGraph, init: dict[int, Rotation], config: SolverConfig) -> AveragingResult:
    """Run IRLS + damped Gauss-Newton rotation averaging."""
    check_connected(g)
    node_ids = g.node_ids
    missing = [nid for nid in node_ids if nid not in init]
    if missing:
        raise ValueError(f"initialization missing nodes {missing}")
    if not len(g.ends):
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
    quats = _node_quats(g, init)
    transforms, fallbacks = _transform_stack(g, config)
    pattern = _normal_pattern(g.ends, len(node_ids))

    def residuals(q):
        res, amat = kernels.edge_terms(q, g.ends, g.quats)
        rw = np.einsum("eab,eb->ea", transforms, res)
        return res, amat, rw, np.vecdot(rw, rw)

    res, amat, rw, sq = residuals(quats)
    robust_cost, lw = _robust_cost(g, sq, config.loss)

    converged = False
    termination = "max_outer_irls"
    outer_done = 0

    for outer in range(config.max_outer_irls):
        outer_done = outer + 1
        prev_quats = quats
        prev_cost = robust_cost

        # one Levenberg-Marquardt step on the frozen-weight LS problem, then
        # re-weight.  Each step starts from the initial damping, so no lambda
        # grown by rejections carries over to the new weights.
        blocks, grad = _edge_blocks(transforms @ amat, rw, lw, pattern)
        if np.max(np.abs(grad)) >= config.gradient_tol:
            lam = DAMPING_INIT
            ls_cost = float(np.sum(lw * sq))
            for _ in range(12):
                delta = _solve_normal_equations(pattern, blocks, grad, lam)
                if not np.all(np.isfinite(delta)):
                    lam *= 10.0
                    continue
                # the model decrease is at round-off and a larger lam only
                # shrinks it: end the step without a trial
                predicted = 0.5 * delta @ (lam * delta - grad)
                if predicted <= np.finfo(float).eps * ls_cost:
                    break
                trial = _apply_step(quats, delta.reshape(-1, 3))
                res_trial, amat_trial, rw_trial, sq_trial = residuals(trial)
                if float(np.sum(lw * sq_trial)) <= ls_cost:
                    quats, res, amat, rw, sq = trial, res_trial, amat_trial, rw_trial, sq_trial
                    break
                lam *= 10.0

        new_cost, new_lw = _robust_cost(g, sq, config.loss)
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
    keys = list(map(tuple, g.edge_ids.tolist()))
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
    ids = sorted(result.rotations)
    keys = sorted(result.edge_weights)
    quats = np.array([result.rotations[nid].quaternion for nid in ids]).reshape(-1, 4)
    weights = np.array([result.edge_weights[k] for k in keys], dtype=np.float64)
    norms = np.array([result.edge_residual_norms[k] for k in keys], dtype=np.float64)
    refuse_non_finite(path, {"qwxyz": quats}, lambda k: f"node {ids[k]}")
    refuse_non_finite(path, {"final_cost": [result.final_cost]}, lambda k: "the result")
    refuse_non_finite(path, {"weight": weights, "residual_norm": norms},
                      lambda k: "edge ({}, {})".format(*keys[k]))
    write_json({
        "rotations": [{"id": nid, "qwxyz": q} for nid, q in zip(ids, quats.tolist())],
        "final_cost": float(result.final_cost),
        "iterations": result.outer_iterations,
        "converged": result.converged,
        "termination": result.termination,
        "edge_weights": [{"i": i, "j": j, "weight": w, "residual_norm": r}
                         for (i, j), w, r in zip(keys, weights.tolist(), norms.tolist())],
    }, path)


def load_result_rotations(path) -> dict[int, Rotation]:
    """Read back the rotations of a result JSON."""
    doc = read_json_object(path, ("rotations",))
    records = json_records(doc, "rotations", ("id", "qwxyz"), path, integers=("id",))
    q, rules = _quaternion_rules([rec["qwxyz"] for rec in records], "qwxyz", "node {id}")
    _check_records(rules, records, "qwxyz")
    rotations = {rec["id"]: r for rec, r in zip(records, checked_rotations(q))}
    if len(rotations) != len(records):
        raise SchemaError("duplicate node ids")
    return rotations
