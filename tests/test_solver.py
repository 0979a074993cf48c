"""Averaging solver: recovery, monotone IRLS, gauge, determinism."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rotavg.solver as solver_mod
from rotavg import kernels
from rotavg.errors import ConfigurationError, NumericalError, SchemaError
from rotavg.evaluate import align_rotations
from rotavg.losses import LossSpec, evaluate_loss
from rotavg.so3 import Rotation, exp_so3, geodesic_angle, relative_residual
from rotavg.solver import (
    AveragingResult,
    SolverConfig,
    WEIGHTING_MODES,
    cost,
    solve,
)
from rotavg.synth import SynthConfig, generate_graph
from rotavg.twoview import whitener_from_covariance
from rotavg.viewgraph import (EdgeMeasurement, ViewGraph, ViewNode, load_result_rotations,
                              save_result, spanning_tree_init)

from conftest import random_rotation

MAGSAC_RAW = LossSpec("magsac", scale=0.06)


def _noisy_scene(seed, n=12, density=0.5, outliers=0.05):
    return generate_graph(SynthConfig(
        n_cameras=n,
        edge_density=density,
        noise_sigmas_deg=((0.7, 1.0), (0.3, 6.0)),
        outlier_fraction=outliers,
        seed=seed,
    ))


def _max_error_deg(rotations, graph):
    gt = {nid: node.gt_rotation for nid, node in graph.nodes.items()}
    alignment = align_rotations(rotations, gt)
    return max(alignment.per_view_errors.values())


# ---------------------------------------------------------------------------
# configuration and weighted residuals
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(weighting="nope")
    with pytest.raises(ConfigurationError):
        SolverConfig(max_outer_irls=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(gradient_tol=0.0)


@pytest.mark.parametrize("nu", [2, 4])
def test_config_takes_magsac_at_nu_3_only(nu):
    with pytest.raises(ConfigurationError, match=f"nu = 3 only, not {nu}"):
        SolverConfig(loss=LossSpec("magsac", scale=0.06, nu=nu))
    assert SolverConfig(loss=LossSpec("magsac", scale=0.06, nu=3)).loss.nu == 3


def _weighted_residual(edges, rotations, weighting):
    """W_e r_e of the first edge, with W_e from the solver's transform stack.

    The transforms see the whole small graph, so its other edges set the mean
    inlier count of ``inlier_count`` weighting.
    """
    g = ViewGraph([ViewNode(nid) for nid in sorted(rotations)], edges)
    transforms, _ = solver_mod._transform_stack(g, SolverConfig(weighting=weighting))
    e = g.edges[0]
    return transforms[0] @ relative_residual(rotations[e.i], rotations[e.j], e.rotation)


def test_edge_weighted_residual_examples():
    ri = exp_so3(np.array([-0.2, 0.0, 0.0]))
    rj = Rotation.identity()
    e_unit = EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.eye(3))
    r = _weighted_residual([e_unit], {0: ri, 1: rj}, "cov_full")
    assert np.allclose(r, [0.2, 0.0, 0.0], atol=1e-12)
    e = EdgeMeasurement(0, 1, Rotation.identity(), covariance=np.diag([4.0, 1.0, 1.0]))
    r = _weighted_residual([e], {0: ri, 1: rj}, "cov_full")
    assert np.allclose(r, [0.1, 0.0, 0.0], atol=1e-12)
    # zero residual stays zero under every mode (mean inlier count 10)
    e_full = EdgeMeasurement(0, 1, Rotation.identity(),
                             covariance=np.diag([4.0, 1.0, 1.0]), inlier_count=10)
    for mode in WEIGHTING_MODES:
        r = _weighted_residual([e_full], {0: rj, 1: rj}, mode)
        assert np.linalg.norm(r) == 0.0
    # scalar modes rescale the raw residual isotropically
    raw = _weighted_residual([e_full], {0: ri, 1: rj}, "none")
    tr = _weighted_residual([e_full], {0: ri, 1: rj}, "cov_trace")
    assert np.allclose(tr, raw / math.sqrt(6.0), atol=1e-12)
    # a second edge with 70 inliers makes the mean inlier count 40
    e_more = EdgeMeasurement(1, 2, Rotation.identity(), inlier_count=70)
    inl = _weighted_residual([e_full, e_more], {0: ri, 1: rj, 2: rj}, "inlier_count")
    assert np.allclose(inl, raw * 0.5, atol=1e-12)


def test_cost_matches_independent_oracle():
    scene = _noisy_scene(0)
    g = scene.graph
    rotations = {nid: random_rotation(np.random.default_rng(nid + 7))
                 for nid in g.node_ids}
    config = SolverConfig(loss=LossSpec("cauchy", scale=0.1), weighting="cov_full")
    expected = 0.0
    for e in sorted(g.edges, key=lambda e: e.key):
        res = relative_residual(rotations[e.i], rotations[e.j], e.rotation)
        wres = whitener_from_covariance(e.covariance).T @ res
        expected += evaluate_loss(config.loss, float(wres @ wres)).value
    assert abs(cost(g, rotations, config) - expected) < 1e-12 * max(1.0, expected)


def test_single_edge_trivial_cost_is_squared_angle():
    g = ViewGraph([ViewNode(0), ViewNode(1)],
                  [EdgeMeasurement(0, 1, exp_so3(np.array([0.3, 0.0, 0.0])))])
    rotations = {0: Rotation.identity(), 1: Rotation.identity()}
    c = cost(g, rotations, SolverConfig(loss=LossSpec("trivial")))
    assert abs(c - 0.09) < 1e-15


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_two_node_graph_solved_exactly():
    rng = np.random.default_rng(2)
    rij = random_rotation(rng)
    g = ViewGraph([ViewNode(0), ViewNode(1)], [EdgeMeasurement(0, 1, rij)])
    init = {0: Rotation.identity(), 1: random_rotation(rng)}
    result = solve(g, init, SolverConfig(loss=LossSpec("trivial")))
    pred = result.rotations[0].compose(result.rotations[1].inverse())
    assert pred.allclose(rij, atol=1e-9)


def test_exact_recovery_zero_noise():
    scene = generate_graph(SynthConfig(10, 0.6, ((1.0, 0.0),), seed=4))
    init = spanning_tree_init(scene.graph, "auto")
    for loss, weighting in (
        (LossSpec("trivial"), "none"),
        (LossSpec("magsac", scale=3.0), "cov_full"),
        (LossSpec("soft_l1", scale=0.02), "inlier_count"),
    ):
        result = solve(scene.graph, init, SolverConfig(loss=loss, weighting=weighting))
        assert _max_error_deg(result.rotations, scene.graph) < 1e-6


def test_final_cost_consistency():
    scene = _noisy_scene(3)
    config = SolverConfig(loss=MAGSAC_RAW, weighting="inlier_count")
    init = spanning_tree_init(scene.graph, "auto")
    result = solve(scene.graph, init, config)
    assert abs(result.final_cost - cost(scene.graph, result.rotations, config)) < 1e-12
    assert set(result.rotations) == set(scene.graph.node_ids)
    assert set(result.edge_weights) == {e.key for e in scene.graph.edges}
    assert result.termination in ("cost_rel_tol", "max_outer_irls", "irls_non_decrease_guard")


def test_one_loss_call_per_reweighting(monkeypatch):
    """solve evaluates the loss once at the init and once per outer iteration."""
    scene = _noisy_scene(3)
    config = SolverConfig(loss=MAGSAC_RAW, weighting="inlier_count")
    init = spanning_tree_init(scene.graph, "auto")
    calls = []
    real_loss = solver_mod.evaluate_loss

    def loss_spy(spec, s):
        calls.append(np.shape(s))
        return real_loss(spec, s)

    monkeypatch.setattr(solver_mod, "evaluate_loss", loss_spy)
    result = solve(scene.graph, init, config)
    assert result.termination == "cost_rel_tol"
    assert len(calls) == result.outer_iterations + 1
    assert calls == [(len(scene.graph.edges),)] * len(calls)


def test_cost_without_edges_is_zero():
    g = ViewGraph([ViewNode(0)], [])
    assert cost(g, {0: Rotation.identity()}, SolverConfig(loss=MAGSAC_RAW)) == 0.0
    quats = solver_mod._node_quats(g, {0: Rotation.identity()})
    assert (quats.shape, g.ends.shape, g.quats.shape) == ((1, 4), (0, 2), (0, 4))


def test_solve_reduces_cost_from_init():
    scene = _noisy_scene(5)
    config = SolverConfig(loss=LossSpec("cauchy", scale=0.05))
    init = spanning_tree_init(scene.graph, "auto")
    result = solve(scene.graph, init, config)
    assert result.final_cost <= cost(scene.graph, init, config) + 1e-12


def test_irls_outer_iterations_monotone():
    """Cost after k outer iterations is non-increasing in k (shared prefix)."""
    for seed in range(8):
        scene = _noisy_scene(seed, n=10)
        init = spanning_tree_init(scene.graph, "auto")
        costs = []
        for k in range(1, 7):
            config = SolverConfig(loss=MAGSAC_RAW, weighting="inlier_count",
                                  max_outer_irls=k)
            costs.append(solve(scene.graph, init, config).final_cost)
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-12


def test_gauge_invariance_right_multiplication():
    scene = _noisy_scene(6)
    g = scene.graph
    config = SolverConfig(loss=LossSpec("cauchy", scale=0.05))
    init = spanning_tree_init(g, "auto")
    base = solve(g, init, config)
    q = random_rotation(np.random.default_rng(99))
    gauged_init = {nid: r.compose(q) for nid, r in init.items()}
    gauged = solve(g, gauged_init, config)
    assert abs(base.final_cost - gauged.final_cost) < 1e-9
    for nid in g.node_ids:
        assert gauged.rotations[nid].allclose(base.rotations[nid].compose(q), atol=1e-6)


def _relabelled(g, label, flips):
    """``g`` with node ``nid`` renamed ``label[nid]`` and each flipped edge
    reversed to ``(j, i, R_ij^T)`` with covariance ``R_ij^T C R_ij``."""
    edges = []
    for e, flip in zip(g.edges, flips):
        i, j, r, cov = label[e.i], label[e.j], e.rotation, e.covariance
        if flip:
            rm = r.matrix
            i, j, r, cov = j, i, r.inverse(), rm.T @ cov @ rm
            cov = 0.5 * (cov + cov.T)
        edges.append(EdgeMeasurement(i, j, r, covariance=cov, inlier_count=e.inlier_count))
    return ViewGraph([ViewNode(label[nid]) for nid in g.node_ids], edges)


@pytest.mark.parametrize("loss,weighting", [("magsac", "cov_full"), ("soft_l1", "none")])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_relabelling_and_edge_flips_leave_the_solve_unchanged(loss, weighting, seed, data):
    """Node labels and edge directions change the solve only by round-off.

    No node is pinned, so the rotations are compared as they are, with no
    gauge alignment, from the same (mapped) initialization.
    """
    g = _noisy_scene(seed, n=20).graph
    config = SolverConfig(loss=LossSpec(loss, scale=solver_mod.default_loss_scale(weighting)),
                          weighting=weighting)
    label = dict(zip(g.node_ids, data.draw(st.permutations(g.node_ids))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges)))
    init = spanning_tree_init(g, "auto")
    base = solve(g, init, config)
    moved = solve(_relabelled(g, label, flips), {label[nid]: r for nid, r in init.items()},
                  config)
    assert (moved.outer_iterations, moved.termination) == (base.outer_iterations,
                                                           base.termination)
    assert abs(moved.final_cost - base.final_cost) <= 1e-12 * base.final_cost
    for nid in g.node_ids:
        assert geodesic_angle(base.rotations[nid], moved.rotations[label[nid]]) <= 1e-9, nid


def test_result_keys_are_node_ids_not_rows():
    """Edge weights and residual norms are keyed by node ids when the ids are not 0..n-1;
    an order-preserving relabelling leaves every value bit for bit."""
    g = _noisy_scene(3).graph
    label = {nid: 7 * nid + 100 for nid in g.node_ids}
    config = SolverConfig(loss=MAGSAC_RAW, weighting="cov_full")
    init = spanning_tree_init(g, "auto")
    base = solve(g, init, config)
    moved = solve(_relabelled(g, label, [False] * len(g.edges)),
                  {label[nid]: r for nid, r in init.items()}, config)
    for got, ref in ((moved.edge_weights, base.edge_weights),
                     (moved.edge_residual_norms, base.edge_residual_norms)):
        assert list(got.items()) == [((label[i], label[j]), v) for (i, j), v in ref.items()]


def test_determinism_bitwise():
    scene = _noisy_scene(7)
    config = SolverConfig(loss=MAGSAC_RAW, weighting="cov_full")
    init = spanning_tree_init(scene.graph, "auto")
    a = solve(scene.graph, init, config)
    b = solve(scene.graph, init, config)
    for nid in scene.graph.node_ids:
        assert np.array_equal(a.rotations[nid].quaternion, b.rotations[nid].quaternion)
    assert a.final_cost == b.final_cost


def _symmetric_matrix(pattern, blocks):
    """The full symmetric H of ``blocks``, whose lower triangle the solver writes."""
    diag, off = blocks
    m = len(pattern.work)
    flat = np.zeros(m * m)  # column-major, as pattern positions are
    flat[pattern.diag_pos] = diag
    flat[pattern.off_pos] = off
    lower = np.tril(flat.reshape(m, m).T)
    return lower + np.tril(lower, -1).T


def _superlu_normal_equations(pattern, blocks, grad, lam):
    """Sparse LU (SuperLU) reference for the solver's dense Cholesky solve."""
    damped = scipy.sparse.csc_matrix(_symmetric_matrix(pattern, blocks) + lam * np.eye(len(grad)))
    return scipy.sparse.linalg.spsolve(damped, -grad)


def test_dense_and_sparse_paths_agree(monkeypatch):
    scene = _noisy_scene(8, n=14)
    init = spanning_tree_init(scene.graph, "auto")
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02))
    dense = solve(scene.graph, init, config)
    monkeypatch.setattr(solver_mod, "_solve_normal_equations", _superlu_normal_equations)
    sparse = solve(scene.graph, init, config)
    # different linear solvers round differently; solutions agree to ~1e-6
    assert abs(sparse.final_cost - dense.final_cost) < 1e-9 * max(1.0, dense.final_cost)
    for nid in scene.graph.node_ids:
        assert sparse.rotations[nid].allclose(dense.rotations[nid], atol=1e-5)


def test_damping_restarts_every_outer_iteration(monkeypatch):
    """Each re-weighted problem starts its Levenberg loop at DAMPING_INIT.

    A damping carried over from rejections in the previous step cripples the
    step on the new weights, and the rounding-dependent
    damping history then makes gauge-equivalent or dense/sparse runs stop at
    different iterates.
    """
    scene = _noisy_scene(8, n=14)
    init = spanning_tree_init(scene.graph, "auto")
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02))

    # the robust weights are recomputed (via evaluate_loss) before every outer
    # iteration; the next linear solve is that iteration's first LM trial
    reweighted = [False]
    first_trial_lams, all_lams = [], []
    real_loss, real_solve = solver_mod.evaluate_loss, solver_mod._solve_normal_equations

    def loss_spy(*args):
        reweighted[0] = True
        return real_loss(*args)

    def solve_spy(*args):
        lam = args[-1]
        if reweighted[0]:
            first_trial_lams.append(lam)
            reweighted[0] = False
        all_lams.append(lam)
        return real_solve(*args)

    monkeypatch.setattr(solver_mod, "evaluate_loss", loss_spy)
    monkeypatch.setattr(solver_mod, "_solve_normal_equations", solve_spy)
    result = solve(scene.graph, init, config)
    assert result.outer_iterations >= 2
    assert len(first_trial_lams) == result.outer_iterations
    # one step per re-weighting: lambda only grows within it, never decays
    assert min(all_lams) >= solver_mod.DAMPING_INIT
    assert first_trial_lams == [solver_mod.DAMPING_INIT] * result.outer_iterations


@pytest.mark.parametrize("loss,weighting", [("soft_l1", "none"), ("magsac", "cov_full"),
                                            ("trivial", "inlier_count")])
def test_one_assembly_per_outer_iteration(monkeypatch, loss, weighting):
    """Each re-weighting takes one LM step: one normal-equation assembly.

    Running the frozen-weight problem further would only refine a problem
    the next re-weighting replaces.
    """
    scene = _noisy_scene(8, n=14)
    config = SolverConfig(loss=LossSpec(loss, scale=solver_mod.default_loss_scale(weighting)),
                          weighting=weighting)
    assemblies = [0]
    real_blocks = solver_mod._edge_blocks

    def blocks_spy(*args):
        assemblies[0] += 1
        return real_blocks(*args)

    monkeypatch.setattr(solver_mod, "_edge_blocks", blocks_spy)
    result = solve(scene.graph, spanning_tree_init(scene.graph, "auto"), config)
    assert result.outer_iterations >= 2
    assert assemblies[0] == result.outer_iterations


def test_damping_does_not_grow_on_round_off(monkeypatch):
    """A step whose predicted decrease is at round-off ends, lambda untouched.

    Without that stop, each trial rejected for a round-off-level cost change
    grows lambda tenfold, up to 1e6 on this scene.
    """
    scene = _noisy_scene(8, n=14)
    init = spanning_tree_init(scene.graph, "auto")
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02))
    lams = []
    real_solve = solver_mod._solve_normal_equations

    def solve_spy(*args):
        lams.append(args[-1])
        return real_solve(*args)

    monkeypatch.setattr(solver_mod, "_solve_normal_equations", solve_spy)
    solve(scene.graph, init, config)
    assert lams
    assert max(lams) <= solver_mod.DAMPING_INIT


def test_non_decrease_guard_returns_previous_iterate(monkeypatch):
    """A re-weighted robust cost above the previous one stops the solve there.

    Every loss the solver takes is concave in the squared residual, so only
    round-off can raise the cost; here the second re-weighting reads higher.
    """
    scene = _noisy_scene(8, n=14)
    init = spanning_tree_init(scene.graph, "auto")
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02))
    previous = solve(scene.graph, init, dataclasses.replace(config, max_outer_irls=1))
    assert previous.termination == "max_outer_irls"
    calls = [0]
    real_cost = solver_mod._robust_cost

    def inflated(*args):
        calls[0] += 1
        value, weights = real_cost(*args)
        # call 1 is the init, call k + 1 the re-weighting after outer iteration k
        return (value + 1.0 if calls[0] == 3 else value), weights

    monkeypatch.setattr(solver_mod, "_robust_cost", inflated)
    result = solve(scene.graph, init, config)
    assert result.termination == "irls_non_decrease_guard"
    assert result.converged is False
    assert result.outer_iterations == 2
    for nid in scene.graph.node_ids:
        assert (result.rotations[nid].quaternion.tobytes()
                == previous.rotations[nid].quaternion.tobytes())
    assert result.final_cost == previous.final_cost


def test_indefinite_system_gives_non_finite_step():
    """H + lam I that is not positive definite yields a step the solver rejects."""
    edges_idx = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
    pattern = solver_mod._normal_pattern(edges_idx, 4)
    rng = np.random.default_rng(0)
    b = rng.normal(size=(4, 3, 3))
    rw = rng.normal(size=(4, 3))
    # negative robust weights make sum_e w_e J_e^T J_e negative definite
    blocks, grad = solver_mod._edge_blocks(b, rw, -np.ones(4), pattern)
    step = solver_mod._solve_normal_equations(pattern, blocks, grad, 1e-4)
    assert step.shape == grad.shape
    assert not np.all(np.isfinite(step))
    # the same system with the sign fixed is positive definite and solves
    fixed = tuple(np.negative(values) for values in blocks)
    step = solver_mod._solve_normal_equations(pattern, fixed, grad, 1e-4)
    h = _symmetric_matrix(pattern, fixed)
    assert np.allclose((h + 1e-4 * np.eye(len(grad))) @ step, -grad)


def test_apply_step_matches_rotation_compose():
    """The batched retraction rounds exactly like the per-node Rotation path."""
    rng = np.random.default_rng(12)
    n = 400
    quats = rng.normal(size=(n, 4))
    quats[:200] /= np.linalg.norm(quats[:200], axis=1)[:, None]  # unit, some with w < 0
    delta = rng.normal(size=(n, 3)) * 0.3
    delta[0:4] = 0.0
    delta[4:10] *= 1e-9 / np.linalg.norm(delta[4:10], axis=1)[:, None] * rng.random((6, 1))
    delta[10:12] *= 5.0  # angles beyond pi
    # the product has w = 0 and a negative first nonzero entry: sign flip
    quats[12], delta[12] = [0.0, 0.0, 0.0, 1.0], [-0.3, 0.0, 0.0]
    out = solver_mod._apply_step(quats, delta)
    for row in range(n):
        expected = Rotation(quats[row]).compose(exp_so3(delta[row])).quaternion
        assert np.array_equal(out[row], expected), row


def _reference_normal_equations(g, init, config, lam):
    """(H + lam I, grad) over all nodes at the init by a per-edge loop over block dicts."""
    node_ids = g.node_ids
    index = {nid: row for row, nid in enumerate(node_ids)}
    n = len(node_ids)
    quats = np.array([init[nid].quaternion for nid in node_ids])
    edges_idx = np.array([[index[e.i], index[e.j]] for e in g.edges])
    meas = np.array([e.rotation.quaternion for e in g.edges])
    transforms, _ = solver_mod._transform_stack(g, config)
    res, amat = kernels.edge_terms(quats, edges_idx, meas)
    rw = np.einsum("eab,eb->ea", transforms, res)
    grad = np.zeros(3 * n)
    blocks = {}
    for idx in range(len(g.edges)):
        be = transforms[idx] @ amat[idx]
        lw = evaluate_loss(config.loss, float(rw[idx] @ rw[idx])).weight
        btb = lw * (be.T @ be)
        btr = lw * (be.T @ rw[idx])
        i_row, j_row = edges_idx[idx]
        for a, sign in ((i_row, -1.0), (j_row, 1.0)):
            grad[3 * a:3 * a + 3] += sign * btr
            blocks[(a, a)] = blocks.get((a, a), 0.0) + btb
        key = (min(i_row, j_row), max(i_row, j_row))
        blocks[key] = blocks.get(key, 0.0) - (btb if i_row < j_row else btb.T)
    m = 3 * n
    h = np.zeros((m, m))
    for (a, c), block in blocks.items():
        h[3 * a:3 * a + 3, 3 * c:3 * c + 3] += block
        if a != c:
            h[3 * c:3 * c + 3, 3 * a:3 * a + 3] += block.T
    h[np.arange(m), np.arange(m)] += lam
    return h, grad


def test_normal_equations_match_per_edge_reference(monkeypatch):
    """The first linear solve sees exactly the system a per-edge loop builds.

    The lower ``potrf`` reads only the lower triangle of what it is handed.
    """
    scene = _noisy_scene(8, n=14)
    g = scene.graph
    init = spanning_tree_init(g, "auto")
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02), weighting="cov_full")
    calls, matrices = [], []
    real_solve = solver_mod._solve_normal_equations
    real_potrf = scipy.linalg.lapack.dpotrf

    def solve_spy(*args):
        calls.append(args)
        return real_solve(*args)

    def potrf_spy(a, *args, **kwargs):
        matrices.append(a.copy())
        return real_potrf(a, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_solve_normal_equations", solve_spy)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", potrf_spy)
    solve(g, init, config)
    *_, grad, lam = calls[0]
    ref_h, ref_grad = _reference_normal_equations(g, init, config, lam)
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(np.tril(matrices[0]), np.tril(ref_h))


def test_retry_factors_the_assembled_matrix(monkeypatch):
    """A rejected trial's retry factors H + 10 lam I, not what the last trial left:
    the lower triangle handed to ``potrf`` is the per-edge reference's.

    The first trial is replaced by a rotation far from it, so its cost rises
    and the step retries with ten times the damping.
    """
    scene = _noisy_scene(8, n=14)
    g = scene.graph
    init = spanning_tree_init(g, "auto")
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02), weighting="cov_full")
    lams, matrices = [], []
    real_solve = solver_mod._solve_normal_equations
    real_potrf = scipy.linalg.lapack.dpotrf
    real_step = solver_mod._apply_step

    def solve_spy(*args):
        lams.append(args[-1])
        return real_solve(*args)

    def potrf_spy(a, *args, **kwargs):
        matrices.append(a.copy())
        return real_potrf(a, *args, **kwargs)

    def step_spy(quats, delta):
        trial = real_step(quats, delta)
        if len(lams) == 1:
            return real_step(trial, np.random.default_rng(0).normal(scale=0.5, size=delta.shape))
        return trial

    monkeypatch.setattr(solver_mod, "_solve_normal_equations", solve_spy)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", potrf_spy)
    monkeypatch.setattr(solver_mod, "_apply_step", step_spy)
    solve(g, init, config)
    assert lams[:2] == [solver_mod.DAMPING_INIT, 10 * solver_mod.DAMPING_INIT]
    ref_h, _ = _reference_normal_equations(g, init, config, 10 * solver_mod.DAMPING_INIT)
    assert np.array_equal(np.tril(matrices[1]), np.tril(ref_h))


def _normal_equations_at_init(g, config):
    """The pattern, block values and gradient of the first step of ``solve`` on ``g``."""
    quats = solver_mod._node_quats(g, spanning_tree_init(g, "auto"))
    edges_idx = g.ends
    transforms, _ = solver_mod._transform_stack(g, config)
    res, amat = kernels.edge_terms(quats, edges_idx, g.quats)
    rw = np.einsum("eab,eb->ea", transforms, res)
    _, lw = solver_mod._robust_cost(g, np.vecdot(rw, rw), config.loss)
    pattern = solver_mod._normal_pattern(edges_idx, len(g.nodes))
    blocks, grad = solver_mod._edge_blocks(transforms @ amat, rw, lw, pattern)
    return pattern, blocks, grad


def _raised_edge(g, blocks, grad):
    """The edge (i, j) that ``_check_normal_equations`` names."""
    with pytest.raises(NumericalError,
                       match=r"^non-finite normal equations on edge \(\d+, \d+\)$") as exc:
        solver_mod._check_normal_equations(g, blocks, grad)
    return tuple(int(v) for v in re.findall(r"\d+", str(exc.value)))


def test_non_finite_normal_equations_name_an_edge():
    """The edge named is the first whose own block is not finite, else the first
    at a node whose diagonal sum or gradient is not finite."""
    g = _noisy_scene(3).graph
    _, (diag, off), grad = _normal_equations_at_init(g, SolverConfig(loss=MAGSAC_RAW))
    solver_mod._check_normal_equations(g, (diag, off), grad)  # finite: no error

    k = len(g.ends) - 1  # the last edge; its end c has an earlier edge too
    c = int(g.ends[k, 1])
    first_at_c = tuple(g.edge_ids[np.flatnonzero((g.ends == c).any(axis=1))[0]].tolist())
    assert first_at_c != tuple(g.edge_ids[k].tolist())
    bad_off, bad_diag = off.copy(), diag.copy()
    bad_off[9 * k + 4] = np.inf
    bad_diag[9 * c + 4] = np.inf
    assert _raised_edge(g, (bad_diag, bad_off), grad) == tuple(g.edge_ids[k].tolist())
    # every block finite, the sum at c overflowed
    assert _raised_edge(g, (bad_diag, off), grad) == first_at_c
    bad_grad = grad.copy()
    bad_grad[3 * c + 2] = np.nan
    assert _raised_edge(g, (diag, off), bad_grad) == first_at_c


@pytest.mark.parametrize("lam", [1e-4, 1.0])
def test_cholesky_factors_column_ordered_copy_in_place(monkeypatch, lam):
    """LAPACK gets H + lam I in column order and factors it in the work buffer.

    The step is bit-identical to factoring a C-ordered copy of the full
    symmetric per-edge reference, which f2py transposes into column order
    before calling potrf.
    """
    scene = _noisy_scene(8, n=14)
    g = scene.graph
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02), weighting="cov_full")
    pattern, blocks, grad = _normal_equations_at_init(g, config)
    blocks_before = [values.copy() for values in blocks]
    seen = []
    real_potrf = scipy.linalg.lapack.dpotrf

    def potrf_spy(a, *args, **kwargs):
        factor, info = real_potrf(a, *args, **kwargs)
        seen.append((a, factor))
        return factor, info

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", potrf_spy)
    step = solver_mod._solve_normal_equations(pattern, blocks, grad, lam)
    (a, c), = seen
    assert a.flags.f_contiguous
    assert np.shares_memory(a, c)
    assert np.shares_memory(a, pattern.work)
    for values, before in zip(blocks, blocks_before):  # what a retry writes again
        assert np.array_equal(values, before)

    ref_h, ref_grad = _reference_normal_equations(g, spanning_tree_init(g, "auto"), config, lam)
    assert np.array_equal(grad, ref_grad)
    damped = np.array(ref_h, order="C")
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(damped, lower=True, check_finite=False),
                                      -ref_grad)
    assert step.tobytes() == expected.tobytes()


def test_one_kernel_evaluation_per_trial(monkeypatch):
    """An accepted trial's residuals are kept, not evaluated again.

    ``solve`` evaluates the init and every trial once, plus the previous
    iterate when the IRLS guard rejects an outer iteration.
    """
    scene = _noisy_scene(8, n=14)
    config = SolverConfig(loss=LossSpec("soft_l1", scale=0.02))
    counts = {"edge_terms": 0, "apply_step": 0}
    real_terms, real_step = kernels.edge_terms, solver_mod._apply_step

    def terms_spy(*args):
        counts["edge_terms"] += 1
        return real_terms(*args)

    def step_spy(*args):
        counts["apply_step"] += 1
        return real_step(*args)

    monkeypatch.setattr(kernels, "edge_terms", terms_spy)
    monkeypatch.setattr(solver_mod, "_apply_step", step_spy)
    result = solve(scene.graph, spanning_tree_init(scene.graph, "auto"), config)
    assert counts["apply_step"] > 0
    guard = result.termination == "irls_non_decrease_guard"
    assert counts["edge_terms"] == counts["apply_step"] + 1 + guard


def test_edge_residual_norms_match_linalg_norm():
    scene = _noisy_scene(8, n=14)
    g = scene.graph
    result = solve(g, spanning_tree_init(g, "auto"),
                   SolverConfig(loss=MAGSAC_RAW, weighting="cov_full"))
    res, _ = kernels.edge_terms(solver_mod._node_quats(g, result.rotations), g.ends, g.quats)
    for k, e in enumerate(g.edges):
        assert result.edge_residual_norms[e.key] == float(np.linalg.norm(res[k])), e.key


def test_stationarity_matches_finite_difference_gradient():
    """At convergence the unweighted GN objective has a vanishing gradient."""
    scene = generate_graph(SynthConfig(6, 0.9, ((1.0, 1.5),), seed=9))
    g = scene.graph
    config = SolverConfig(loss=LossSpec("trivial"), weighting="none",
                          gradient_tol=1e-14, cost_rel_tol=1e-15, max_outer_irls=64)
    result = solve(g, spanning_tree_init(g, "auto"), config)

    def total_cost(rotations):
        return cost(g, rotations, config)

    h = 1e-6
    for nid in g.node_ids:
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            up = dict(result.rotations)
            up[nid] = result.rotations[nid].compose(exp_so3(d))
            dn = dict(result.rotations)
            dn[nid] = result.rotations[nid].compose(exp_so3(-d))
            grad = (total_cost(up) - total_cost(dn)) / (2.0 * h)
            assert abs(grad) < 1e-6


def test_missing_metadata_falls_back_to_unit(caplog):
    rng = np.random.default_rng(10)
    gt = [random_rotation(rng) for _ in range(3)]
    edges = [
        EdgeMeasurement(0, 1, gt[0].compose(gt[1].inverse()), covariance=1e-4 * np.eye(3)),
        EdgeMeasurement(1, 2, gt[1].compose(gt[2].inverse())),  # no covariance
        EdgeMeasurement(0, 2, gt[0].compose(gt[2].inverse()), covariance=1e-4 * np.eye(3)),
    ]
    g = ViewGraph([ViewNode(i, gt[i]) for i in range(3)], edges)
    init = spanning_tree_init(g, "unit")
    config = SolverConfig(loss=LossSpec("trivial"), weighting="cov_full")
    with caplog.at_level("WARNING", logger="rotavg.solver"):
        result = solve(g, init, config)
    assert result.unit_fallback_edges == 1
    assert any("missing covariance" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("weighting", ["inlier_count", "cov_trace", "cov_fro", "cov_full"])
def test_missing_metadata_warns_once_per_solve(caplog, weighting):
    rng = np.random.default_rng(10)
    gt = [random_rotation(rng) for _ in range(4)]
    edges = [EdgeMeasurement(i, j, gt[i].compose(gt[j].inverse()),
                             covariance=1e-4 * np.eye(3) if (i + j) % 2 else None,
                             inlier_count=40 + i + j if (i + j) % 2 else None)
             for i, j in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3))]
    g = ViewGraph([ViewNode(i, gt[i]) for i in range(4)], edges)
    config = SolverConfig(loss=LossSpec("trivial"), weighting=weighting)
    with caplog.at_level("WARNING", logger="rotavg.solver"):
        result = solve(g, spanning_tree_init(g, "unit"), config)
    assert result.unit_fallback_edges == 2
    datum = "inlier count" if weighting == "inlier_count" else "covariance"
    assert [rec.message for rec in caplog.records] == [
        f"2 of 5 edges have a missing {datum}; using unit weight for them"]


def _counted_square(counts):
    """A consistent 4-cycle with a diagonal, the edges carrying ``counts`` (None: none)."""
    rng = np.random.default_rng(12)
    gt = [random_rotation(rng) for _ in range(4)]
    edges = [EdgeMeasurement(i, j, gt[i].compose(gt[j].inverse()), inlier_count=n)
             for (i, j), n in zip(((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)), counts)]
    return ViewGraph([ViewNode(i, gt[i]) for i in range(4)], edges)


@pytest.mark.parametrize("counts", [[0] * 5, [0, None, None, None, None]])
def test_all_zero_inlier_counts_are_a_schema_error(counts):
    """Counts that are all zero give inlier_count weighting no mean to scale by: a data
    error from solve and cost alike, with no warning and no edge blamed."""
    g = _counted_square(counts)
    init = spanning_tree_init(g, "unit")
    config = SolverConfig(weighting="inlier_count")
    message = r"^every inlier count is zero: inlier_count weighting needs a positive one$"
    with pytest.raises(SchemaError, match=message):
        solve(g, init, config)
    with pytest.raises(SchemaError, match=message):
        cost(g, init, config)


def test_zero_inlier_count_beside_positive_ones_weighs_zero():
    g = _counted_square([0, 10, 20, 30, 40])
    result = solve(g, spanning_tree_init(g, "unit"), SolverConfig(weighting="inlier_count"))
    assert result.converged
    assert result.edge_weights[(0, 1)] == 1.0  # the trivial loss: every IRLS weight is 1
    assert _weighted_residual(g.edges, result.rotations, "inlier_count").tolist() == [0.0] * 3


def test_tiny_covariance_overflow_names_its_edge():
    """A covariance of 1e-320 I passes the positive-definite check, but its cov_trace
    scale overflows the squared residual norm: solve raises NumericalError naming the
    edge, and so does cost where the loss of an infinite norm is not finite, with no
    RuntimeWarning on the way."""
    g = _noisy_scene(3).graph
    covs = g.covariances.copy()
    covs[0] = 1e-320 * np.eye(3)
    tiny = ViewGraph.from_columns(g.ids, *g.edge_ids.T, g.quats, covariances=covs)
    init = spanning_tree_init(tiny, "unit")
    gt = {nid: node.gt_rotation for nid, node in g.nodes.items()}  # edge 0 has a residual
    i, j = tiny.edge_ids[0].tolist()
    message = rf"^non-finite .* on edge \({i}, {j}\)$"
    for loss in ("trivial", "cauchy", "magsac"):
        config = SolverConfig(loss=LossSpec(loss, scale=3.0), weighting="cov_trace")
        with pytest.raises(NumericalError, match=message):
            solve(tiny, init, config)
        if loss == "magsac":  # beyond the cutoff an edge costs a constant, even at inf
            assert math.isfinite(cost(tiny, gt, config))
            continue
        with pytest.raises(NumericalError, match=message):
            cost(tiny, gt, config)


def test_solve_rejects_bad_inputs():
    g = ViewGraph([ViewNode(i) for i in range(4)],
                  [EdgeMeasurement(0, 1, Rotation.identity()),
                   EdgeMeasurement(2, 3, Rotation.identity())])
    ident = {i: Rotation.identity() for i in range(4)}
    with pytest.raises(ValueError, match="disconnected"):
        solve(g, ident, SolverConfig())
    g2 = ViewGraph([ViewNode(0), ViewNode(1)], [EdgeMeasurement(0, 1, Rotation.identity())])
    with pytest.raises(ValueError, match="missing"):
        solve(g2, {0: Rotation.identity()}, SolverConfig())


def test_result_json_round_trip(tmp_path):
    scene = _noisy_scene(11)
    init = spanning_tree_init(scene.graph, "auto")
    result = solve(scene.graph, init, SolverConfig(loss=MAGSAC_RAW, weighting="cov_full"))
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_result(result, p1)
    save_result(result, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_result_rotations(p1)
    for nid in scene.graph.node_ids:
        assert back[nid] == result.rotations[nid]
