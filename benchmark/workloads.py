"""Workload inputs and operations.

A workload turns a seed into a list of operations (one *round*).  Inputs
are built before timing starts; an operation calls the program only
through its public API or ``rotavg.cli.main`` in-process, and always looks
the entry point up on its module at call time so the tracer's wrappers
apply.  Each operation can digest its output (for the bit-identity check),
check it against the independent computations in :mod:`checks`, and give
per-view errors from the benchmark's own gauge alignment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import checks
from rotavg import cli, evaluate, solver, synth, viewgraph
from rotavg.losses import LossSpec
from rotavg.so3 import Rotation
from rotavg.twoview import TwoViewGeometry

NOISE_MIX_DEG = ((0.5, 0.5), (0.5, 5.0))
OUTLIER_FRACTION = 0.10

# ablation-dense: the first two tier-1 criteria 09/10 scenes (50 cameras)
# x the paper's loss x weighting ablation; every solve stays on the dense path
DENSE_CAMERAS, DENSE_DENSITY, DENSE_SCENE_SEEDS = 50, 0.25, (0, 1)
ABLATION = [(loss, w) for loss in ("soft_l1", "magsac")
            for w in ("none", "inlier_count", "cov_full")]

# large-sparse: above DENSE_NODE_LIMIT (64), so the sparse solve runs
SPARSE_CAMERAS, SPARSE_DENSITY, SPARSE_SCENE_SEED = 120, 0.10, 0

# cli-pipeline: two-view correspondence sets for a small graph
CLI_CAMERAS, CLI_DENSITY, CLI_SCENE_SEED = 40, 0.25, 0
CLI_PIXEL_SIGMA = 1.0
CLI_MAX_ABS_DEG = 10.0          # |gt rotation|, so relative rotations stay <= 20 deg
CLI_INLIER_MATCHES = (30, 120)  # uniform range of matches per inlier pair
CLI_OUTLIER_MATCHES = 12
CLI_OUTLIER_DEG = (15.0, 30.0)  # how far an outlier pair's rotation is off
CLI_COV_SAMPLE = 8              # pairs whose covariance is re-derived per check


class OpFailed(Exception):
    """An operation ended without a usable output."""


class Presentation:
    """A random but equivalent presentation of a scene, drawn from the seed.

    The ground truth takes a random right-multiplied gauge.  With
    ``reorder``, node ids are also permuted and each edge's direction is
    flipped with probability 1/2 (``(j, i, R_ij^T)``): the solver then sees
    the same problem in another order.  Only ``ablation-dense`` reorders,
    because only there does the solve's work stay put under reordering
    (see the README).
    """

    def __init__(self, seed: int, key: int, node_ids, reorder: bool):
        self.rng = np.random.default_rng([seed, key])
        self.gauge = checks.SciRot.random(random_state=self.rng)
        self.reorder = reorder
        order = self.rng.permutation(len(node_ids)) if reorder else range(len(node_ids))
        self.ids = {nid: int(p) for nid, p in zip(sorted(node_ids), order)}

    def flip(self) -> bool:
        return self.reorder and bool(self.rng.random() < 0.5)

    def gt(self, qwxyz) -> np.ndarray:
        return (checks.rot(qwxyz) * self.gauge).as_quat(scalar_first=True)


def _synth_scene(synth_seed, cameras, density, seed, reorder):
    scene = synth.generate_graph(synth.SynthConfig(
        n_cameras=cameras, edge_density=density, noise_sigmas_deg=NOISE_MIX_DEG,
        outlier_fraction=OUTLIER_FRACTION, seed=synth_seed))
    g = scene.graph
    pres = Presentation(seed, synth_seed, g.node_ids, reorder)
    outliers = set(scene.outlier_edge_ids)
    gt = {pres.ids[nid]: pres.gt(n.gt_rotation.quaternion) for nid, n in g.nodes.items()}
    edges, new_outliers = [], []
    for e in g.edges:
        i, j, r, cov = pres.ids[e.i], pres.ids[e.j], e.rotation, e.covariance
        if pres.flip():
            rm = r.matrix
            i, j, r = j, i, r.inverse()
            if cov is not None:
                cov = rm.T @ cov @ rm
                cov = 0.5 * (cov + cov.T)
        edges.append(viewgraph.EdgeMeasurement(i, j, r, covariance=cov,
                                               inlier_count=e.inlier_count))
        if e.key in outliers:
            new_outliers.append((i, j))
    graph = viewgraph.ViewGraph([viewgraph.ViewNode(nid, Rotation(q)) for nid, q in gt.items()],
                                edges)
    inlier_sig = {k: s for k, s in scene.edge_sigmas_rad.items() if k not in outliers}
    return {
        "graph": graph,
        "edges": [(e.i, e.j, e.rotation.quaternion) for e in graph.edges],
        "gt": gt,
        "outliers": sorted(new_outliers),
        "sigma_deg": float(np.degrees(np.sqrt(np.mean(np.square(list(inlier_sig.values())))))),
        "view_sigma_deg": checks.view_sigmas_deg(inlier_sig),
    }


def _config(loss: str, weighting: str) -> solver.SolverConfig:
    return solver.SolverConfig(loss=LossSpec(loss, scale=cli.default_loss_scale(weighting)),
                               weighting=weighting)


class SolveOp:
    """One solve of a synth scene; optionally tree init and alignment inside."""

    def __init__(self, scene, loss, weighting, init_and_align):
        self.scene = scene
        self.loss = loss
        self.config = _config(loss, weighting)
        self.name = f"{loss}+{weighting}"
        self.init_and_align = init_and_align
        self.init = None if init_and_align else viewgraph.spanning_tree_init(scene["graph"], "auto")

    def run(self):
        g = self.scene["graph"]
        init = self.init or viewgraph.spanning_tree_init(g, "auto")
        result = solver.solve(g, init, self.config)
        if self.init_and_align:
            gt = {nid: n.gt_rotation for nid, n in g.nodes.items()}
            evaluate.align_rotations(result.rotations, gt)
        return init, result

    @staticmethod
    def digest(out) -> bytes:
        _, r = out
        h = hashlib.sha256()
        for nid in sorted(r.rotations):
            h.update(r.rotations[nid].quaternion.tobytes())
        for k in sorted(r.edge_weights):
            h.update(np.array([r.edge_weights[k], r.edge_residual_norms[k]]).tobytes())
        h.update(repr((r.final_cost, r.outer_iterations, r.termination)).encode())
        return h.digest()

    def estimate(self, out) -> dict:
        return {nid: rot.quaternion for nid, rot in out[1].rotations.items()}

    def check(self, out) -> list[str]:
        init, r = out
        what = f"{self.name} on a {len(self.scene['gt'])}-camera scene"
        errs = checks.check_residual_norms(self.scene["edges"], self.estimate(out),
                                           r.edge_residual_norms)
        errs += checks.check_cost_not_above_init(
            solver.cost(self.scene["graph"], init, self.config), r.final_cost)
        errs += checks.check_errors_within(self.errors_deg(out), self.scene["sigma_deg"], what)
        if self.loss == "magsac":
            errs += checks.check_outliers_cut(r.edge_weights, self.scene["outliers"], what)
        if self.name == "magsac+cov_full":
            errs += checks.check_errors_near_limit(self.errors_deg(out),
                                                   self.scene["view_sigma_deg"], what)
        return errs

    def errors_deg(self, out) -> np.ndarray:
        return checks.aligned_errors_deg(self.estimate(out), self.scene["gt"])


def ablation_dense(seed, workdir):
    scenes = [_synth_scene(s, DENSE_CAMERAS, DENSE_DENSITY, seed, reorder=True)
              for s in DENSE_SCENE_SEEDS]
    return [SolveOp(sc, loss, w, init_and_align=True) for sc in scenes for loss, w in ABLATION]


def large_sparse(seed, workdir):
    scene = _synth_scene(SPARSE_SCENE_SEED, SPARSE_CAMERAS, SPARSE_DENSITY, seed, reorder=False)
    return [SolveOp(scene, "magsac", "cov_full", init_and_align=False)]


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

def _random_rotvec(rng, lo_deg, hi_deg):
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis) * np.radians(rng.uniform(lo_deg, hi_deg))


def _cli_inputs(seed, workdir):
    """Write pairs.json and base.json; return the scene record for checks.

    Synth picks the connected edge set and which pairs are outliers.  Each
    inlier pair's matches come from the true pose, and its rotation is the
    truth perturbed by a draw from its own sigma^2 (J^T J)^-1; an outlier
    pair has few matches that fit a rotation 15-30 deg off.  The pairs are
    the same for every seed, which draws only the ground truth's gauge.
    """
    topo = synth.generate_graph(synth.SynthConfig(
        n_cameras=CLI_CAMERAS, edge_density=CLI_DENSITY, noise_sigmas_deg=((1.0, 0.0),),
        outlier_fraction=OUTLIER_FRACTION, seed=CLI_SCENE_SEED))
    rng = np.random.default_rng(CLI_SCENE_SEED)
    gt = {nid: checks.SciRot.from_rotvec(_random_rotvec(rng, 0.0, CLI_MAX_ABS_DEG))
          for nid in topo.graph.node_ids}
    outliers = set(topo.outlier_edge_ids)
    k = synth.DEFAULT_INTRINSICS
    pairs, inlier_var = [], {}
    for e in topo.graph.edges:
        true_rel = gt[e.i] * gt[e.j].inv()
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        pair_seed = int(rng.integers(2**31))
        if e.key in outliers:
            measured = true_rel * checks.SciRot.from_rotvec(_random_rotvec(rng, *CLI_OUTLIER_DEG))
            q = measured.as_quat(scalar_first=True)
            matches = synth.generate_two_view_scene(CLI_OUTLIER_MATCHES, CLI_PIXEL_SIGMA,
                                                    Rotation(q), t, seed=pair_seed).matches
        else:
            q = true_rel.as_quat(scalar_first=True)
            n_match = int(rng.integers(*CLI_INLIER_MATCHES, endpoint=True))
            matches = synth.generate_two_view_scene(n_match, CLI_PIXEL_SIGMA, Rotation(q), t,
                                                    seed=pair_seed).matches
            cov = checks.fd_rotation_covariance(k.k, k.k, q, t, matches, CLI_PIXEL_SIGMA)
            eps = np.linalg.cholesky(cov) @ rng.normal(size=3)
            q = (true_rel * checks.SciRot.from_rotvec(eps)).as_quat(scalar_first=True)
            inlier_var[e.key] = np.trace(cov) / 3.0
        pairs.append((e.key, TwoViewGeometry(rotation=Rotation(q), translation=t,
                                             intrinsics_i=k, intrinsics_j=k, matches=matches)))
    viewgraph.save_pairs(pairs, os.path.join(workdir, "pairs.json"))
    pres = Presentation(seed, CLI_SCENE_SEED, gt, reorder=False)
    gt = {nid: pres.gt(r.as_quat(scalar_first=True)) for nid, r in gt.items()}
    base = viewgraph.ViewGraph([viewgraph.ViewNode(nid, Rotation(q)) for nid, q in gt.items()], [])
    viewgraph.save_graph(base, os.path.join(workdir, "base.json"))
    return {
        "pairs": [(i, j, g.rotation.quaternion, g.translation, g.matches) for (i, j), g in pairs],
        "edges": [(i, j, g.rotation.quaternion) for (i, j), g in pairs],
        "gt": gt,
        "outliers": sorted(outliers),
        "sigma_deg": float(np.degrees(np.sqrt(np.mean(list(inlier_var.values()))))),
        "view_sigma_deg": checks.view_sigmas_deg({k: np.sqrt(v) for k, v in inlier_var.items()}),
    }


class CliPipelineOp:
    """weigh -> average -> evaluate through ``rotavg.cli.main``."""

    name = "weigh+average+evaluate"

    def __init__(self, scene, workdir):
        self.scene = scene
        self.path = {n: os.path.join(workdir, n + ".json")
                     for n in ("pairs", "base", "graph", "result")}

    def run(self):
        p = self.path
        stages = [
            ["weigh", "--pairs", p["pairs"], "--base", p["base"], "--out", p["graph"],
             "--sigma", str(CLI_PIXEL_SIGMA)],
            ["average", "--in", p["graph"], "--out", p["result"],
             "--loss", "magsac", "--weighting", "cov_full"],
            ["evaluate", "--est", p["result"], "--gt", p["graph"]],
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in stages:
                rc = cli.main(argv)
                if rc != 0:
                    raise OpFailed(f"rotavg {argv[0]} exited {rc}: {err.getvalue()[-500:]}")
        with open(p["graph"], "rb") as fh:
            graph = fh.read()
        with open(p["result"], "rb") as fh:
            result = fh.read()
        return graph, result, out.getvalue()

    @staticmethod
    def digest(out) -> bytes:
        h = hashlib.sha256()
        for part in out:
            h.update(part if isinstance(part, bytes) else part.encode())
        return h.digest()

    def estimate(self, out) -> dict:
        doc = json.loads(out[1])
        return {rec["id"]: np.array(rec["qwxyz"]) for rec in doc["rotations"]}

    def check(self, out) -> list[str]:
        graph_doc, result_doc = json.loads(out[0]), json.loads(out[1])
        what = f"cli pipeline on a {len(self.scene['gt'])}-camera graph"
        weights = {(r["i"], r["j"]): r["weight"] for r in result_doc["edge_weights"]}
        norms = {(r["i"], r["j"]): r["residual_norm"] for r in result_doc["edge_weights"]}
        errs = checks.check_residual_norms(self.scene["edges"], self.estimate(out), norms)
        covs = {(r["i"], r["j"]): np.array(r["cov"]).reshape(3, 3)
                for r in graph_doc["edges"] if "cov" in r}
        pairs = self.scene["pairs"]
        for i, j, q, t, matches in pairs[::max(1, len(pairs) // CLI_COV_SAMPLE)]:
            if (i, j) not in covs:
                errs.append(f"{what}: weigh left pair ({i}, {j}) without a covariance")
                continue
            ref = checks.fd_rotation_covariance(synth.DEFAULT_INTRINSICS.k,
                                                synth.DEFAULT_INTRINSICS.k, q, t, matches,
                                                CLI_PIXEL_SIGMA)
            errs += checks.check_covariance(covs[(i, j)], ref, f"{what}, pair ({i}, {j})")
        g = viewgraph.load_graph(self.path["graph"])
        config = _config("magsac", "cov_full")
        init_cost = solver.cost(g, viewgraph.spanning_tree_init(g, "auto"), config)
        errs += checks.check_cost_not_above_init(init_cost, result_doc["final_cost"])
        errs += checks.check_errors_within(self.errors_deg(out), self.scene["sigma_deg"], what)
        errs += checks.check_errors_near_limit(self.errors_deg(out), self.scene["view_sigma_deg"],
                                               what)
        errs += checks.check_outliers_cut(weights, self.scene["outliers"], what)
        return errs

    def errors_deg(self, out) -> np.ndarray:
        return checks.aligned_errors_deg(self.estimate(out), self.scene["gt"])


def cli_pipeline(seed, workdir):
    return [CliPipelineOp(_cli_inputs(seed, workdir), workdir)]


WORKLOADS = {
    "ablation-dense": ablation_dense,
    "large-sparse": large_sparse,
    "cli-pipeline": cli_pipeline,
}
