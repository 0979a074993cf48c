"""Command-line pipeline: synth -> weigh -> average -> evaluate -> report.

Stages communicate only via the documented JSON files, so each subcommand
is usable on its own.  Exit codes: 0 success, 1 usage error, 2 data/schema
error (including a file that cannot be read or written, or is not UTF-8),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time

import numpy as np

from . import kernels
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    InsufficientDataError,
    NumericalError,
    SchemaError,
)
from .evaluate import align_rotations, auc, check_threshold, export_cdf
from .losses import ALL_KINDS, LossSpec
from .so3 import checked_rotations
from .solver import (WEIGHTING_MODES, SolverConfig, _node_quats, default_loss_scale,
                     load_result_rotations, save_result, solve)
from .synth import SynthConfig, generate_graph
from .twoview import COVARIANCE_MODES, rotation_covariances
from .viewgraph import (
    TREE_CRITERIA,
    ViewGraph,
    load_graph,
    load_pairs,
    save_graph,
    spanning_tree_init,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_noise_mixture(text: str):
    """Parse 'frac:sigma_deg,frac:sigma_deg,...'; :class:`SynthConfig` checks the values."""
    out = []
    for item in text.split(","):
        frac, _, sigma = item.partition(":")
        try:
            out.append((float(frac), float(sigma)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected 'frac:sigma_deg,...', got {text!r}") from None
    return tuple(out)


def _parse_thresholds(text: str):
    """Parse 'a,b,...' into AUC thresholds, each checked as :func:`auc` checks it."""
    try:
        thresholds = [float(t) for t in text.split(",")]
        for t in thresholds:
            check_threshold(t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return thresholds


def _add_thresholds_flag(p):
    p.add_argument("--thresholds", type=_parse_thresholds, default="2,5,10,20",
                   help="comma-separated AUC thresholds in degrees")


def _add_scale_flags(p):
    p.add_argument("--loss-scale", type=float, default=None,
                   help="residual-norm scale / sigma_max (default depends on weighting)")
    p.add_argument("--magsac-alpha", type=float, default=LossSpec.alpha,
                   help="chi quantile of the magsac cutoff")


def _add_loss_flags(p):
    p.add_argument("--loss", choices=ALL_KINDS, default="magsac")
    _add_scale_flags(p)
    p.add_argument("--weighting", choices=WEIGHTING_MODES, default="cov_full")


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    parser = _Parser(prog="rotavg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic view graph with ground truth")
    p.add_argument("--cameras", type=int, required=True)
    p.add_argument("--density", type=float, default=0.25)
    p.add_argument("--noise", type=_parse_noise_mixture, default="0.5:0.5,0.5:5.0",
                   help="mixture 'frac:sigma_deg,...'")
    p.add_argument("--outliers", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-covariance", action="store_true",
                   help="omit the true covariance from the edges")
    p.add_argument("--honest-outlier-covariance", action="store_true",
                   help="report a large covariance on outlier edges instead of a confident one")
    p.add_argument("--out", required=True)

    p = sub.add_parser("weigh", help="fill edge covariances from two-view correspondences")
    p.add_argument("--pairs", required=True, help="correspondence-set JSON")
    p.add_argument("--out", required=True, help="output view-graph JSON")
    p.add_argument("--base", default=None,
                   help="optional existing graph supplying nodes / ground truth")
    p.add_argument("--sigma", type=float, default=1.0, help="pixel residual sigma")
    p.add_argument("--mode", choices=COVARIANCE_MODES, default="rotation_only")

    p = sub.add_parser("average", help="run rotation averaging on a view graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_loss_flags(p)
    p.add_argument("--init-criterion", choices=TREE_CRITERIA, default="auto")
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer_irls)

    p = sub.add_parser("evaluate", help="compare a result against ground truth")
    p.add_argument("--est", required=True, help="result JSON from 'average'")
    p.add_argument("--gt", required=True, help="view-graph JSON with gt_qwxyz nodes")
    _add_thresholds_flag(p)
    p.add_argument("--cdf", default=None, help="optional CSV path for the error CDF")

    p = sub.add_parser("report", help="AUC table over loss x weighting combinations")
    p.add_argument("--in", dest="infile", required=True,
                   help="view-graph JSON with ground truth")
    p.add_argument("--losses", default="soft_l1,magsac")
    p.add_argument("--weightings", default="none,inlier_count,cov_full")
    _add_thresholds_flag(p)
    _add_scale_flags(p)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("bench", help="time the per-edge kernel and a full solve")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--repeats", type=int, default=50)
    _add_loss_flags(p)

    return parser


def _solver_config(args, loss: str, weighting: str, **caps) -> SolverConfig:
    """The config of one (loss, weighting) with the scale flags of ``args``."""
    scale = args.loss_scale if args.loss_scale is not None else default_loss_scale(weighting)
    spec = LossSpec(loss, scale=scale, alpha=args.magsac_alpha)  # only magsac reads alpha
    return SolverConfig(loss=spec, weighting=weighting, **caps)


def _cmd_synth(args) -> int:
    config = SynthConfig(
        n_cameras=args.cameras,
        edge_density=args.density,
        noise_sigmas_deg=args.noise,  # argparse converts the string default too
        outlier_fraction=args.outliers,
        seed=args.seed,
        report_true_covariance=not args.no_covariance,
        outlier_covariance="honest" if args.honest_outlier_covariance else "confident",
    )
    scene = generate_graph(config)
    save_graph(scene.graph, args.out)
    print(f"wrote {args.out}: {len(scene.graph.ids)} nodes, "
          f"{len(scene.graph.ends)} edges, {len(scene.outlier_edge_ids)} outliers",
          file=sys.stderr)
    return EXIT_OK


def _cmd_weigh(args) -> int:
    pairs = load_pairs(args.pairs)
    base = load_graph(args.base) if args.base else ViewGraph([], [])
    i, j = [a for (a, _), _ in pairs], [b for (_, b), _ in pairs]
    ids = sorted({*i, *j, *base.node_ids})
    gt = dict(zip(base.ids[base.has_gt].tolist(), base.gt_quats[base.has_gt]))
    geoms = [geom for _, geom in pairs]
    covs, errors = rotation_covariances(geoms, residual_sigma=args.sigma, mode=args.mode)
    for ((a, b), _), exc in zip(pairs, errors):
        if exc is not None:
            print(f"pair ({a}, {b}): {exc}; leaving covariance unset", file=sys.stderr)
    graph = ViewGraph.from_columns(
        ids, i, j, [geom.rotation.quaternion for geom in geoms],
        gt_quats=[gt.get(nid, (1.0, 0.0, 0.0, 0.0)) for nid in ids],
        has_gt=[nid in gt for nid in ids],
        covariances=covs, has_covariance=[exc is None for exc in errors],
        inlier_counts=[len(geom.matches) for geom in geoms])
    save_graph(graph, args.out)
    print(f"wrote {args.out}: {len(pairs)} weighted edges", file=sys.stderr)
    return EXIT_OK


def _cmd_average(args) -> int:
    g = load_graph(args.infile)
    config = _solver_config(args, args.loss, args.weighting, max_outer_irls=args.max_outer)
    init = spanning_tree_init(g, args.init_criterion)
    result = solve(g, init, config)
    save_result(result, args.out)
    print(f"final cost {result.final_cost:.6g} after {result.outer_iterations} "
          f"outer iterations (converged={result.converged})", file=sys.stderr)
    return EXIT_OK


def _gt_rotations(g: ViewGraph):
    gt = dict(zip(g.ids[g.has_gt].tolist(), checked_rotations(g.gt_quats[g.has_gt])))
    if not gt:
        raise SchemaError("graph carries no ground-truth rotations (gt_qwxyz)")
    return gt


def _cmd_evaluate(args) -> int:
    est = load_result_rotations(args.est)
    gt = _gt_rotations(load_graph(args.gt))
    common = set(est) & set(gt)
    if not common:
        raise SchemaError("estimate and ground truth share no node ids")
    alignment = align_rotations(est, gt)
    errors = list(alignment.per_view_errors.values())
    header = " ".join(f"AUC@{t:g}" for t in args.thresholds)
    print(f"views {len(errors)}  median_err_deg {np.median(errors):.4f}")
    print(header)
    print(" ".join(f"{auc(errors, t):6.2f}" for t in args.thresholds))
    if args.cdf:
        export_cdf(errors, args.cdf)
    return EXIT_OK


def _cmd_report(args) -> int:
    # every name is checked before the first solve
    configs = [(loss, weighting, _solver_config(args, loss, weighting))
               for loss in args.losses.split(",") for weighting in args.weightings.split(",")]
    g = load_graph(args.infile)
    gt = _gt_rotations(g)
    init = spanning_tree_init(g, "auto")
    rows = []
    for loss, weighting, config in configs:
        result = solve(g, init, config)
        alignment = align_rotations(result.rotations, gt)
        errors = list(alignment.per_view_errors.values())
        rows.append((loss, weighting, [auc(errors, t) for t in args.thresholds]))
    name_w = max(len(f"{l}+{w}") for l, w, _ in rows) + 2
    head = "setting".ljust(name_w) + "".join(f"AUC@{t:g}".rjust(9) for t in args.thresholds)
    print(head)
    for loss, weighting, aucs in rows:
        print(f"{loss}+{weighting}".ljust(name_w) + "".join(f"{a:9.2f}" for a in aucs))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["loss", "weighting"] + [f"auc@{t:g}" for t in args.thresholds])
            for loss, weighting, aucs in rows:
                writer.writerow([loss, weighting] + [f"{a:.4f}" for a in aucs])
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        raise _UsageError("--repeats must be >= 1")
    g = load_graph(args.infile)
    init = spanning_tree_init(g, "auto")
    quats = _node_quats(g, init)

    kernels.edge_terms(quats, g.ends, g.quats)  # warm-up
    start = time.perf_counter()
    for _ in range(args.repeats):
        kernels.edge_terms(quats, g.ends, g.quats)
    per_call = (time.perf_counter() - start) / args.repeats
    print(f"graph: {len(quats)} nodes, {len(g.ends)} edges")
    print(f"edge_terms numpy : {per_call * 1e6:10.1f} us/call")
    config = _solver_config(args, args.loss, args.weighting)
    start = time.perf_counter()
    result = solve(g, init, config)
    elapsed = time.perf_counter() - start
    print(f"full solve: {elapsed:.3f} s, {result.outer_iterations} outer iterations")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "weigh": _cmd_weigh,
    "average": _cmd_average,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, OSError) as exc:
        # before ValueError: DisconnectedGraphError is both; OSError: a file that
        # cannot be read or written (missing, a directory, no permission)
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, DegenerateGeometryError, InsufficientDataError,
            np.linalg.LinAlgError) as exc:
        # before ValueError: LinAlgError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (_UsageError, ConfigurationError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
