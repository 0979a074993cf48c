"""Per-layer trace taken from outside the program.

The tracer replaces each layer's entry point with a timing wrapper in the
namespace its callers look it up in (``solve`` is imported by name into
``rotavg.cli``, so both ``rotavg.solver.solve`` and ``rotavg.cli.solve``
are wrapped).  Spans nest: a span's self time is its duration minus the
durations of the spans opened directly inside it.  All times are process
CPU seconds.  A patch point that no longer exists is reported as absent
and skipped, so a refactor does not break the traced run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# layer -> patch points (module, attribute) or (module, dict attribute, key)
LAYERS = {
    "solver.solve": [("rotavg.solver", "solve"), ("rotavg.cli", "solve")],
    "solver.linear_solve": [("rotavg.solver", "_solve_normal_equations")],
    "solver.retract": [("rotavg.solver", "_apply_step")],
    "solver.cost": [("rotavg.solver", "cost")],
    "losses.evaluate_loss": [("rotavg.solver", "evaluate_loss")],
    "kernels.edge_terms": [("rotavg.kernels", "edge_terms")],
    "viewgraph.spanning_tree_init": [("rotavg.viewgraph", "spanning_tree_init"),
                                     ("rotavg.cli", "spanning_tree_init")],
    "viewgraph.load_pairs": [("rotavg.cli", "load_pairs")],
    "viewgraph.load_graph": [("rotavg.cli", "load_graph")],
    "viewgraph.save_graph": [("rotavg.cli", "save_graph")],
    "solver.save_result": [("rotavg.cli", "save_result")],
    "twoview.covariance_of_rotation": [("rotavg.cli", "covariance_of_rotation")],
    "cli.weigh": [("rotavg.cli", "_COMMANDS", "weigh")],
    "cli.average": [("rotavg.cli", "_COMMANDS", "average")],
    "cli.evaluate": [("rotavg.cli", "_COMMANDS", "evaluate")],
    "evaluate.align_rotations": [("rotavg.evaluate", "align_rotations"),
                                 ("rotavg.cli", "align_rotations")],
    "synth.generate_graph": [("rotavg.synth", "generate_graph")],
}


def _get(point):
    mod = importlib.import_module(point[0])
    if len(point) == 2:
        return getattr(mod, point[1], None)
    return getattr(mod, point[1], {}).get(point[2])


def _set(point, value):
    mod = importlib.import_module(point[0])
    if len(point) == 2:
        setattr(mod, point[1], value)
    else:
        getattr(mod, point[1])[point[2]] = value


class Tracer:
    """Wraps every patch point in ``LAYERS`` while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.self_secs = defaultdict(float)
        self.child_secs = defaultdict(float)  # (parent, child) -> seconds
        self.solve_outer = 0
        self.solve_guard_stops = 0
        self.absent = sorted(name for name, points in LAYERS.items()
                             if all(_get(p) is None for p in points))
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.secs[name] += dt
                self.self_secs[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                    self.child_secs[(self._stack[-1][0], name)] += dt
            if name == "solver.solve":
                self.solve_outer += getattr(out, "outer_iterations", 0)
                self.solve_guard_stops += getattr(out, "termination", "") == "irls_non_decrease_guard"
            return out
        return wrapper

    def install(self):
        for name, points in LAYERS.items():
            for point in points:
                fn = _get(point)
                if fn is not None:
                    self._saved.append((point, fn))
                    _set(point, self._wrap(name, fn))

    def uninstall(self):
        for point, fn in reversed(self._saved):
            _set(point, fn)
        self._saved.clear()

    def reset(self):
        for table in (self.calls, self.secs, self.self_secs, self.child_secs):
            table.clear()
        self.solve_outer = self.solve_guard_stops = 0

    def solve_breakdown(self):
        """(solve seconds, self seconds, {direct child: seconds})."""
        children = {c: s for (p, c), s in self.child_secs.items() if p == "solver.solve"}
        return self.secs["solver.solve"], self.self_secs["solver.solve"], children

    def accepted_steps(self) -> int:
        """Accepted LM steps, from call counts.

        Inside ``solve`` every retraction is followed by one ``edge_terms``
        call for the trial and every accepted step by one more for the new
        iterate; one further call evaluates the init and one re-evaluates
        the previous iterate when the IRLS guard stops the run.
        """
        return (self.calls["kernels.edge_terms"] - self.calls["solver.retract"]
                - self.calls["solver.solve"] - self.solve_guard_stops)


# (metric, unit) in the order BENCHMARK.json lists them; all but setup-time
# layers are per timed operation
PER_LAYER_METRICS = [
    ("solver.solve.calls", "count"),
    ("solver.solve.s", "s"),
    ("solver.solve.self_s", "s"),
    ("solver.linear_solve.calls", "count"),
    ("solver.linear_solve.s", "s"),
    ("solver.retract.calls", "count"),
    ("solver.retract.s", "s"),
    ("losses.evaluate_loss.calls", "count"),
    ("losses.evaluate_loss.s", "s"),
    ("kernels.edge_terms.calls", "count"),
    ("kernels.edge_terms.s", "s"),
    ("solver.cost.s", "s"),
    ("solver.outer_iterations", "count"),
    ("solver.accepted_steps", "count"),
    ("solver.step_accept_ratio", "ratio"),
    ("viewgraph.load_pairs.s", "s"),
    ("viewgraph.load_graph.s", "s"),
    ("viewgraph.save_graph.s", "s"),
    ("solver.save_result.s", "s"),
    ("twoview.covariance_of_rotation.calls", "count"),
    ("twoview.covariance_of_rotation.s", "s"),
    ("cli.weigh.s", "s"),
    ("cli.average.s", "s"),
    ("cli.evaluate.s", "s"),
    ("viewgraph.spanning_tree_init.s", "s"),
    ("evaluate.align_rotations.s", "s"),
    ("synth.generate_graph.s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_values(tracer: Tracer, n_ops: int, setup_tracer: Tracer, n_setups: int,
                     overhead_s: float) -> dict:
    """Per-operation layer figures; ``synth`` per set-up pass."""
    out = {}
    for name, unit in PER_LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = tracer.calls[layer] / n_ops
        elif field == "self_s":
            out[name] = tracer.self_secs[layer] / n_ops
        elif field == "s" and layer == "synth.generate_graph":
            out[name] = setup_tracer.secs[layer] / n_setups
        elif field == "s":
            out[name] = tracer.secs[layer] / n_ops
    accepted = tracer.accepted_steps()
    solves = tracer.calls["solver.linear_solve"]
    out["solver.outer_iterations"] = tracer.solve_outer / n_ops
    out["solver.accepted_steps"] = accepted / n_ops
    out["solver.step_accept_ratio"] = accepted / solves if solves else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
