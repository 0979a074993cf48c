"""Run one benchmark workload in this process and print its metrics.

    python3 benchmark/run.py --workload ablation-dense --seed 1 --seconds 20 --trace 0

Set-up builds every operation's inputs from ``--seed`` (five times, to
time it), then the timed part runs whole rounds of the workload's
operations until ``--seconds`` of wall time have passed.  Times are
process CPU seconds (user + system); each distinct operation counts with
its best time over the rounds.  After timing, every distinct operation's
output is checked (see ``checks.py``) and compared bit for bit with its
repeats.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced run (see ``layers.py``).  Exits 2 without a result when the
program's sources are missing.
"""

import os
import sys

# one BLAS/OpenMP thread, set before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "rotavg", "__init__.py")):
        print(f"benchmark: no program sources at {SRC}/rotavg", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import rotavg

    if os.path.dirname(os.path.dirname(os.path.abspath(rotavg.__file__))) != SRC:
        print(f"benchmark: imported rotavg from {rotavg.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


def _run_rounds(ops, seconds, outputs, digests, op_cpu, failures):
    """Run whole rounds until ``seconds`` of wall time; return (ops attempted, rounds)."""
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        for k, op in enumerate(ops):
            attempted += 1
            c0 = time.process_time()
            try:
                out = op.run()
            except Exception as exc:  # every failure is counted, the run goes on
                failures.append(f"{op.name}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                continue
            op_cpu[k].append(time.process_time() - c0)
            digests[k].add(op.digest(out))
            outputs.setdefault(k, out)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return attempted, rounds


def main(argv=None):
    import_cpu0 = time.process_time()
    _import_program()
    import numpy as np

    import layers
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_cpu = time.process_time() - import_cpu0

    os.makedirs(os.path.join(ROOT, ".benchmark_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".benchmark_work"))
    try:
        build = workloads.WORKLOADS[args.workload]
        setup_tracer = layers.Tracer()
        if args.trace:
            setup_tracer.install()
        setup_cpu = []
        for _ in range(SETUP_REPEATS):
            c0 = time.process_time()
            ops = build(args.seed, workdir)
            setup_cpu.append(time.process_time() - c0)
        setup_tracer.uninstall()

        outputs, digests = {}, [set() for _ in ops]
        op_cpu, traced_cpu, failures = [[] for _ in ops], [[] for _ in ops], []
        wall = time.perf_counter()
        if args.trace:
            # untraced half for the overhead, then the traced half
            attempted, rounds = _run_rounds(ops, args.seconds / 2, outputs, digests,
                                            op_cpu, failures)
            tracer = layers.Tracer()
            tracer.install()
            try:
                more, traced_rounds = _run_rounds(ops, args.seconds / 2, outputs, digests,
                                                  traced_cpu, failures)
            finally:
                tracer.uninstall()
            attempted += more
            rounds += traced_rounds
        else:
            attempted, rounds = _run_rounds(ops, args.seconds, outputs, digests,
                                            op_cpu, failures)
        wall = time.perf_counter() - wall
        # each distinct operation's best CPU over its repeats: interference
        # from other processes only ever adds time
        best = [min(c) for c in op_cpu if c]

        # correctness, outside the timed part
        problems = []
        for k, op in enumerate(ops):
            if k not in outputs:
                continue
            if rounds == 1:
                digests[k].add(op.digest(op.run()))
            if len(digests[k]) != 1:
                problems.append(f"{op.name}: repeated runs of one input differ")
            problems += op.check(outputs[k])
        errors = np.concatenate([ops[k].errors_deg(out) for k, out in sorted(outputs.items())]) \
            if outputs else np.array([np.nan])

        if args.trace:
            n_traced = sum(len(c) for c in traced_cpu)
            overhead = sum(min(c) for c in traced_cpu if c) / len(ops) - sum(best) / len(ops)
            metrics = layers.per_layer_values(tracer, max(n_traced, 1), setup_tracer,
                                             SETUP_REPEATS, overhead)
            total, self_s, children = tracer.solve_breakdown()
            if total and abs(self_s + sum(children.values()) - total) > 1e-9 * max(1.0, total):
                problems.append("traced solve time differs from self time plus children")
            print(f"traced: {n_traced} ops; overhead traced - untraced cpu_s = "
                  f"{overhead * len(ops):.4f} s per round; "
                  f"solve {total:.3f} s = self {self_s:.3f} s + "
                  + ", ".join(f"{c} {s:.3f}" for c, s in sorted(children.items())),
                  file=sys.stderr)
            if tracer.absent:
                print("absent layers: " + ", ".join(tracer.absent), file=sys.stderr)
        else:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            values = {
                "setup_s": (import_cpu + statistics.median(setup_cpu), "s"),
                "cpu_s": (sum(best), "s"),
                "op_p50_s": (statistics.median(best), "s"),
                "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
                "rot_err_p50_deg": (float(np.percentile(errors, 50)), "deg"),
                "rot_err_p90_deg": (float(np.percentile(errors, 90)), "deg"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            print(f"set-up: imports {import_cpu:.3f} s, builds "
                  + " ".join(f"{c:.3f}" for c in setup_cpu) + " s", file=sys.stderr)
            print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
                  f"{len(errors)} view errors; wall {wall:.3f} s timed, "
                  f"{wall / rounds:.3f} s per round (not gated)", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    threads = _thread_count()
    print(f"threads: {threads} (nproc {os.cpu_count()})", file=sys.stderr)
    if threads > os.cpu_count():
        problems.append(f"{threads} threads on {os.cpu_count()} cores")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
