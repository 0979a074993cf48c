"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 benchmark/steady.py                      # every workload, 2 sets of 10 runs
    python3 benchmark/steady.py --workload large-sparse --runs 5 --sets 1

Runs ``run.py`` once per seed, one process at a time, as separate sets
with distinct seeds (set k uses seeds first + k*runs ...).  For every
end-to-end metric it prints each set's median and its spread, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, and the drift of each later set's median from the
first set's.  Bounds come from ``BENCHMARK.json``; a spread (except
``setup_s``) or a drift past its bound, or a failed share that differs
between sets, is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            sets.append([run_once(workload, seed, args.seconds) for seed in seeds])
        print(f"\n{workload}: {args.sets} sets x {args.runs} runs of {args.seconds} s")
        for k, runs in enumerate(sets):
            bad = [r for r in runs if not r["correct"]]
            share = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            print(f"  set {k}: failed share {share:.6g}, {len(bad)} runs with a failed check")
            flagged += bool(bad)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        flagged += len(shares) > 1
        report[workload] = {}
        for name, bound in bounds.items():
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            drifts = [(med - stats[0][0]) / stats[0][0] for med, _ in stats[1:]]
            worst = max([sp for _, sp in stats] if name != "setup_s" else [0.0])
            flag = worst > bound or any(d > bound for d in drifts)
            flagged += flag
            report[workload][name] = {"medians": [m for m, _ in stats],
                                      "spreads": [sp for _, sp in stats], "drifts": drifts}
            print(f"  {name:16s} bound {bound:5.3f}  "
                  + "  ".join(f"med {m:.6g} spread {sp:6.2%}" for m, sp in stats)
                  + "".join(f"  drift {d:+6.2%}" for d in drifts)
                  + ("  <-- over bound" if flag else ""))
    print(json.dumps(report))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
