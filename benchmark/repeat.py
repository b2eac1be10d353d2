#!/usr/bin/env python3
"""Run the benchmark as the driver does and judge it by its own bounds.

    python3 benchmark/repeat.py [--sets 2] [--seeds 10] [--first-seed 1]
                                [--workload NAME ...] [--trace]

Runs `command` from BENCHMARK.json once per workload and seed (seeds
first-seed .. first-seed+seeds-1), `--sets` times back to back, from the
repo root. Per workload and end-to-end metric it prints each set's median,
its spread over the seeds (distance between the first and third quartile
as a share of the median) and how much worse each later set's median is
than the first set's, next to the metric's bound. Exits 1 when a spread
(`setup_s` excepted) or a worsening is outside the bound, or a run failed.
Every value read is kept in benchmark/out/repeat.json.
With `--trace` it makes one traced pass per workload on the first seed and
prints the per-layer metrics.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    argv = SPEC["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(int(trace)),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric, first, later):
    """Share of `first` by which `later` is worse, negative when better."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    if args.trace:
        for w in workloads:
            print(f"## {w} seed {args.first_seed}, traced")
            for name, value in run(w, args.first_seed, True).items():
                print(f"{name:<36} {value:>16.6f}")
        return

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    everything = {}
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            runs = [run(w, seed, False) for seed in seeds]
            sets.append({m["name"]: [r[m["name"]] for r in runs] for m in SPEC["end_to_end"]})
        everything[w] = sets
        print(f"## {w}: {args.sets} sets of {args.seeds} seeds, {SPEC['run_seconds']} s each")
        print(f"{'metric':<18}{'bound':>8}  " + "  ".join(f"{'median':>14}{'spread':>8}{'worse':>8}" for _ in sets))
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            for values in (s[name] for s in sets):
                med = statistics.median(values)
                worse = worsening(m, statistics.median(sets[0][name]), med)
                sp = spread(values)
                bad = worse > bound or (name != "setup_s" and sp > bound)
                ok &= not bad
                cells.append(f"{med:>14.6g}{sp:>8.3f}{worse:>+8.3f}" + ("!" if bad else " "))
            print(f"{name:<18}{bound:>8.2g}  " + " ".join(cells))
    out = ROOT / "benchmark" / "out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(everything, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
