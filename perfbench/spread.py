#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/spread.py [--workloads extract,tenants] [--seeds 10]
                                [--first-seed 1] [--sets 1] [--trace 0]

Runs the benchmark command from BENCHMARK.json once per seed and workload
(`--sets` times over), from the root of a checkout. For every end-to-end
metric it prints the median and the quartile spread as a share of the
median, as statistics.quantiles(values, n=4) gives them, against the
metric's bound. With --sets 2 it also compares the second set's median
with the first. Every run must report the same metric names. Exits 1 when
a run fails, names differ, a spread other than setup_s exceeds its bound,
or the second median is worse than the first by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    expected = {m["name"] for m in metrics}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                result = run_once(bench, workload, seed, args.trace)
                names = set(result["metrics"])
                if names != expected:
                    print(f"{workload} seed {seed}: metric names differ: {sorted(names ^ expected)}")
                    ok = False
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        if args.trace == 1:
            continue
        print(f"\n{workload}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"  {name:14s} bound {bound:.3f}"
            for s, values in enumerate(sets):
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "" if spread <= bound / 3 else (" ~" if spread <= bound else " !")
                if spread > bound and name != "setup_s":
                    ok = False
                line += f" | set {s + 1}: median {med:.6g} spread {spread:.4f}{flag}"
            if len(sets) == 2:
                first = statistics.median(sets[0][name])
                second = statistics.median(sets[1][name])
                worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
                line += f" | second worse by {worse:+.4f}"
                if worse > bound:
                    ok = False
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
