#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads paper200,flip2k,steady10k \
        --seeds 10 [--seconds N] [--first-seed 1]

Run from the repository root. Runs perfbench/run.py once per seed and
workload with --trace 0 and prints, per workload and metric, the median of
the per-run values and the quartile spread (Q3 - Q1) / median, with
quartiles from statistics.quantiles(values, n=4). Compare each spread with
the metric's bound in BENCHMARK.json: a steady benchmark keeps every spread
but setup_s well inside it. Exits non-zero if any run fails its checks.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"{workload:10s} {name:24s} median {median:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
