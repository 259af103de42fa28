#!/usr/bin/env python3
r"""Runs the benchmark once per seed on each named workload and reports,
per end-to-end metric, the median, the quartiles and the quartile spread
((Q3 - Q1) / median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workloads serve-hit,fleet \
        --seeds 1-10 [--seconds 20] [--json out.json]

Run from the root of a source checkout, like perfbench/run.py. A spread
(setup_s excepted) must stay within its bound; the benchmark aims for a
third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import stats  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float)
    p.add_argument("--json")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", "%g" % seconds,
                                    "--trace", "0"],
                stdout=subprocess.PIPE)
            lines = proc.stdout.decode().strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.exit("%s seed %d: no result line (exit %d)" % (
                    workload, seed, proc.returncode))
            run = {k: v["value"] for k, v in result["metrics"].items()}
            run["correct"] = result["correct"]
            run["info"] = lines[:-1]
            runs.append(run)
            sys.stderr.write("%s seed %d done%s\n" % (
                workload, seed, "" if result["correct"] else
                " (INCORRECT, exit %d)" % proc.returncode))
        report[workload] = runs
        print("%s (%d seeds, %gs, %d incorrect)" % (
            workload, len(runs), seconds,
            sum(not r["correct"] for r in runs)))
        print("  %-18s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = stats.quartile_spread(values)
            flag = "" if name == "setup_s" or spread <= bound / 3 else (
                " <- above bound/3" if spread <= bound else " <- ABOVE BOUND")
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %6.3g%s" % (
                name, q1, med, q3, spread, bound, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
