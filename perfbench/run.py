#!/usr/bin/env python3
r"""corun benchmark: one named workload, one seed.

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout. Builds the tools and
perfbench-probe from source (into $CARGO_TARGET_DIR, default .bench_build),
generates every input from --seed, drives the real tools for --seconds,
checks every output, and prints one JSON result line last: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import platform
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib import host, stats, workloads  # noqa: E402
from benchlib.host import BenchError  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so every started program is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    program_core, gen_core = host.pick_cores()
    os.makedirs(build_dir, exist_ok=True)
    tools, probe = host.build(root, build_dir,
                              os.path.join(build_dir, "perfbench-build.log"))
    stamp = host.run_checked([probe, "stamp"], gen_core).decode().strip()

    host.pin_self(gen_core)
    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                      os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = workloads.Env(tools, probe, work, args.seed, program_core, gen_core)
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, info = workloads.traced(
                env, workload, args.seconds)
        else:
            metrics, attempted, failed, info = workloads.end_to_end(
                env, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("host: nproc=%d %s cmake_build_type=%s cores: program=%d "
          "generator=%d jobs=1 machine=%s" % (
              os.cpu_count(), stamp, host.build_type(build_dir),
              program_core, gen_core, platform.machine()))
    print("run: workload=%s seed=%d seconds=%g trace=%d ops=%d failed=%d" % (
        args.workload, args.seed, args.seconds, args.trace, attempted,
        failed))
    for line in info:
        print("info: " + line)
    print(stats.result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
