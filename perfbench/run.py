#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark binary is built from source
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr. The binary's standard output is passed through,
so the last line is the run's JSON result. Traced runs (--trace 1) also
write their spans as Chrome trace JSON under <build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_mix", "sync_mix")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changed.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    trace_dir = os.path.join(target, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out",
        os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
