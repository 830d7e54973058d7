#!/usr/bin/env python3
"""Checks that a workload's deterministic counters repeat exactly.

    python3 perfbench/check_determinism.py --workload sync_mix --seed 7

Runs the traced run (run.py --trace 1) twice at one seed and compares the
counters line each run prints. Both runs must also pass every correctness
gate. Exits non-zero on any difference or failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    counters, result = None, None
    for line in done.stdout.splitlines():
        if line.startswith('{"counters"'):
            counters = json.loads(line)["counters"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    return done.returncode, counters, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()

    runs = [traced_run(args.workload, args.seed, args.seconds) for _ in range(2)]
    ok = True
    for index, (code, counters, result) in enumerate(runs, 1):
        if code != 0 or counters is None or not result or not result["correct"]:
            print("run %d failed (exit %d): %s" % (index, code, result))
            ok = False
    if ok:
        first, second = runs[0][1], runs[1][1]
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                print("%s differs: %s vs %s" % (name, first.get(name),
                                                second.get(name)))
                ok = False
    print("%s seed %d: %s (%d counters)" % (
        args.workload, args.seed, "identical" if ok else "MISMATCH",
        len(runs[0][1] or {})))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
