"""Self-check: two traced samples of each workload must agree exactly.

Usage: python3 perfbench/selfcheck.py [--seed N] [workload ...]

Runs two traced samples per workload, each in a fresh interpreter, and
compares every per-layer count and ratio and every output digest.  Times
are not compared.  Exits 1 on any difference or failed check.
"""

import argparse
import sys
import time

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()
    exact = [name for name, unit in run.PER_LAYER if unit != "s"]
    ok = True
    for workload in args.workloads:
        first, second = (run.spawn(workload, args.seed, True, time.monotonic() + run.RUN_LIMIT_S)
                         for _ in range(2))
        diffs = [f"{name}: {first['per_layer'][name]} != {second['per_layer'][name]}"
                 for name in exact if first["per_layer"][name] != second["per_layer"][name]]
        if first["digests"] != second["digests"]:
            diffs.append("output digests differ")
        diffs += first["failures"] + second["failures"]
        ok = ok and not diffs
        print(f"{workload}: {'ok' if not diffs else 'DIFFERS'} "
              f"({len(exact)} counts and ratios, {len(first['digests'])} digests)")
        for diff in diffs:
            print(f"  {diff}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
