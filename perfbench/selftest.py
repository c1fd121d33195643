#!/usr/bin/env python3
"""Gate self-test: a planted slowdown must fail the bound where it belongs.

For each plant in ``PLANTS``, runs the workload expected to fail and the
workloads expected to hold ``SEEDS`` times plain and ``SEEDS`` times with
``PERFBENCH_PLANT`` set (alternating, planted first on odd seeds), then
compares the medians of ``cells_per_s`` against its bound in
BENCHMARK.json.  Passes when every expected workload is worse by more
than the bound and every other listed workload stays within it.  No
program file is touched: the slowdown is a benchmark-side wrapper
(planted.py).

Usage (from the repository root; about 12 minutes for both plants)::

    python3 perfbench/selftest.py               # every plant below
    python3 perfbench/selftest.py plan:2.0      # one of them

Hashing and planning both run in every ``service_drain`` cell, so those
slowdowns legitimately move that workload too; each plant is checked
against the workload that bypasses its layer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
METRIC = "cells_per_s"
SEEDS = 3
SECONDS = 8
#: plant -> (workload that must fail, workloads that must stay within).
PLANTS = {
    "hashing:3.0": ("sweep_warm", ("grid_cold",)),
    "plan:2.0": ("grid_cold", ("sweep_warm",)),
}


def _run(workload: str, seed: int, plant: str) -> float:
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_PLANT"}
    if plant:
        env["PERFBENCH_PLANT"] = plant
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} plant={plant!r} failed its checks")
    return result["metrics"][METRIC]["value"]


def _check(plant: str, bound: float) -> bool:
    expect, within = PLANTS[plant]
    ok = True
    for workload in (expect,) + within:
        plain, planted = [], []
        for seed in range(1, SEEDS + 1):
            order = [("", plain), (plant, planted)]
            for spec, sink in (order[::-1] if seed % 2 else order):
                sink.append(_run(workload, seed, spec))
        worse = 1.0 - statistics.median(planted) / statistics.median(plain)
        fails = worse > bound
        expected = workload == expect
        ok &= fails == expected
        print(f"{plant:12s} {workload:14s} {METRIC} plain "
              f"{statistics.median(plain):10.1f} planted "
              f"{statistics.median(planted):10.1f} worse by {worse:6.1%} "
              f"(bound {bound:.0%}): {'FAILS' if fails else 'within'}"
              f" - {'as expected' if fails == expected else 'UNEXPECTED'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plants", nargs="*",
                        help=f"plants to check, of {', '.join(PLANTS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.plants) - set(PLANTS))
    if unknown:
        parser.error(f"unknown plant {', '.join(unknown)}")
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)
    ok = True
    for plant in args.plants or PLANTS:
        ok &= _check(plant, bound)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
