#!/usr/bin/env python3
"""The repository benchmark: three campaign workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs the traced per-layer breakdown
instead (``tracing.py``).  Every record is checked; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` and the exit code is 0 only when every check passed.  See
README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import planted  # noqa: E402

# At import rather than in main(): pool workers import this file as
# ``__mp_main__``, which is how they get the same planted slowdown.
planted.install_from_env()

WORKLOADS = ("grid_cold", "sweep_warm", "service_drain")
UNITS = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "submit_s": "s",
    "status_p50_ms": "ms",
}
#: Printed with the metrics above but not in the result object, so not
#: gated: a shared host's scheduling stalls double it from one spell to
#: the next (README.md).
PRINTED_ONLY = {"status_p95_ms": "ms"}


def _print_outcome(workload: str, seed: int, out) -> None:
    from measure import REFERENCE_S

    print(f"perfbench {workload} seed={seed}: {out.notes.get('reps')} batches "
          f"of {out.notes.get('cells')} cells; time metrics at reference speed "
          f"(probe {out.notes.get('probe_ms', 0.0):.1f} ms vs {REFERENCE_S * 1e3:.0f} ms)")
    for name, unit in {**UNITS, **PRINTED_ONLY}.items():
        print(f"  {name:15s} {out.metrics[name]:12.4f} {unit:8s}"
              f" (as timed here: {out.raw[name]:.4f})"
              + (", not gated" if name in PRINTED_ONLY else ""))
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'failed_frac':15s} {frac:12.4f} {'1':8s}"
          f" ({out.failed} of {out.attempted} cells)")
    print("  set-ups at reference speed (the median counts): "
          + " ".join(f"{x:.3f}" for x in out.notes["setups_s"]) + " s")
    lag = out.notes.get("poll_lag_p95_ms")
    print(f"  status samples: {out.notes.get('status_samples')} in "
          f"{out.notes.get('status_windows')} windows"
          + ("" if lag is None else f", poll generator lag p95 {lag:.3f} ms"))
    for name, ok in out.checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")


def _run_one(args) -> int:
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root, prefix=f"{args.workload}-")
    try:
        if args.trace:
            import tracing

            result = tracing.traced_run(args.workload, args.seed, work)
        else:
            import drive
            from measure import Speed

            with Speed() as speed:
                out = drive.WORKLOADS[args.workload](
                    args.seed, args.seconds, work, speed
                )
            _print_outcome(args.workload, args.seed, out)
            result = {
                "correct": out.failed == 0 and all(out.checks.values()),
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": out.metrics[name], "unit": unit}
                    for name, unit in UNITS.items()
                },
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def _stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The multiprocessing forkserver and resource tracker otherwise outlive
    the benchmark: they exit only once they notice its end of their pipes
    closed.  Their ``_stop`` closes that pipe and reaps them; any other
    child still running is terminated and reaped.
    """
    from multiprocessing import forkserver, resource_tracker

    from measure import child_pids

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    for pid in child_pids(os.getpid()):
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # The program reads REPRO_* switches (sanitizer, metrics, failure
    # injection, start method, ...); the benchmark runs it with none set.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    try:
        if args.workload == "all":
            return _run_all(args)
        return _run_one(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    sys.exit(main())
