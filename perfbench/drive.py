"""The three timed workloads (tracing off) and their output checks.

Each workload function sets up several times (``setup_s`` takes the
median; the last set-up is the one used), runs repetitions for the
requested seconds, checks every record, and returns a :class:`Outcome`.
A repetition is one closed batch: the caller submits all its cells and
waits for all of them.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List

# The program modules the workloads and their input generators use,
# imported up front: ``_import_s`` times this import as part of set-up.
import repro.experiments.common  # noqa: F401
import repro.runner.campaign  # noqa: F401
import repro.workflows.generators  # noqa: F401
from repro.runner.cache import ResultCache
from repro.runner.hashing import cache_key
from repro.runner.jobs import execute_sim
from repro.runner.pool import CampaignRunner
from repro.runner.record import SimRecord
from repro.service.store import JobStore
from repro.service.wire import submission_to_wire

import workloads
from measure import OpenLoopPoller, Speed, median, percentile, tree_peak_rss_mb
from service import Service, request

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: Set-ups per run, at least, and until SETUP_BUDGET_S have been spent
#: setting up (cheap set-ups repeat more often); ``setup_s`` reports the
#: median.
SETUPS = 7
SETUP_BUDGET_S = 10.0
MIN_REPS = 3
#: Status samples per percentile window, so that p95 has at least ten
#: samples beyond it.  Consecutive batches are pooled to reach it.
STATUS_WINDOW = 200
#: Open-loop status polling rate while a batch drains.
POLL_HZ = 100.0
#: Cells per workload re-run inline for the byte-identity check.
SAMPLE = 24
#: A service campaign that has not drained by then fails the run.
CAMPAIGN_TIMEOUT_S = 60.0
#: Roughly the seconds one service campaign takes at reference speed.
#: The store grows with every campaign and gets slower as it grows, so a
#: run submits a fixed number of campaigns (the requested seconds divided
#: by this) instead of as many as fit in the window on the current host.
SERVICE_CAMPAIGN_S = 0.5


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: name -> value at reference speed (see measure.py)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: name -> value as timed, unscaled
    raw: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _fresh(work: str) -> str:
    return tempfile.mkdtemp(dir=work)


def _inline_check(cells, records, seed: int, salt: str) -> int:
    """Mismatches between ``records`` and an inline ``execute_sim`` of a seeded sample."""
    rng = random.Random(f"{salt}:{seed}")
    picks = rng.sample(range(len(cells)), min(SAMPLE, len(cells)))
    bad = 0
    for i in picks:
        got = records[i]
        got = got if isinstance(got, dict) else got.to_dict()
        bad += _canonical(execute_sim(cells[i].payload())) != _canonical(got)
    return bad


#: A context during which the system under test is held idle for a probe.
Quiet = Callable[[], ContextManager]


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import this module and the program."""
    code = (
        f"import sys, time; sys.path[:0] = [{HERE!r}, {SRC!r}]; "
        "t0 = time.perf_counter(); import drive; "
        "print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        check=True,
    )
    return float(proc.stdout)


def _set_up(
    out: Outcome, speed: Speed, one_setup: Callable[[], float],
    quiet: Quiet = contextlib.nullcontext,
) -> None:
    """Set up SETUPS times or more and record the median as ``setup_s``.

    One set-up is the import of the program in a fresh interpreter plus
    ``one_setup``, which makes inputs, brings the system up and returns
    the seconds that took.  Each set-up is scaled by the probes right
    before and after it.
    """
    raw, scaled = [], []
    with quiet():
        before = speed.probe()
    while len(raw) < SETUPS or sum(raw) < SETUP_BUDGET_S:
        elapsed = _import_s() + one_setup()
        with quiet():
            after = speed.probe()
        raw.append(elapsed)
        scaled.append(Speed.time_at_reference(elapsed, (before + after) / 2.0))
        before = after
    out.raw["setup_s"] = median(raw)
    out.metrics["setup_s"] = median(scaled)
    out.notes["setups_s"] = scaled


def _timed_reps(
    seconds: float, speed: Speed, one_rep: Callable[[int], dict],
    count: int = 0, quiet: Quiet = contextlib.nullcontext,
) -> List[dict]:
    """One warm-up rep, then ``one_rep`` for ``seconds`` (at least
    MIN_REPS times), or exactly ``count`` times when given.

    The warm-up rep is checked like every other but not timed: the
    first batch after set-up pays one-off costs (lazy imports in the
    workers, allocator growth, a cold sqlite page cache) that every
    later batch skips.  Each timed rep gets ``probe``: the mean
    reference-loop time of the probes taken right before and right
    after it, each inside ``quiet()``.
    """
    one_rep(0)
    reps: List[dict] = []
    with quiet():
        before = speed.probe()
    deadline = time.perf_counter() + seconds
    while (
        len(reps) < count if count
        else len(reps) < MIN_REPS or time.perf_counter() < deadline
    ):
        rep = one_rep(len(reps) + 1)
        with quiet():
            after = speed.probe()
        rep["probe"] = (before + after) / 2.0
        before = after
        reps.append(rep)
    return reps


def _status_windows(
    reps: List[dict], value: Callable[[float, dict], float]
) -> List[List[float]]:
    """``value(latency, rep)`` of consecutive reps, pooled into windows of
    at least STATUS_WINDOW samples (a short tail joins the last window)."""
    windows: List[List[float]] = []
    current: List[float] = []
    for rep in reps:
        current += [value(x, rep) for x in rep["latencies"]]
        if len(current) >= STATUS_WINDOW:
            windows.append(current)
            current = []
    if current:
        if windows:
            windows[-1] += current
        else:
            windows.append(current)
    return windows


def _summarize(out: Outcome, reps: List[dict], rss_mb: float) -> None:
    """Fill in the end-to-end metrics every workload reports."""
    out.metrics["peak_rss_mb"] = out.raw["peak_rss_mb"] = rss_mb
    rate = [r["cells"] / r["wall"] for r in reps]
    out.raw["cells_per_s"] = median(rate)
    out.metrics["cells_per_s"] = median(
        Speed.rate_at_reference(x, r["probe"]) for x, r in zip(rate, reps)
    )
    out.raw["submit_s"] = median(r["submit"] for r in reps)
    out.metrics["submit_s"] = median(
        Speed.time_at_reference(r["submit"], r["probe"]) for r in reps
    )
    # Each window's percentile, then the median over windows: a noisy
    # spell on the host then moves one window's tail, not the run's.
    raw_windows = _status_windows(reps, lambda x, r: x)
    windows = _status_windows(
        reps, lambda x, r: Speed.time_at_reference(x, r["probe"])
    )
    for pct in (50, 95):
        name = f"status_p{pct}_ms"
        out.raw[name] = median(percentile(w, pct) for w in raw_windows) * 1e3
        out.metrics[name] = median(percentile(w, pct) for w in windows) * 1e3
    out.notes["status_windows"] = len(windows)
    out.notes["reps"] = len(reps)
    out.notes["status_samples"] = sum(len(r["latencies"]) for r in reps)
    lags = [x for r in reps for x in r.get("lags", ())]
    if lags:
        out.notes["poll_lag_p95_ms"] = percentile([x * 1e3 for x in lags], 95)
    out.notes["probe_ms"] = median(r["probe"] for r in reps) * 1e3


def _drain(runner, cells) -> dict:
    """Submit ``cells`` as one batch and wait for every record.

    A CampaignRunner caller has no status endpoint: a cell's status
    becomes visible when its record arrives, so the status latencies of
    this path are the per-cell times from submission to record.
    """
    t0 = time.perf_counter()
    stream = runner.run_sims_iter(cells)
    t_submit = time.perf_counter()
    records: list = [None] * len(cells)
    arrivals: List[float] = []
    for i, outcome in stream:
        records[i] = outcome
        arrivals.append(time.perf_counter())
    t_end = time.perf_counter()
    return {
        "cells": len(cells), "wall": t_end - t0, "submit": t_submit - t0,
        "latencies": [t - t0 for t in arrivals], "records": records,
    }


# ---------------------------------------------------------------------- #
# grid_cold                                                              #
# ---------------------------------------------------------------------- #

def grid_cold(
    seed: int, seconds: float, work: str, speed: Speed
) -> Outcome:
    """Golden suites x schedulers at two sizes through jobs=2 into fresh caches."""
    out = Outcome()
    runner = None
    cells: list = []
    golden: list = []

    def one_setup() -> float:
        nonlocal runner, cells, golden
        if runner is not None:
            runner.close()
        t0 = time.perf_counter()
        cells, golden = workloads.grid_cells(seed)
        warmup = workloads.small_dag_cells(seed, "warmup", 4)
        # Spawning the pool (forkserver + two workers) is set-up; the
        # warm-up cells share no document with the measured grid.
        runner = CampaignRunner(
            jobs=2, cache=ResultCache(_fresh(work)), failure_mode="record"
        )
        runner.run_sims(warmup)
        return time.perf_counter() - t0

    reference: list = []

    def one_rep(index: int) -> dict:
        runner.cache.close()
        runner.cache = ResultCache(_fresh(work))  # every batch starts cold
        rep = _drain(runner, cells)
        records = rep.pop("records")
        if index == 0:
            reference.extend(records)
        bad = sum(
            not isinstance(r, SimRecord) or r != ref
            for r, ref in zip(records, reference)
        )
        out.attempted += len(cells)
        out.failed += bad
        return rep

    try:
        _set_up(out, speed, one_setup)
        reps = _timed_reps(seconds, speed, one_rep)
        rss_mb = tree_peak_rss_mb(exclude=speed.pids())
    finally:
        if runner is not None:
            runner.close()

    expected = workloads.golden_expected()
    golden_bad = sum(
        not isinstance(reference[i], SimRecord)
        or reference[i].makespan != expected[suite][sched]
        for suite, sched, i in golden
    )
    inline_bad = _inline_check(cells, reference, seed, "grid")
    out.checks["golden slice reproduces tests/golden/makespans.json"] = (
        len(golden) == sum(len(v) for v in expected.values()) and golden_bad == 0
    )
    out.checks["sample byte-identical to inline execute_sim"] = inline_bad == 0
    out.failed += golden_bad + inline_bad
    _summarize(out, reps, rss_mb)
    out.notes["cells"] = len(cells)
    return out


# ---------------------------------------------------------------------- #
# sweep_warm                                                             #
# ---------------------------------------------------------------------- #

def sweep_warm(
    seed: int, seconds: float, work: str, speed: Speed
) -> Outcome:
    """An X4-shaped sweep streamed from a cache reopened from disk (all hits)."""
    out = Outcome()
    cells: list = []
    filled: list = []
    root = ""

    def one_setup() -> float:
        nonlocal cells, filled, root
        t0 = time.perf_counter()
        cells = workloads.sweep_cells(seed)
        filled = [None] * len(cells)
        root = _fresh(work)
        with CampaignRunner(
            jobs=2, cache=ResultCache(root), failure_mode="record"
        ) as runner:
            for i, outcome in runner.run_sims_iter(cells):
                filled[i] = outcome
        with ResultCache(root) as reopened:
            len(reopened)  # replays the manifest: the reopen cost
        return time.perf_counter() - t0

    _set_up(out, speed, one_setup)

    def one_rep(index: int) -> dict:
        # Reopening from disk each pass is the --resume path.
        runner = CampaignRunner(
            jobs=1, cache=ResultCache(root), failure_mode="record"
        )
        try:
            rep = _drain(runner, cells)
        finally:
            runner.close()
        records = rep.pop("records")
        bad = sum(
            not isinstance(r, SimRecord) or r != ref
            for r, ref in zip(records, filled)
        )
        out.attempted += len(cells)
        out.failed += bad
        return rep

    reps = _timed_reps(seconds, speed, one_rep)
    rss_mb = tree_peak_rss_mb(exclude=speed.pids())
    inline_bad = _inline_check(cells, filled, seed, "sweep")
    out.checks["sample byte-identical to inline execute_sim"] = inline_bad == 0
    out.failed += inline_bad
    _summarize(out, reps, rss_mb)
    out.notes["cells"] = len(cells)
    return out


# ---------------------------------------------------------------------- #
# service_drain                                                          #
# ---------------------------------------------------------------------- #

def service_drain(
    seed: int, seconds: float, work: str, speed: Speed
) -> Outcome:
    """Fresh small-DAG campaigns over HTTP, drained by one worker process."""
    out = Outcome()
    svc = None

    def one_setup() -> float:
        nonlocal svc
        if svc is not None:
            svc.stop()
        t0 = time.perf_counter()
        svc = Service(_fresh(work))
        svc.start()
        return time.perf_counter() - t0

    def quiet() -> ContextManager:
        # The keep-alive worker polls the store between campaigns; it
        # and the server are paused while a probe measures host speed.
        return svc.paused() if svc is not None else contextlib.nullcontext()

    campaigns: List[tuple] = []

    def one_rep(index: int) -> dict:
        jobs = workloads.service_campaign(seed, index)
        body = json.dumps(submission_to_wire(f"bench-{index}", jobs)).encode()
        t0 = time.perf_counter()
        status, reply = request(svc.port, "/api/campaigns", body)
        t_submit = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"submission refused: {status} {reply}")
        cid = reply["campaign"]["id"]
        campaigns.append((cid, jobs))
        poller = OpenLoopPoller(
            lambda: request(svc.port, f"/api/campaigns/{cid}")[1], POLL_HZ,
            done=lambda body: body["campaign"]["done"],
        )
        with poller:
            if not poller.join(CAMPAIGN_TIMEOUT_S):
                raise RuntimeError(
                    f"campaign {cid} did not drain within {CAMPAIGN_TIMEOUT_S:.0f} s"
                )
        t_end = poller.finished_at
        out.attempted += len(jobs)
        return {
            "cells": len(jobs), "wall": t_end - t0, "submit": t_submit - t0,
            "latencies": poller.latencies, "lags": poller.lags,
        }

    try:
        _set_up(out, speed, one_setup, quiet)
        count = max(MIN_REPS, round(seconds / SERVICE_CAMPAIGN_S))
        reps = _timed_reps(seconds, speed, one_rep, count, quiet)
        rss_mb = tree_peak_rss_mb(exclude=speed.pids())
    finally:
        if svc is not None:
            svc.stop()

    # Every cell must end ``done`` with a record equal to what the inline
    # CampaignRunner produces for the same cell.
    rng = random.Random(f"service:{seed}")
    rows = []
    with JobStore(svc.store_path) as store:
        for cid, jobs in campaigns:
            by_key = {row["key"]: row for row in store.cells(cid, with_result=True)}
            rows += [(job, by_key.get(cache_key(job), {})) for job in jobs]
    not_done = sum(row.get("state") != "done" for _job, row in rows)
    sample = rng.sample(rows, min(SAMPLE, len(rows)))
    with CampaignRunner(jobs=1) as runner:
        inline = runner.run_sims([job for job, _row in sample])
    runner_bad = sum(
        _canonical(row.get("result") or {}) != _canonical(rec.to_dict())
        for (_job, row), rec in zip(sample, inline)
    )
    sample_results = [row.get("result") or {} for _job, row in sample]
    inline_bad = _inline_check(
        [job for job, _row in sample], sample_results, seed, "service"
    )
    out.checks["every cell ends done"] = not_done == 0
    out.checks["records equal CampaignRunner records"] = runner_bad == 0
    out.checks["sample byte-identical to inline execute_sim"] = inline_bad == 0
    out.failed += not_done + runner_bad + inline_bad
    _summarize(out, reps, rss_mb)
    out.notes["cells"] = workloads.SERVICE_CELLS_PER_CAMPAIGN
    return out


WORKLOADS = {
    "grid_cold": grid_cold,
    "sweep_warm": sweep_warm,
    "service_drain": service_drain,
}
