"""The traced run: per-layer self time from spans recorded around layer calls.

Spans come from the benchmark's own wrappers around the program's public
callables (``hooks.LAYERS``) and from :class:`TimingProxy` objects handed
to the program in place of its ``ResultCache`` and ``JobStore``.  No
program file is edited, so the breakdown stays valid while later
changes rework the internals; a wrapped name that disappears is reported
as missing.

One traced run drives every workload's cells through the path named in
README.md, each time as an untraced warm-up pass, then untraced, traced
and untraced again (:func:`_compare`):

* ``grid_cold`` cells inline (``CampaignRunner(jobs=1)``), plus a warm-up
  and a timed untraced ``jobs=2`` pass for pool efficiency;
* the ``sweep_warm`` sweep reopened and streamed from a cache filled
  first;
* ``service_drain`` cells submitted over HTTP to an in-process server and
  drained by an in-process ``ServiceWorker`` while a poller queries
  campaign status.

The traced records must be byte-identical to the untraced ones.  Spans
are kept in memory and written at the end as the per-layer JSON and a
Chrome/Perfetto trace under ``perfbench/_out/``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import hooks
import workloads
from measure import OpenLoopPoller

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "_out")
SERVICE_TRACE_CELLS = 200
POLL_HZ = 100.0
#: JobStore methods that open a write transaction.
STORE_WRITES = frozenset((
    "submit", "tick", "reclaim_expired", "lease", "mark_running",
    "heartbeat", "release", "complete",
))

#: name -> (unit, what it measures); the per-layer metrics of the run.
METRICS = {
    "decode.us_per_cell": ("us", "workflow_from_dict + specs.build self time per grid cell"),
    "decode.calls": ("count", "top-level decode calls over the grid (exact)"),
    "plan.context_us_per_cell": ("us", "SchedulingContext construction per grid cell"),
    "plan.schedule_us_per_cell": ("us", "scheduler.schedule per grid cell"),
    "plan.us_per_task": ("us", "planning time per workflow task"),
    "plan.share": ("ratio", "planning share of grid cell time"),
    "execute.us_per_cell": ("us", "WorkflowExecutor.run per grid cell"),
    "execute.events": ("count", "simulation events over the grid (exact)"),
    "execute.events_per_s": ("1/s", "events per second of WorkflowExecutor.run self time"),
    "execute.share": ("ratio", "execution share of grid cell time"),
    "account.us_per_cell": ("us", "account_energy per grid cell"),
    "record.us_per_cell": ("us", "SimRecord.from_run per grid cell"),
    "hashing.us_per_cell": ("us", "cache_key per sweep cell"),
    "cache.open_s": ("s", "ResultCache reopen + manifest replay of the sweep cache"),
    "cache.get_many_us_per_key": ("us", "ResultCache.get_many per sweep key"),
    "cache.hit_ratio": ("ratio", "sweep lookups served from the cache"),
    "cache.put_us": ("us", "mean ResultCache.put (grid and service)"),
    "cache.sync_ms": ("ms", "mean ResultCache.sync (grid and service)"),
    "cache.bytes_written": ("bytes", "cache bytes on disk after grid and service (exact)"),
    "pool.spawn_s": ("s", "CampaignRunner(jobs=2) start up to its first batch"),
    "pool.parallel_efficiency": ("ratio", "inline grid time / (2 x jobs=2 grid wall)"),
    "runner.hit_path_us_per_cell": ("us", "untraced warm sweep pass per cell"),
    "store.submit_us_per_cell": ("us", "JobStore.submit per submitted cell"),
    "store.lease_ms": ("ms", "mean JobStore.lease"),
    "store.complete_us": ("us", "mean JobStore.complete"),
    "store.heartbeat_us": ("us", "mean JobStore.heartbeat"),
    "store.txns_per_cell": ("count", "JobStore write calls per cell (exact)"),
    "store.campaign_status_ms": ("ms", "mean JobStore.campaign under status polls"),
    "wire.parse_us_per_cell": ("us", "parse_submission per submitted cell"),
    "wire.submit_bytes_per_cell": ("bytes", "HTTP submission body per cell (exact)"),
    "worker.overhead_us_per_cell": ("us", "worker wall per cell minus inline simulation"),
    "worker.polls_per_lease": ("ratio", "worker store polls per lease"),
    "trace.overhead_grid": ("ratio", "traced / untraced wall - 1, grid cells"),
    "trace.overhead_sweep": ("ratio", "traced / untraced wall - 1, sweep pass"),
    "trace.overhead_service": ("ratio", "traced / untraced wall - 1, service drain"),
}

#: Metric -> the wrapped layers it needs (reported missing without them).
NEEDS = {
    "decode.us_per_cell": ("decode",), "decode.calls": ("decode",),
    "plan.context_us_per_cell": ("plan.context",),
    "plan.schedule_us_per_cell": ("plan.schedule",),
    "plan.us_per_task": ("plan.context", "plan.schedule"),
    "plan.share": ("plan.context", "plan.schedule", "cell"),
    "execute.us_per_cell": ("execute",), "execute.events": ("execute",),
    "execute.events_per_s": ("execute",), "execute.share": ("execute", "cell"),
    "account.us_per_cell": ("account",), "record.us_per_cell": ("record",),
    "hashing.us_per_cell": ("hashing",),
    "wire.parse_us_per_cell": ("wire.parse",),
}


class Tracer:
    """In-memory spans: name, start, end, parent, cell id, thread track."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.phase = "setup"
        #: [sid, name, track, start, end, parent sid, cell, attrs]
        self.spans: List[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _track(self) -> str:
        thread = threading.current_thread()
        if thread is threading.main_thread():
            label = "main"
        elif "process_request_thread" in thread.name:
            label = "server-handler"  # one short-lived thread per request
        else:
            label = thread.name
        return f"{self.phase}:{label}"

    def open(self, name: str, cell: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [
            next(self._ids), name, self._track(),
            time.perf_counter() - self.t0, None,
            parent[0] if parent else None,
            cell if cell is not None else (parent[6] if parent else None),
            {},
        ]
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter() - self.t0
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        span = self.open(name, cell)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(
        self, name: str, fn: Callable,
        cell_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per call; re-entrant calls record none."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span = tracer.open(name, cell_of(args) if cell_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper


class TimingProxy:
    """Stands in for ``target``; each public method call is a ``<layer>.<method>`` span."""

    def __init__(self, target: Any, layer: str, tracer: Tracer) -> None:
        self._target = target
        self._layer = layer
        self._tracer = tracer
        self._wrapped: Dict[str, Callable] = {}

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        wrapped = self._wrapped.get(name)
        if wrapped is None:
            cell_of = (lambda a: a[1]) if name == "complete" else (
                (lambda a: a[0]) if name == "put" else None
            )
            wrapped = self._tracer.wrap(f"{self._layer}.{name}", value, cell_of)
            self._wrapped[name] = wrapped
        return wrapped

    def __len__(self) -> int:
        return len(self._target)


def _payload_cell(args) -> Optional[str]:
    payload = args[0] if args else {}
    return payload.get("label") or payload.get("cell_key")


def _events(span: list, result: Any) -> None:
    span[7]["events"] = int(getattr(result, "events", 0))


@contextlib.contextmanager
def instrumented(tracer: Tracer, layers, res: dict):
    """Install span wrappers for ``layers`` while the block runs.

    Names that no longer resolve go to ``res["missing"]``; every layer
    with at least one installed wrapper goes to ``res["installed"]``.
    """
    targets, missing = hooks.resolve(layers)
    res["missing"].update(missing)
    res["installed"].update(target.layer for target in targets)
    for target in targets:
        cell_of = _payload_cell if target.layer == "cell" else None
        on_result = _events if target.layer == "execute" else None
        target.install(tracer.wrap(target.layer, target.original, cell_of, on_result))
    try:
        yield
    finally:
        for target in reversed(targets):
            target.restore()


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[5] is not None and span[4] is not None:
            child_time[span[5]] = child_time.get(span[5], 0.0) + span[4] - span[3]
    return {
        span[0]: (span[4] - span[3]) - child_time.get(span[0], 0.0)
        for span in spans if span[4] is not None
    }


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span[4] is None:
            continue
        row = table.setdefault(span[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[4] - span[3]
        row["self_s"] += own[span[0]]
    return table


def _dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _canonical(records) -> List[str]:
    return [json.dumps(r if isinstance(r, dict) else r.to_dict(), sort_keys=True)
            for r in records]


def _run_cells(runner, cells) -> list:
    out: list = [None] * len(cells)
    for i, outcome in runner.run_sims_iter(cells):
        out[i] = outcome
    return out


def _compare(plain: Callable[[], tuple], traced: Callable[[], tuple]) -> tuple:
    """``(plain result, plain s, traced result, traced s)`` from warm passes.

    Each pass returns ``(result, seconds)``.  An untraced warm-up pass
    runs first, so neither compared pass pays the one-off costs (lazy
    imports, cold memos, a cold page cache).  The traced pass is then
    bracketed by two untraced passes, and ``plain s`` is their mean,
    which cancels a drift in host speed.
    """
    plain()
    result, before_s = plain()
    traced_result, traced_s = traced()
    _again, after_s = plain()
    return result, (before_s + after_s) / 2.0, traced_result, traced_s


# ---------------------------------------------------------------------- #
# phases                                                                 #
# ---------------------------------------------------------------------- #

def _grid_phase(tracer: Tracer, seed: int, work: str, res: dict) -> None:
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner

    cells, _golden = workloads.grid_cells(seed)
    tasks = sum(len(cell.workflow["tasks"]) for cell in cells)

    def inline(cache) -> tuple:
        t0 = time.perf_counter()
        with CampaignRunner(jobs=1, cache=cache, failure_mode="record") as runner:
            records = _run_cells(runner, cells)
        return records, time.perf_counter() - t0

    def plain_pass() -> tuple:
        return inline(ResultCache(tempfile.mkdtemp(dir=work)))

    root = tempfile.mkdtemp(dir=work)
    cache = TimingProxy(ResultCache(root), "cache", tracer)
    layers = ("cell", "decode", "plan.context", "plan.schedule", "execute",
              "account", "record")

    def traced_pass() -> tuple:
        tracer.phase = "grid_cold"
        with instrumented(tracer, layers, res):
            with tracer.span("grid.batch"):
                return inline(cache)

    plain, inline_s, traced, traced_s = _compare(plain_pass, traced_pass)

    t0 = time.perf_counter()
    with CampaignRunner(
        jobs=2, cache=ResultCache(tempfile.mkdtemp(dir=work)), failure_mode="record"
    ) as runner:
        runner.run_sims(workloads.small_dag_cells(seed, "warmup", 4))
        spawn_s = time.perf_counter() - t0
        # One untimed pass warms the workers as the inline warm-up did.
        for _pass in range(2):
            runner.cache.close()
            runner.cache = ResultCache(tempfile.mkdtemp(dir=work))
            t0 = time.perf_counter()
            pooled = _run_cells(runner, cells)
            pool_s = time.perf_counter() - t0

    res["cells"] += len(cells)
    res["checks"]["grid: traced records byte-identical to untraced"] = (
        _canonical(traced) == _canonical(plain)
    )
    res["checks"]["grid: jobs=2 records byte-identical to inline"] = (
        _canonical(pooled) == _canonical(plain)
    )
    res["failed"] += sum(not r.ok for r in plain)
    spans = [s for s in tracer.spans if s[2].startswith("grid_cold:")]
    table = layer_table(spans)
    n = len(cells)

    def self_us(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) * 1e6

    cell_total = table.get("cell", {}).get("total_s", 0.0)
    plan_s = (self_us("plan.context") + self_us("plan.schedule")) / 1e6
    events = sum(s[7].get("events", 0) for s in spans if s[1] == "execute")
    m = res["metrics"]
    m["decode.us_per_cell"] = self_us("decode") / n
    m["decode.calls"] = table.get("decode", {}).get("calls", 0)
    m["plan.context_us_per_cell"] = self_us("plan.context") / n
    m["plan.schedule_us_per_cell"] = self_us("plan.schedule") / n
    m["plan.us_per_task"] = plan_s * 1e6 / tasks
    m["plan.share"] = plan_s / cell_total if cell_total else 0.0
    m["execute.us_per_cell"] = self_us("execute") / n
    m["execute.events"] = events
    m["execute.events_per_s"] = events / (self_us("execute") / 1e6) if events else 0.0
    m["execute.share"] = self_us("execute") / 1e6 / cell_total if cell_total else 0.0
    m["account.us_per_cell"] = self_us("account") / n
    m["record.us_per_cell"] = self_us("record") / n
    m["pool.spawn_s"] = spawn_s
    m["pool.parallel_efficiency"] = inline_s / (2 * pool_s)
    m["trace.overhead_grid"] = traced_s / inline_s - 1.0
    cache.close()
    res["cache_bytes"] += _dir_bytes(root)
    res["tables"]["grid_cold"] = table


def _sweep_phase(tracer: Tracer, seed: int, work: str, res: dict) -> None:
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner

    cells = workloads.sweep_cells(seed)
    root = tempfile.mkdtemp(dir=work)
    with CampaignRunner(jobs=2, cache=ResultCache(root), failure_mode="record") as runner:
        filled = _run_cells(runner, cells)

    def warm_pass(open_cache: Callable) -> tuple:
        """Reopen the cache from disk and stream the sweep (all hits)."""
        t0 = time.perf_counter()
        cache = open_cache()
        with CampaignRunner(jobs=1, cache=cache, failure_mode="record") as runner:
            records = _run_cells(runner, cells)
        return records, time.perf_counter() - t0

    reopened = ResultCache(root)

    def traced_open() -> TimingProxy:
        with tracer.span("cache.open"):
            len(reopened)  # replays the manifest
        return TimingProxy(reopened, "cache", tracer)

    def traced_pass() -> tuple:
        tracer.phase = "sweep_warm"
        with instrumented(tracer, ("hashing",), res):
            with tracer.span("sweep.pass"):
                return warm_pass(traced_open)

    plain, plain_s, traced, traced_s = _compare(
        lambda: warm_pass(lambda: ResultCache(root)), traced_pass
    )

    res["cells"] += len(cells)
    res["checks"]["sweep: traced records byte-identical to untraced"] = (
        _canonical(traced) == _canonical(plain) == _canonical(filled)
    )
    res["failed"] += sum(not r.ok for r in plain)
    spans = [s for s in tracer.spans if s[2].startswith("sweep_warm:")]
    table = layer_table(spans)
    n = len(cells)
    stats = reopened.stats
    m = res["metrics"]
    m["hashing.us_per_cell"] = table.get("hashing", {}).get("self_s", 0.0) * 1e6 / n
    m["cache.open_s"] = table["cache.open"]["total_s"]
    m["cache.get_many_us_per_key"] = (
        table.get("cache.get_many", {}).get("self_s", 0.0) * 1e6 / n
    )
    m["cache.hit_ratio"] = stats.hits / n
    m["runner.hit_path_us_per_cell"] = plain_s * 1e6 / n
    m["trace.overhead_sweep"] = traced_s / plain_s - 1.0
    res["tables"]["sweep_warm"] = table


def _drain_in_process(tracer: Optional[Tracer], jobs, body: bytes, work: str) -> dict:
    """Submit over HTTP to an in-process server; drain with an in-process worker."""
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CampaignRunner
    from repro.service.api import build_server
    from repro.service.store import JobStore
    from repro.service.worker import ServiceWorker
    from service import request

    root = tempfile.mkdtemp(dir=work)
    store = JobStore(os.path.join(root, "store.db"))
    cache = ResultCache(os.path.join(root, "cache"))
    store_view = TimingProxy(store, "store", tracer) if tracer else store
    cache_view = TimingProxy(cache, "cache", tracer) if tracer else cache
    server = build_server(store_view)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        name="server", daemon=True,
    )
    thread.start()
    try:
        port = server.server_address[1]
        status, reply = request(port, "/api/campaigns", body)
        if status != 200:
            raise RuntimeError(f"submission refused: {status} {reply}")
        cid = reply["campaign"]["id"]
        poller = OpenLoopPoller(
            lambda: request(port, f"/api/campaigns/{cid}"), POLL_HZ
        )
        runner = CampaignRunner(jobs=1, cache=cache_view, failure_mode="record")
        worker = ServiceWorker(store_view, runner, worker_id="traced-worker")
        with poller:
            t0 = time.perf_counter()
            with runner:
                stats = worker.run()
            wall = time.perf_counter() - t0
        rows = {row["key"]: row for row in store.cells(cid, with_result=True)}
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        store.close()
    return {"wall": wall, "stats": stats, "rows": rows, "cache_root": cache.root}


def _service_phase(tracer: Tracer, seed: int, work: str, res: dict) -> None:
    from repro.runner.hashing import cache_key
    from repro.runner.pool import CampaignRunner
    from repro.service.wire import submission_to_wire

    jobs = workloads.small_dag_cells(seed, "service-trace", SERVICE_TRACE_CELLS)
    keys = [cache_key(job) for job in jobs]
    body = json.dumps(submission_to_wire("traced", jobs)).encode()
    n = len(jobs)

    with CampaignRunner(jobs=1) as runner:
        runner.run_sims(jobs)  # warm-up, as for the drains below
        t0 = time.perf_counter()
        inline = runner.run_sims(jobs)
        inline_s = time.perf_counter() - t0

    def drain(traced_by: Optional[Tracer]) -> tuple:
        run = _drain_in_process(traced_by, jobs, body, work)
        return run, run["wall"]

    def traced_pass() -> tuple:
        tracer.phase = "service_drain"
        with instrumented(tracer, ("cell", "wire.parse"), res):
            return drain(tracer)

    plain, plain_s, traced, traced_s = _compare(lambda: drain(None), traced_pass)

    def results(run: dict) -> List[str]:
        return _canonical(run["rows"].get(k, {}).get("result") or {} for k in keys)

    expected = _canonical(inline)
    res["cells"] += n
    res["checks"]["service: records equal CampaignRunner records"] = (
        results(plain) == expected
    )
    res["checks"]["service: traced records byte-identical to untraced"] = (
        results(traced) == results(plain)
    )
    res["failed"] += sum(
        run["rows"].get(k, {}).get("state") != "done"
        for run in (plain, traced) for k in keys
    )
    spans = [s for s in tracer.spans if s[2].startswith("service_drain:")]
    table = layer_table(spans)

    def mean_s(name: str) -> float:
        row = table.get(name)
        return row["total_s"] / row["calls"] if row and row["calls"] else 0.0

    stats = traced["stats"]
    m = res["metrics"]
    m["store.submit_us_per_cell"] = table.get("store.submit", {}).get("total_s", 0.0) * 1e6 / n
    m["store.lease_ms"] = mean_s("store.lease") * 1e3
    m["store.complete_us"] = mean_s("store.complete") * 1e6
    m["store.heartbeat_us"] = mean_s("store.heartbeat") * 1e6
    m["store.txns_per_cell"] = sum(
        row["calls"] for name, row in table.items()
        if name.startswith("store.") and name[len("store."):] in STORE_WRITES
    ) / n
    m["store.campaign_status_ms"] = mean_s("store.campaign") * 1e3
    m["wire.parse_us_per_cell"] = table.get("wire.parse", {}).get("self_s", 0.0) * 1e6 / n
    m["wire.submit_bytes_per_cell"] = len(body) / n
    m["worker.overhead_us_per_cell"] = (plain_s - inline_s) * 1e6 / n
    m["worker.polls_per_lease"] = stats.polls / max(stats.leases, 1)
    m["trace.overhead_service"] = traced_s / plain_s - 1.0
    res["cache_bytes"] += _dir_bytes(traced["cache_root"])
    res["tables"]["service_drain"] = table


def _write_outputs(tracer: Tracer, res: dict, workload: str, seed: int) -> List[str]:
    from repro.observe.export import chrome_trace
    from repro.observe.spans import Span

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    layers_path = os.path.join(OUT_DIR, f"layers-{stem}.json")
    with open(layers_path, "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": res["metrics"], "missing": res["missing"],
            "self_time": res["tables"], "checks": res["checks"],
        }, fh, indent=2, sort_keys=True)
    spans = [
        Span(sid=s[0], name=s[1], track=s[2], start=s[3], end=s[4],
             parent=s[5], attrs={"cell": s[6], **s[7]})
        for s in tracer.spans if s[4] is not None
    ]
    trace_path = os.path.join(OUT_DIR, f"trace-{stem}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, process_name="perfbench"), fh)
    return [layers_path, trace_path]


def traced_run(workload: str, seed: int, work: str) -> dict:
    """Run every traced phase; the benchmark's result object (per-layer metrics)."""
    tracer = Tracer()
    res: Dict[str, Any] = {
        "metrics": {}, "missing": {}, "installed": set(), "checks": {},
        "tables": {}, "cells": 0, "failed": 0, "cache_bytes": 0,
    }
    _grid_phase(tracer, seed, work, res)
    _sweep_phase(tracer, seed, work, res)
    _service_phase(tracer, seed, work, res)
    res["metrics"]["cache.bytes_written"] = res["cache_bytes"]
    for span, metric, scale in (("cache.put", "cache.put_us", 1e6),
                                ("cache.sync", "cache.sync_ms", 1e3)):
        # Cache writes happen on grid_cold and service_drain.
        rows = [table[span] for phase, table in res["tables"].items()
                if phase != "sweep_warm" and span in table]
        calls = sum(row["calls"] for row in rows)
        res["metrics"][metric] = (
            sum(row["total_s"] for row in rows) / calls * scale if calls else 0.0
        )
    # A metric whose layer has no installed wrapper is not measured.
    unmeasured = {
        name: "no wrapper for " + ", ".join(sorted(set(needs) - res["installed"]))
        for name, needs in NEEDS.items() if set(needs) - res["installed"]
    }
    files = _write_outputs(tracer, res, workload, seed)

    print(f"perfbench traced run (workload {workload}, seed {seed}): "
          f"{res['cells']} cells, {len(tracer.spans)} spans")
    for phase, table in res["tables"].items():
        print(f"  self time by layer, {phase}:")
        total = sum(row["self_s"] for row in table.values()) or 1.0
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:24s} {row['calls']:7d} calls {row['self_s'] * 1e3:10.2f} ms"
                  f" {100 * row['self_s'] / total:6.1f} %")
    for name, (unit, _what) in METRICS.items():
        if name in unmeasured:
            print(f"  {name:30s} missing: {unmeasured[name]}")
        else:
            print(f"  {name:30s} {res['metrics'][name]:14.4f} {unit}")
    for path, reason in sorted(res["missing"].items()):
        print(f"  missing span {path}: {reason}")
    for name, ok in res["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print("  wrote " + ", ".join(os.path.relpath(p) for p in files))
    return {
        "correct": res["failed"] == 0 and all(res["checks"].values()),
        "attempted": res["cells"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": res["metrics"][name], "unit": unit}
            for name, (unit, _what) in METRICS.items() if name not in unmeasured
        },
    }
