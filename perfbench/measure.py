"""Measurement helpers: reference-speed probe, quantiles, peak RSS, polling.

Host speed on a shared machine drifts by 20-30 % within seconds, which
swamps a 10 % regression.  Every timed repetition is therefore bracketed
by probes of a fixed pure-Python reference loop (benchmark code, not the
program) run at once in two helper processes, one per CPU the workloads
keep busy.  Time metrics are reported *at reference speed*: a raw time
is multiplied by ``REFERENCE_S / probe`` and a raw rate by
``probe / REFERENCE_S``, where ``probe`` is the mean reference-loop time
of the probes taken just before and just after the repetition.  Probes
run while the system under test is idle: the caller probes between
batches and pauses any process that would keep working meanwhile (the
service's polling worker).  Raw values are printed next
to the reported ones.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

#: Nominal duration of one reference loop: the machine speed every
#: reported time metric is scaled to.
REFERENCE_S = 0.080
PROBE_ITERATIONS = 40_000
#: Concurrent reference loops per probe (the workloads' busy processes).
PROBE_PROCESSES = 2
#: Untimed loops a fresh helper runs first: its first few loops run up
#: to twice as slow while the allocator grows its arenas.
PROBE_WARMUP = 6


def reference_loop() -> int:
    """Fixed dict/list/json work whose duration tracks host speed."""
    table: Dict[int, int] = {}
    out: List[str] = []
    for i in range(PROBE_ITERATIONS):
        table[i % 977] = table.get(i % 613, 0) + i
        out.append(json.dumps([i, i * 0.5]))
    return len(out)


def _probe_helper(conn) -> None:
    """Helper process: time one reference loop per request until None."""
    if conn.recv() is None:
        return
    for _ in range(PROBE_WARMUP):
        reference_loop()
    conn.send(0.0)
    while conn.recv() is not None:
        t0 = time.perf_counter()
        reference_loop()
        conn.send(time.perf_counter() - t0)


class Speed:
    """Reference-speed probes from helper processes, and the scaling they imply."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        for _ in range(PROBE_PROCESSES):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_probe_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._warm = False

    def warm_up(self) -> None:
        """Let every helper run its untimed warm-up loops (idempotent)."""
        if not self._warm:
            for conn in self._conns:
                conn.send(True)
            for conn in self._conns:
                conn.recv()
            self._warm = True

    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def probe(self) -> float:
        """Mean time of one reference loop run at once in every helper."""
        self.warm_up()
        for conn in self._conns:
            conn.send(True)
        elapsed = statistics.mean(conn.recv() for conn in self._conns)
        self.probes.append(elapsed)
        return elapsed

    def close(self) -> None:
        for conn in self._conns:
            conn.send(None)
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def time_at_reference(raw_s: float, probe_s: float) -> float:
        return raw_s * REFERENCE_S / probe_s

    @staticmethod
    def rate_at_reference(raw_rate: float, probe_s: float) -> float:
        return raw_rate * probe_s / REFERENCE_S


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles`` cut points)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children_by_parent() -> Dict[int, List[int]]:
    """Live pids grouped by parent pid."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent`` (none where /proc is missing)."""
    if not os.path.isdir("/proc"):
        return []
    return _children_by_parent().get(parent, [])


def _descendants(root: int) -> List[int]:
    """Live descendant pids of ``root``, from each process's parent pid."""
    children = _children_by_parent()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        for child in children.get(pid, []):
            out.append(child)
            todo.append(child)
    return out


def tree_peak_rss_mb(exclude: Iterable[int] = ()) -> float:
    """Sum of the peak resident sets of this process and its descendants.

    Each process contributes its own high-water mark, so pages shared
    after a fork count once per process.  ``exclude`` drops processes of
    the benchmark itself (and their children).  Call it before children
    exit.
    """
    pid = os.getpid()
    if not os.path.isdir(f"/proc/{pid}"):
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return usage / 1024.0
    skip = set(exclude)
    for other in list(skip):
        skip.update(_descendants(other))
    pids = [pid] + [p for p in _descendants(pid) if p not in skip]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


class OpenLoopPoller:
    """Calls ``query`` on a fixed schedule from a background thread.

    Query ``k`` is due at ``start + k / rate_hz`` whatever happened to
    earlier ones, so a slow answer delays later queries and the delay
    counts in their latency: each latency is measured from the moment
    the query was due, and ``lags`` records how late it was sent.
    ``done(result)`` returning True ends the loop (the latency of that
    final query is kept).
    """

    def __init__(
        self,
        query: Callable[[], object],
        rate_hz: float,
        done: Optional[Callable[[object], bool]] = None,
    ) -> None:
        self.query = query
        self.period = 1.0 / rate_hz
        self.done = done
        self.latencies: List[float] = []
        self.lags: List[float] = []
        self.finished_at: Optional[float] = None
        self.error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        start = time.perf_counter()
        k = 0
        try:
            while not self._stop.is_set():
                due = start + k * self.period
                wait = due - time.perf_counter()
                if wait > 0 and self._stop.wait(wait):
                    return
                sent = time.perf_counter()
                result = self.query()
                end = time.perf_counter()
                self.latencies.append(end - due)
                self.lags.append(sent - due)
                k += 1
                if self.done is not None and self.done(result):
                    self.finished_at = end
                    return
        except Exception as exc:  # surfaced by join(); the run then fails
            self.error = exc

    def __enter__(self) -> "OpenLoopPoller":
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for ``done``; False on timeout (the poller is then stopped)."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            self.stop()
            return False
        if self.error is not None:
            raise self.error
        return True

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def __exit__(self, *exc_info) -> None:
        self.stop()
