"""The lease-based worker daemon: poll, lease, execute, complete.

A worker is a plain process holding its own :class:`JobStore` connection
(processes meet through sqlite WAL, never through shared Python state)
and a :class:`~repro.runner.pool.CampaignRunner` attached to the shared
result cache.  Its loop::

    poll:  tick the logical clock, reclaim expired leases, ask the
           health gate for admission
    lease: claim a batch of queued cells (atomic; never double-assigned)
    run:   mark the batch running and stream it through the runner's
           one core (:meth:`~repro.runner.pool.CampaignRunner.stream`)
           with the store's cell keys: the same hit policy, retry/
           quarantine classification and cache writes as an inline
           campaign — byte-identical records by construction —
           heartbeating the lease as executed outcomes land
    done:  token-guarded completion per cell; stale tokens mean the
           lease was reclaimed while we ran and our verdict is discarded

Crash-safety needs no worker cooperation: a SIGKILLed worker simply
stops heartbeating and polling, every *other* worker's polls advance
the shared logical clock past its lease expiry, and the reclaim requeues
its unfinished cells exactly once.  Cells it had already completed are
terminal in the store and present in the content-addressed cache, so
the resumed cells' records are the cached bytes, not re-rolls.

The health gate is the admission controller: each poll asks the
runner's :class:`~repro.runner.health.HealthTracker` (which has observed
every outcome this worker produced) whether to keep leasing; a ``halt``
verdict releases the current lease back to the queue and stops the
worker — a blocked campaign drains by attrition instead of grinding
through poisoned cells.

Determinism hooks for the service smoke test: ``stall_after=N`` makes
the worker write a marker file after its N-th completed cell and then
spin without heartbeating or completing — a deterministic stand-in for
"worker wedged mid-batch", giving the harness a precise, race-free
moment to SIGKILL it with leases still held.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.observe.events import emit_event
from repro.runner.health import HALT, TRANSIENT
from repro.runner.pool import CampaignHaltedError, CampaignRunner, Outcome
from repro.runner.record import CellFailure
from repro.service.store import (
    CACHED,
    DONE,
    FAILED,
    JobStore,
    Lease,
    QUARANTINED,
)
from repro.service.wire import job_from_wire

#: How long a worker sleeps between empty polls (seconds; bounded wait,
#: not a clock *read* — the lease clock is the store's logical tick).
POLL_SLEEP_S = 0.05

#: Default lease batch size and time-to-live (in logical ticks, i.e.
#: store polls by any worker).
DEFAULT_BATCH = 8
DEFAULT_TTL = 12


@dataclass
class WorkerStats:
    """What one worker did, for the exit report and the status API."""

    worker_id: str = ""
    polls: int = 0
    leases: int = 0
    cells: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    quarantined: int = 0
    stale: int = 0
    reclaimed: int = 0
    released: int = 0
    halted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "worker_id": self.worker_id,
            "polls": self.polls,
            "leases": self.leases,
            "cells": self.cells,
            "done": self.done,
            "cached": self.cached,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "stale": self.stale,
            "reclaimed": self.reclaimed,
            "released": self.released,
            "halted": self.halted,
        }
        return out


class ServiceWorker:
    """One store-polling worker (see module doc for the loop)."""

    def __init__(
        self,
        store: JobStore,
        runner: CampaignRunner,
        *,
        worker_id: Optional[str] = None,
        batch: int = DEFAULT_BATCH,
        ttl: int = DEFAULT_TTL,
        poll_sleep_s: float = POLL_SLEEP_S,
        stall_after: Optional[int] = None,
        stall_marker: Optional[str] = None,
        emit=None,
    ) -> None:
        if runner.failure_mode != "record":
            raise ValueError(
                "service workers need a runner in 'record' failure mode: "
                "per-cell failures are store rows, not exceptions"
            )
        self.store = store
        self.runner = runner
        # Worker identity only needs to be unique among live workers on
        # this store; the pid is that, with no ambient entropy.
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.batch = batch
        self.ttl = ttl
        self.poll_sleep_s = poll_sleep_s
        self.stall_after = stall_after
        self.stall_marker = stall_marker
        self._emit = emit
        self._completed = 0
        self.stats = WorkerStats(worker_id=self.worker_id)

    def _say(self, message: str) -> None:
        if self._emit is not None:
            self._emit(f"[{self.worker_id}] {message}")

    # ---------------------------------------------------------------- #
    # the poll loop                                                    #
    # ---------------------------------------------------------------- #

    def run(
        self,
        *,
        keep_alive: bool = False,
        max_polls: Optional[int] = None,
    ) -> WorkerStats:
        """Poll until the store drains (default), halts, or the bound.

        ``keep_alive=True`` turns the worker into a daemon that keeps
        polling after a drain (new submissions wake it on a later poll);
        ``max_polls`` bounds the loop either way — the harness safety
        net against a store that can never drain.
        """
        stats = self.stats
        while True:
            if max_polls is not None and stats.polls >= max_polls:
                self._say(f"poll bound {max_polls} reached; exiting")
                break
            stats.polls += 1
            self.store.tick()
            reclaimed = self.store.reclaim_expired()
            if reclaimed:
                stats.reclaimed += len(reclaimed)
                emit_event(
                    "service.reclaim", worker=self.worker_id,
                    cells=len(reclaimed),
                )
                self._say(f"reclaimed {len(reclaimed)} expired cell(s)")
            decision = self.runner.health.decide(
                context="worker-admission", worker=self.worker_id
            )
            if decision.action == HALT:
                stats.halted = True
                self._say(f"health gate halt: {decision.reason}; exiting")
                break
            lease = self.store.lease(self.worker_id, self.batch, self.ttl)
            if lease is None:
                if self.store.drained():
                    if not keep_alive:
                        self._say("store drained; exiting")
                        break
                time.sleep(self.poll_sleep_s)
                continue
            stats.leases += 1
            stats.cells += len(lease)
            emit_event(
                "service.lease", worker=self.worker_id,
                cells=len(lease), token=lease.token,
            )
            try:
                self._process_lease(lease)
            except CampaignHaltedError as exc:
                stats.released += self.store.release(lease.token)
                stats.halted = True
                self._say(f"halted mid-lease: {exc}; cells released")
                break
            finally:
                # Anything the batch did not finish goes straight back
                # to the queue instead of waiting out the lease TTL.
                stats.released += self.store.release(lease.token)
        return stats

    # ---------------------------------------------------------------- #
    # one lease                                                        #
    # ---------------------------------------------------------------- #

    def _process_lease(self, lease: Lease) -> None:
        """Execute one leased batch; every cell ends token-guarded."""
        token = lease.token
        self.store.mark_running(token)
        cells = list(lease.cells)
        jobs = [
            job_from_wire(cell.job, where=f"store cell {cell.key}")
            for cell in cells
        ]
        # The store keyed each cell by this very job's content hash at
        # submit, so the runner's core takes the keys as they are.
        with closing(
            self.runner.stream(jobs, [cell.key for cell in cells])
        ) as outcomes:
            for i, outcome, recalled in outcomes:
                cell = cells[i]
                if not recalled:
                    # Live leases never expire: the heartbeat pushes
                    # expiry out by a full TTL every time a result lands.
                    self.store.heartbeat(token, self.ttl)
                self._finish(
                    cell.campaign_id, cell.key, token,
                    self._terminal_state(outcome, recalled),
                    outcome.to_dict(),
                )

    @staticmethod
    def _terminal_state(outcome: Outcome, recalled: bool) -> str:
        """Map a streamed outcome to its store state.

        A success is ``done``, or ``cached`` when it was recalled from
        the shared cache.  Failures, recalled or not, reuse the
        :class:`CellFailure` classification unchanged: a retryable
        (transient-category) failure that still failed means the retry
        loop gave up on the cell — ``quarantined``, like any failure
        that burned more than one attempt.  A first-attempt permanent/
        infrastructure verdict is a plain ``failed``.
        """
        if not isinstance(outcome, CellFailure):
            return CACHED if recalled else DONE
        if outcome.category == TRANSIENT or outcome.attempts > 1:
            return QUARANTINED
        return FAILED

    def _finish(
        self,
        campaign_id: str,
        key: str,
        token: str,
        state: str,
        record: Dict[str, Any],
    ) -> None:
        """Token-guarded completion + stall hook + bookkeeping."""
        accepted = self.store.complete(
            campaign_id, key, token, state, result=record
        )
        stats = self.stats
        if not accepted:
            # The lease was reclaimed (worker presumed dead) while this
            # cell ran; whoever holds the live lease owns the verdict.
            stats.stale += 1
            self._say(f"stale token for {key}; verdict discarded")
            return
        if state == DONE:
            stats.done += 1
        elif state == CACHED:
            stats.cached += 1
        elif state == FAILED:
            stats.failed += 1
        else:
            stats.quarantined += 1
        self._completed += 1
        self._maybe_stall()

    def _maybe_stall(self) -> None:
        """The smoke test's deterministic crash window (see module doc)."""
        if self.stall_after is None or self._completed < self.stall_after:
            return
        if self.stall_marker:
            with open(self.stall_marker, "w", encoding="utf-8") as fh:
                fh.write(f"{self.worker_id} stalled at {self._completed}\n")
        self._say(
            f"stalling after {self._completed} cell(s); "
            "no further heartbeats"
        )
        while True:  # pragma: no cover - exited only by SIGKILL
            time.sleep(POLL_SLEEP_S)
