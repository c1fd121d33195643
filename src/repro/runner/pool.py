"""The streaming process-pool campaign runner with memoization.

One core decides what happens to a simulation cell:
:meth:`CampaignRunner.stream` takes the jobs with their cache keys,
applies the hit policy, dedupes waiters, dispatches the misses, retries
and quarantines, writes and syncs the cache, and yields
``(index, outcome, recalled)``.  It has three consumers:

* :meth:`~CampaignRunner.run_sims_iter` hashes the jobs and streams
  ``(index, outcome)`` in completion order; :meth:`~CampaignRunner.run_sims`
  collects that stream into a list in submission order.
* :meth:`~CampaignRunner.run_sims_ordered`, the one ordered wrapper,
  re-sequences it through a bounded reorder buffer, and
  :meth:`~CampaignRunner.run_batches` admits batches of it under the
  health gate with a feed-ahead runway.
* The service worker (:mod:`repro.service.worker`) calls the core with
  the store's cell keys and maps ``recalled`` to the ``cached`` state.

Properties the test layer pins down:

* **Determinism** — every cell is executed from its data description via
  the same construction path (see :mod:`repro.runner.jobs`), so
  ``jobs=1`` and ``jobs=N`` produce identical records.
* **Memoization** — with a cache attached, completed cells are stored
  under their content hash; a warm rerun only simulates new cells.
  Duplicate cells *within* one batch are simulated once and fanned back
  to every requesting index.  Hit resolution is one batched
  :meth:`~repro.runner.cache.ResultCache.get_many` per batch.
* **Streaming** — misses are dispatched when the core starts, before
  the first outcome is asked for; outcomes stream out as workers finish
  (``imap_unordered`` pipelined dispatch), so cache puts and downstream
  aggregation overlap simulation.
* **Fault tolerance** — workers return structured
  :class:`~repro.runner.record.CellFailure` records instead of raising
  (see :mod:`repro.runner.jobs`).  Transient failures are retried in
  bounded, deterministic rounds; cells that exhaust their retries land
  in the :attr:`quarantine` (and, in ``record`` mode, in the cache,
  content-addressed like successes).  A :class:`HealthTracker` folds
  every outcome into the campaign health model
  (:mod:`repro.runner.health`).

Failure modes: ``failure_mode="raise"`` (the default) re-raises the
first quarantined failure as :class:`CampaignCellError` — the historic
contract experiment code relies on — while still leaving the pool
reusable afterward.  ``failure_mode="record"`` streams
:class:`CellFailure` outcomes to the caller like records, the shape
unattended campaigns and service workers need.

Retry scheduling is **bit-deterministic**: whether a failure retries
depends only on its category and attempt count, and attempt ``k+1`` of
a cell dispatches in retry round ``k`` — after the current round's
remaining work, behind anything already queued — so backoff is measured
in queued work, never in wall-clock reads.

The worker pool is **persistent**: lazily spawned on the first parallel
batch and reused across batches for the runner's lifetime, so a campaign
of many small batches pays the worker start-up cost once, not per batch.
``CampaignRunner`` is a context manager; call :meth:`close` (or leave
the ``with`` block) to release the workers.  A leaked runner's pool is
terminated by a GC finalizer.

Start method: ``forkserver`` where available (avoids the
fork-in-threaded-process ``DeprecationWarning`` on Python 3.12+ while
keeping warm-import workers via preload), falling back to ``fork`` then
``spawn``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import weakref
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runner.cache import ResultCache
from repro.runner.hashing import cache_key
from repro.runner.health import (
    GateDecision,
    HALT,
    HealthPolicy,
    HealthTracker,
    OutcomeView,
    TRANSIENT,
    runway_admissions,
)
from repro.runner.jobs import SimJob, TimingJob, execute_payload
from repro.runner.record import (
    CellFailure,
    SimRecord,
    TimingRecord,
    is_failure_record,
)

#: What a fault-tolerant stream yields per cell.
Outcome = Union[SimRecord, CellFailure]


class CampaignCellError(RuntimeError):
    """A quarantined cell failure re-raised in ``failure_mode="raise"``.

    Carries the structured :attr:`failure`; the message embeds the
    worker's formatted chained traceback, which — unlike exception
    chains — survives the pickle boundary.
    """

    def __init__(self, failure: CellFailure) -> None:
        self.failure = failure
        super().__init__(
            f"simulation cell {failure.label or '<unlabeled>'} failed after "
            f"{failure.attempts} attempt(s): {failure.error_type}: "
            f"{failure.message}\n--- worker traceback ---\n"
            f"{failure.traceback}"
        )


class CampaignHaltedError(RuntimeError):
    """The health gate halted the campaign (see the carried decision)."""

    def __init__(self, decision: GateDecision) -> None:
        self.decision = decision
        super().__init__(
            f"campaign halted by health gate: state={decision.state} "
            f"({decision.reason})"
        )


def inject_spec_from_env() -> Optional[Dict[str, Any]]:
    """The parsed ``REPRO_FAIL_INJECT`` failure-injection spec, if any.

    A JSON object like ``{"rate": 0.05, "seed": 1, "poison": ["label"]}``.
    Parsed in the *parent* and stamped into each dispatched payload, so
    injection reaches workers under every start method (a forkserver
    started before the variable was set never sees parent env changes).
    """
    raw = os.environ.get("REPRO_FAIL_INJECT", "").strip()
    if not raw:
        return None
    try:
        spec = json.loads(raw)
        if not isinstance(spec, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise ValueError(
            "REPRO_FAIL_INJECT must be a JSON object like "
            '{"rate": 0.05, "seed": 1, "poison": ["label"]}: ' + str(exc)
        ) from exc
    return {
        "rate": float(spec.get("rate", 0.0) or 0.0),
        "seed": int(spec.get("seed", 0) or 0),
        "poison": [str(label) for label in spec.get("poison", [])],
    }


def _pool_context():
    """forkserver where available, else fork, else spawn.

    ``forkserver`` workers fork from a clean single-threaded server
    process (no stale parent threads/locks, no py3.12 fork deprecation)
    that pre-imports the simulator, so spawning stays cheap.
    """
    methods = multiprocessing.get_all_start_methods()
    method = next((m for m in ("forkserver", "fork") if m in methods), "spawn")
    ctx = multiprocessing.get_context(method)
    if method == "forkserver":
        ctx.set_forkserver_preload(["repro.core"])
    return ctx


def _execute_indexed(item: Tuple[int, dict]) -> Tuple[int, dict]:
    """Pool target: run one index-tagged payload, return the tag with it."""
    index, payload = item
    return index, execute_payload(payload)


def _shutdown_pool(pool) -> None:
    """Finalizer: stop a pool's workers immediately (results are in)."""
    pool.terminate()
    pool.join()


class CampaignRunner:
    """Runs simulation cells over a persistent pool with an optional cache."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        *,
        max_retries: int = 0,
        failure_mode: str = "raise",
        retry_failed: bool = False,
        health_policy: Optional[HealthPolicy] = None,
        on_unhealthy: str = "throttle",
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if failure_mode not in ("raise", "record"):
            raise ValueError(
                f"failure_mode must be 'raise' or 'record', got {failure_mode!r}"
            )
        self.jobs = jobs
        self.cache = cache
        #: Transient failures are retried up to this many times per cell.
        self.max_retries = max_retries
        #: ``"raise"`` re-raises quarantined failures; ``"record"``
        #: streams them to the caller (and persists them in the cache).
        self.failure_mode = failure_mode
        #: Re-run cells whose *failure* is cached instead of recalling it.
        self.retry_failed = retry_failed
        #: Cells simulated to a record (cache misses) this runner's life.
        self.simulated = 0
        #: Cells quarantined after exhausting their retries.
        self.failed = 0
        #: Retry dispatches (attempts beyond each cell's first).
        self.retried = 0
        #: Quarantined failures by cell key (poison-cell report).
        self.quarantine: Dict[str, CellFailure] = {}
        #: Campaign health over this runner's outcome stream.
        self.health = HealthTracker(health_policy, on_unhealthy=on_unhealthy)
        self._pool = None
        self._pool_finalizer = None

    # ---------------------------------------------------------------- #
    # pool lifecycle                                                   #
    # ---------------------------------------------------------------- #

    def _ensure_pool(self):
        """The persistent worker pool, spawned on first parallel batch."""
        if self._pool is None:
            ctx = _pool_context()
            self._pool = ctx.Pool(processes=self.jobs)
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def close(self) -> None:
        """Release the worker pool and flush the cache manifest."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()  # terminate + join; idempotent
            self._pool_finalizer = None
        self._pool = None
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- #
    # simulation cells                                                 #
    # ---------------------------------------------------------------- #

    def run_sims(self, sim_jobs: Sequence[SimJob]) -> List[SimRecord]:
        """Execute (or recall) every cell; records in submission order.

        In ``record`` mode the list may contain
        :class:`~repro.runner.record.CellFailure` entries for
        quarantined cells.
        """
        jobs = list(sim_jobs)
        records: List[Optional[Outcome]] = [None] * len(jobs)
        for i, record in self.run_sims_iter(jobs):
            records[i] = record
        return records  # type: ignore[return-value]

    def run_sims_iter(
        self, sim_jobs: Sequence[SimJob]
    ) -> Iterator[Tuple[int, Outcome]]:
        """Hash each cell and yield ``(index, outcome)`` from :meth:`stream`.

        Cache hits come first (in submission order); misses follow in
        *completion* order.  Use :meth:`run_sims_ordered` when the
        consumer needs submission order with streaming memory behaviour.
        """
        outcomes = self._stream_jobs(sim_jobs)
        return ((i, outcome) for i, outcome, _recalled in outcomes)

    def _stream_jobs(
        self, sim_jobs: Sequence[SimJob]
    ) -> Iterator[Tuple[int, Outcome, bool]]:
        """:meth:`stream` over jobs hashed here: the inline entry."""
        jobs = list(sim_jobs)
        return self.stream(jobs, [cache_key(job) for job in jobs])

    def stream(
        self, jobs: Sequence[SimJob], keys: Sequence[str]
    ) -> Iterator[Tuple[int, Outcome, bool]]:
        """Yield ``(index, outcome, recalled)`` for cells with known keys.

        ``keys[i]`` must be ``cache_key(jobs[i])``.  Dispatch is
        **eager**: the misses are in the pool when this returns, not
        when the iterator is first advanced — that is what gives
        :meth:`run_batches` real feed-ahead lead time.  ``recalled``
        marks an outcome read from the cache rather than executed.

        Transient worker failures retry in deterministic rounds (at most
        :attr:`max_retries` extra attempts per cell); exhausted cells
        are quarantined and either re-raised (``raise`` mode) or yielded
        as :class:`CellFailure` and cached (``record`` mode), so a
        resumed campaign recalls instead of re-failing them.

        The cache manifest is synced when the batch completes *and* on
        the error path, so every finished cell survives a mid-batch
        crash (the checkpoint/resume contract).  On error or early
        ``close()`` the in-flight pool iterator is drained, so the pool
        stays reusable for the next batch.
        """
        core = self._core(jobs, keys)
        next(core)  # runs up to the dispatch of the misses
        return core  # type: ignore[return-value]

    def _core(
        self, jobs: Sequence[SimJob], keys: Sequence[str]
    ) -> Iterator[Optional[Tuple[int, Outcome, bool]]]:
        """The streaming core behind :meth:`stream` (primed there).

        The hit policy: a cached failure resolves its cell only in
        ``record`` mode and without :attr:`retry_failed` (raise-mode
        runs never wrote one; ``retry_failed`` asks for another shot);
        otherwise the cell re-runs.
        """
        hits = self.cache.get_many(keys) if self.cache is not None else {}
        recall_failures = self.failure_mode == "record" and not self.retry_failed
        recalled: List[Tuple[int, dict]] = []
        #: every submission index waiting on each still-missing key
        waiters: Dict[str, List[int]] = {}
        to_run: List[int] = []
        for i, key in enumerate(keys):
            entry = hits.get(key)
            if entry is not None and (
                recall_failures or not is_failure_record(entry)
            ):
                recalled.append((i, entry))
            elif key in waiters:
                waiters[key].append(i)
            else:
                waiters[key] = [i]
                to_run.append(i)

        inject = inject_spec_from_env()
        attempts: Dict[int, int] = {}
        stream, pooled = self._submit([
            (i, self._payload_for(jobs[i], keys[i], 1, inject)) for i in to_run
        ])
        try:
            yield None
            for i, entry in recalled:
                if is_failure_record(entry):
                    failure = CellFailure.from_dict(entry)
                    # A previous run quarantined this cell; recall the
                    # verdict without re-simulating (and without feeding
                    # historical failures into this run's health).
                    self.quarantine.setdefault(keys[i], failure)
                    yield i, failure, True
                else:
                    yield i, SimRecord.from_dict(entry), True
            while True:
                retry_next: List[int] = []
                for first_index, output in stream:
                    key = keys[first_index]
                    att = attempts.get(first_index, 1)
                    if is_failure_record(output):
                        failure = CellFailure.from_dict(output)
                        if failure.category == TRANSIENT and att <= self.max_retries:
                            retry_next.append(first_index)
                            self.health.observe(OutcomeView(
                                ok=False, category=failure.category,
                                error_type=failure.error_type, retried=True,
                            ))
                            self._gate_check()
                            continue
                        self.failed += 1
                        self.quarantine[key] = failure
                        self.health.observe(OutcomeView(
                            ok=False, category=failure.category,
                            error_type=failure.error_type, retried=att > 1,
                        ))
                        if self.failure_mode == "raise":
                            raise CampaignCellError(failure)
                        if self.cache is not None:
                            self.cache.put(key, failure.to_dict())
                        for waiter in waiters[key]:
                            yield waiter, failure, False
                    else:
                        self.simulated += 1
                        if self.cache is not None:
                            self.cache.put(key, output)
                        record = SimRecord.from_dict(output)
                        self.health.observe(OutcomeView(
                            ok=True, retried=att > 1,
                            sim_success=record.success,
                        ))
                        for waiter in waiters[key]:
                            yield waiter, record, False
                    self._gate_check()
                if not retry_next:
                    return
                # Deterministic backoff: attempt k+1 dispatches in retry
                # round k, after this round's remaining work and behind
                # anything already queued — spacing measured in queued
                # work, never in wall-clock reads.
                round_items = []
                for i in retry_next:
                    att = attempts.get(i, 1) + 1
                    attempts[i] = att
                    round_items.append(
                        (i, self._payload_for(jobs[i], keys[i], att, inject))
                    )
                self.retried += len(round_items)
                self._dispose(stream, pooled)
                stream, pooled = self._submit(round_items)
        finally:
            self._dispose(stream, pooled)
            if self.cache is not None:
                self.cache.sync()

    def _payload_for(
        self,
        job: SimJob,
        key: str,
        attempt: int,
        inject: Optional[Dict[str, Any]],
    ) -> dict:
        """A dispatch payload with the out-of-band runner-policy keys.

        ``attempt``/``cell_key``/``inject`` ride outside the hashed job
        fields: they are retry/injection policy, not cell content, so
        they can never move a cell to a different cache entry.
        """
        payload = job.payload()
        payload["cell_key"] = key
        payload["attempt"] = attempt
        if inject:
            payload["inject"] = inject
        return payload

    def _gate_check(self) -> None:
        """Periodic mid-stream health check; raises when the gate halts."""
        decision = self.health.maybe_decide(context="stream")
        if decision is not None and decision.action == HALT:
            raise CampaignHaltedError(decision)

    def run_sims_ordered(
        self, sim_jobs: Sequence[SimJob]
    ) -> Iterator[Tuple[int, Outcome]]:
        """Stream outcomes in submission order.

        A reorder buffer holds results that complete ahead of the next
        unyielded index; its size is bounded by the pool's pipelining
        skew (roughly ``jobs x chunksize``) plus any retry rounds in
        flight, not by the campaign size.  The inner iterator is closed
        on every exit path — error, ``GeneratorExit``, completion — so
        an abandoned ordered stream never strands the reorder buffer or
        the pool's in-flight iterator.
        """
        inner = self._stream_jobs(sim_jobs)
        reorder: Dict[int, Outcome] = {}
        next_index = 0
        try:
            for i, record, _recalled in inner:
                reorder[i] = record
                while next_index in reorder:
                    yield next_index, reorder.pop(next_index)
                    next_index += 1
        finally:
            reorder.clear()
            inner.close()

    # ---------------------------------------------------------------- #
    # health-gated batch admission (the feed-ahead runway)             #
    # ---------------------------------------------------------------- #

    def run_batches(
        self,
        batches: Iterable[Sequence[SimJob]],
        *,
        runway: int = 2,
    ) -> Iterator[Tuple[int, int, Outcome]]:
        """Run a stream of batches under health-gated, feed-ahead admission.

        Yields ``(batch_index, index_in_batch, outcome)``; outcomes of
        batch *b* stream while batches *b+1..b+runway-1* are already
        dispatched (the §3 runway controller: keep ``runway`` batches of
        lead time instead of reacting on batch completion).  Before
        every admission the single policy gate decides from campaign
        health: ``admit`` keeps the runway full, ``throttle`` shrinks it
        to one batch, ``halt`` stops admissions and raises
        :class:`CampaignHaltedError` — every decision is emitted as a
        ``campaign.gate`` observe event.

        Unattended campaigns run this on a ``record``-mode runner, which
        treats per-cell failure as data.  On halt, batches already
        admitted are drained and their results discarded, so the pool
        is clean for the next call; cells completed before the halt are
        already in the cache.

        Cells duplicated *across* in-flight batches may simulate twice
        (a batch is admitted before the previous one has written its
        results); within a batch they still dedupe.
        """
        pending: Deque[Tuple[int, Iterator[Tuple[int, Outcome, bool]]]] = deque()
        batches_iter = iter(batches)
        batch_no = 0
        exhausted = False
        halted: Optional[GateDecision] = None
        try:
            while True:
                while not exhausted and halted is None:
                    decision = self.health.decide(
                        context="admission", batch=batch_no,
                        in_flight=len(pending),
                    )
                    if decision.action == HALT:
                        halted = decision
                        break
                    if runway_admissions(len(pending), decision, runway) <= 0:
                        break
                    try:
                        batch = next(batches_iter)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append((batch_no, self._stream_jobs(batch)))
                    batch_no += 1
                if not pending:
                    break
                bno, gen = pending.popleft()
                try:
                    for i, outcome, _recalled in gen:
                        yield bno, i, outcome
                finally:
                    gen.close()
        finally:
            while pending:
                _bno, gen = pending.popleft()
                gen.close()
        if halted is not None:
            raise CampaignHaltedError(halted)

    def quarantine_report(self) -> List[str]:
        """Diagnostic lines for every quarantined cell, label-sorted."""
        return [
            failure.summary()
            for failure in sorted(
                self.quarantine.values(), key=lambda f: (f.label, f.error_type)
            )
        ]

    # ---------------------------------------------------------------- #
    # timing cells (never cached)                                      #
    # ---------------------------------------------------------------- #

    def run_timings(self, timing_jobs: Sequence[TimingJob]) -> List[TimingRecord]:
        """Execute scheduling-overhead measurements; never cached.

        A failing cell raises (its label in the message); the stream is
        disposed either way, so the pool stays reusable.
        """
        items = [(i, job.payload()) for i, job in enumerate(timing_jobs)]
        records: List[Optional[TimingRecord]] = [None] * len(items)
        stream, pooled = self._submit(items)
        try:
            for i, output in stream:
                records[i] = TimingRecord.from_dict(output)
        finally:
            self._dispose(stream, pooled)
        return records  # type: ignore[return-value]

    # ---------------------------------------------------------------- #
    # execution backends                                               #
    # ---------------------------------------------------------------- #

    def _chunksize(self, n: int) -> int:
        """Two chunks per worker, capped so huge batches still pipeline."""
        return max(1, min(32, n // (self.jobs * 2)))

    def _submit(
        self, items: List[Tuple[int, dict]]
    ) -> Tuple[Iterator[Tuple[int, dict]], bool]:
        """Dispatch index-tagged payloads; ``(iterator, pooled)``.

        The pooled path enqueues the whole item list into the pool
        *now* (``imap_unordered`` submission is eager) and returns its
        completion-order iterator; the serial path returns a lazy
        generator so an aborted batch stops executing cells.
        """
        if self.jobs <= 1 or len(items) <= 1:
            return (_execute_indexed(item) for item in items), False
        pool = self._ensure_pool()
        return pool.imap_unordered(
            _execute_indexed, items, chunksize=self._chunksize(len(items))
        ), True

    @staticmethod
    def _dispose(
        stream: Optional[Iterator[Tuple[int, dict]]], pooled: bool
    ) -> None:
        """Leave no stream half-consumed.

        Pool iterators are *drained* — abandoning ``imap_unordered``
        mid-batch would leave its result collector filling from a
        detached thread; consuming the remainder (discarding outputs)
        returns the pool to a clean, reusable state.  Serial generators
        are closed so no further cells execute.
        """
        if stream is None:
            return
        if not pooled:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            return
        while True:
            try:
                next(stream)
            except StopIteration:
                return
            except Exception:
                continue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.cache.root if self.cache else "off"
        alive = "up" if self._pool is not None else "idle"
        return f"<CampaignRunner jobs={self.jobs} pool={alive} cache={where}>"
