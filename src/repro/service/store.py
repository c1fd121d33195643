"""The persistent campaign job store: sqlite now, postgres-shaped always.

One database file is the control plane's source of truth: campaigns,
their cells, every cell's state, and the lease that says which worker is
currently responsible for it.  Results themselves live in the shared
content-addressed :class:`~repro.runner.cache.ResultCache`; the store
keeps a copy of each cell's *record* JSON for the status API, but
crash-resume correctness never depends on it — a cell re-executed after
a lost lease hits the cache and comes back byte-identical.

**State machine** (enforced; illegal transitions raise or reject)::

    queued ──lease──▶ leased ──mark_running──▶ running ──complete──▶ done
       ▲                │                         │                  cached
       │                │                         │                  failed
       └──── reclaim ───┴───────── reclaim ───────┘                  quarantined

``done``/``cached``/``failed``/``quarantined`` are terminal.  ``cached``
means the shared result cache already held the record (no simulation);
``failed`` is a first-attempt permanent failure; ``quarantined`` means
the worker's bounded retry loop gave up on the cell.

**Leases** are the crash-safety primitive.  A worker leases a batch and
owns those cells until it completes them, releases them, or its lease
expires.  Expiry is measured on a **logical tick clock** stored in the
database — every worker poll advances it — never on the wall clock, so
the same operation sequence always reclaims at the same point (the
determinism lint bans ambient clock reads and this module needs no
exemption).  A SIGKILLed worker simply stops heartbeating; the next
poll by any other worker advances the clock past the lease's expiry and
:meth:`JobStore.reclaim_expired` requeues its cells — exactly once,
because the requeue is a guarded state transition, not a timer.

Completion requires the **current** lease token: a zombie worker whose
lease was reclaimed (and possibly re-leased) gets ``False`` back and
its result is discarded — the cell's truth is whatever the holder of
the live lease wrote.  Attempt counts survive reclaim, so a cell that
keeps killing its workers steps toward quarantine instead of cycling
forever.

**Portability**: the schema uses TEXT/INTEGER columns, standard SQL and
single-statement guarded updates (optimistic state checks in ``WHERE``
clauses) — the shape a postgres port keeps; only the connection setup
(WAL pragmas, ``?`` placeholders) is sqlite-specific.  Concurrent
access runs in WAL mode: readers never block the writer, and writing
transactions are ``BEGIN IMMEDIATE`` so two workers leasing at once
serialize cleanly instead of deadlocking.  One :class:`JobStore` object
is safe to share across threads (handler threads of the API server): a
process-level lock serializes statements on the shared connection.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runner.hashing import cache_key, digest
from repro.runner.jobs import SimJob
from repro.service.lease import Lease, LeasedCell, lease_token
from repro.service.wire import DUMP_SCHEMA, job_to_wire

#: Cell states, in lifecycle order.
QUEUED = "queued"
LEASED = "leased"
RUNNING = "running"
DONE = "done"
CACHED = "cached"
FAILED = "failed"
QUARANTINED = "quarantined"

CELL_STATES = (QUEUED, LEASED, RUNNING, DONE, CACHED, FAILED, QUARANTINED)

#: States a completed cell can land in.
TERMINAL_STATES = (DONE, CACHED, FAILED, QUARANTINED)

#: The legal transition relation.  ``leased/running -> queued`` is the
#: lease-reclaim edge; everything else is the forward lifecycle.
ALLOWED_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    QUEUED: (LEASED,),
    LEASED: (RUNNING, QUEUED),
    RUNNING: (DONE, CACHED, FAILED, QUARANTINED, QUEUED),
    DONE: (),
    CACHED: (),
    FAILED: (),
    QUARANTINED: (),
}


def can_transition(frm: str, to: str) -> bool:
    """Whether ``frm -> to`` is a legal cell-state transition."""
    return to in ALLOWED_TRANSITIONS.get(frm, ())


class StoreError(RuntimeError):
    """A job-store operation that cannot be performed."""


class IllegalTransition(StoreError):
    """A requested cell-state transition outside the legal relation."""


#: The schema, one statement per entry.  TEXT/INTEGER only; standard SQL.
_SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS campaigns (
        id             TEXT PRIMARY KEY,
        name           TEXT NOT NULL,
        submit_seq     INTEGER NOT NULL,
        submitted_tick INTEGER NOT NULL,
        cells          INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS cells (
        campaign_id   TEXT NOT NULL,
        cell_key      TEXT NOT NULL,
        global_seq    INTEGER NOT NULL,
        state         TEXT NOT NULL,
        job           TEXT NOT NULL,
        label         TEXT NOT NULL DEFAULT '',
        attempts      INTEGER NOT NULL DEFAULT 0,
        reclaims      INTEGER NOT NULL DEFAULT 0,
        lease_token   TEXT,
        lease_expires INTEGER,
        worker_id     TEXT,
        result        TEXT,
        PRIMARY KEY (campaign_id, cell_key)
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_cells_state ON cells(state, global_seq)",
    "CREATE INDEX IF NOT EXISTS idx_cells_token ON cells(lease_token)",
)

#: Logical counters living in ``meta``.
_TICK = "tick"
_SUBMIT_SEQ = "submit_seq"
_LEASE_SEQ = "lease_seq"


class JobStore:
    """Campaign/cell rows with lease-based ownership (see module doc)."""

    def __init__(self, path: str, *, busy_timeout_s: float = 30.0) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        # One connection shared across this process's threads, serialized
        # by the lock; other processes get their own JobStore and meet
        # this one through WAL.
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            path, timeout=busy_timeout_s, check_same_thread=False,
            isolation_level=None,  # explicit BEGIN IMMEDIATE transactions
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}"
            )
            with self._txn():
                for statement in _SCHEMA_STATEMENTS:
                    self._conn.execute(statement)
                for key in (_TICK, _SUBMIT_SEQ, _LEASE_SEQ):
                    self._conn.execute(
                        "INSERT OR IGNORE INTO meta(key, value) VALUES (?, 0)",
                        (key,),
                    )

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextlib.contextmanager
    def _txn(self) -> Iterator[None]:
        """A write transaction: BEGIN IMMEDIATE, commit/rollback."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

    def _counter(self, key: str, bump: int = 0) -> int:
        """Read (and optionally advance) a logical counter.  Lock held."""
        if bump:
            self._conn.execute(
                "UPDATE meta SET value = value + ? WHERE key = ?", (bump, key)
            )
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return int(row["value"])

    # ------------------------------------------------------------------ #
    # the logical clock                                                  #
    # ------------------------------------------------------------------ #

    def now(self) -> int:
        """The current logical tick."""
        with self._lock:
            return self._counter(_TICK)

    def tick(self, n: int = 1) -> int:
        """Advance the logical clock (every worker poll does); new tick."""
        if n < 1:
            raise ValueError(f"tick step must be >= 1, got {n}")
        with self._lock, self._txn():
            return self._counter(_TICK, bump=n)

    # ------------------------------------------------------------------ #
    # submission                                                         #
    # ------------------------------------------------------------------ #

    def submit(self, name: str, jobs: Sequence[SimJob]) -> str:
        """Insert a campaign with one queued cell per distinct job.

        The cell id is the job's content hash — the *same* key the
        result cache uses — so duplicate cells within a submission
        collapse to one row, and a cell completed by any previous
        campaign resolves as ``cached`` the moment a worker leases it.
        Returns the campaign id (deterministic: submission counter plus
        a content digest, no ambient entropy).
        """
        if not jobs:
            raise StoreError("a campaign needs at least one cell")
        keyed: Dict[str, SimJob] = {}
        for job in jobs:
            keyed.setdefault(cache_key(job), job)
        with self._lock, self._txn():
            seq = self._counter(_SUBMIT_SEQ, bump=1)
            now = self._counter(_TICK)
            campaign_id = (
                f"c{seq:06d}-{digest([name, sorted(keyed)])[:8]}"
            )
            self._conn.execute(
                "INSERT INTO campaigns(id, name, submit_seq, submitted_tick,"
                " cells) VALUES (?, ?, ?, ?, ?)",
                (campaign_id, name, seq, now, len(keyed)),
            )
            # Monotone submission order across campaigns: read the
            # store's maximum once, then count up (the lock is held).
            first = self._conn.execute(
                "SELECT COALESCE(MAX(global_seq), 0) AS m FROM cells"
            ).fetchone()["m"] + 1
            self._conn.executemany(
                "INSERT INTO cells(campaign_id, cell_key, global_seq,"
                " state, job, label) VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        campaign_id, key, global_seq, QUEUED,
                        json.dumps(job_to_wire(job), sort_keys=True),
                        job.label,
                    )
                    for global_seq, (key, job) in enumerate(keyed.items(), first)
                ],
            )
        return campaign_id

    # ------------------------------------------------------------------ #
    # leasing                                                            #
    # ------------------------------------------------------------------ #

    def lease(
        self, worker_id: str, limit: int, ttl: int
    ) -> Optional[Lease]:
        """Atomically claim up to ``limit`` queued cells for ``worker_id``.

        The claim is one transaction: two workers leasing concurrently
        serialize on the write lock and the ``WHERE state = 'queued'``
        guard, so a cell can never be assigned to both.  Returns None
        when nothing is queued.  ``ttl`` is in logical ticks.
        """
        if limit < 1:
            raise ValueError(f"lease limit must be >= 1, got {limit}")
        if ttl < 1:
            raise ValueError(f"lease ttl must be >= 1 tick, got {ttl}")
        with self._lock, self._txn():
            rows = self._conn.execute(
                "SELECT campaign_id, cell_key, job, label, attempts"
                " FROM cells WHERE state = ? ORDER BY global_seq LIMIT ?",
                (QUEUED, limit),
            ).fetchall()
            if not rows:
                return None
            now = self._counter(_TICK)
            token = lease_token(worker_id, self._counter(_LEASE_SEQ, bump=1))
            expires = now + ttl
            cells = []
            for row in rows:
                claimed = self._conn.execute(
                    "UPDATE cells SET state = ?, lease_token = ?,"
                    " lease_expires = ?, worker_id = ?,"
                    " attempts = attempts + 1"
                    " WHERE campaign_id = ? AND cell_key = ? AND state = ?",
                    (
                        LEASED, token, expires, worker_id,
                        row["campaign_id"], row["cell_key"], QUEUED,
                    ),
                ).rowcount
                if claimed != 1:  # pragma: no cover - guarded by the txn
                    raise StoreError(
                        f"lease race on {row['cell_key']}; aborting claim"
                    )
                cells.append(LeasedCell(
                    campaign_id=row["campaign_id"],
                    key=row["cell_key"],
                    job=json.loads(row["job"]),
                    label=row["label"],
                    attempts=int(row["attempts"]) + 1,
                ))
            return Lease(
                token=token, expires_tick=expires, cells=tuple(cells)
            )

    def mark_running(self, token: str) -> int:
        """``leased -> running`` for every cell of the lease; count moved."""
        with self._lock, self._txn():
            return self._conn.execute(
                "UPDATE cells SET state = ? WHERE lease_token = ?"
                " AND state = ?",
                (RUNNING, token, LEASED),
            ).rowcount

    def heartbeat(self, token: str, ttl: int) -> int:
        """Extend a live lease to ``now + ttl``; cells still held.

        Workers heartbeat as results stream in, so a long batch never
        outlives its lease while the worker is alive; a dead worker
        stops, and the clock — advanced by everyone else's polls —
        walks past its expiry.
        """
        with self._lock, self._txn():
            now = self._counter(_TICK)
            return self._conn.execute(
                "UPDATE cells SET lease_expires = ? WHERE lease_token = ?"
                " AND state IN (?, ?)",
                (now + ttl, token, LEASED, RUNNING),
            ).rowcount

    def release(self, token: str) -> int:
        """Give a lease's unfinished cells back to the queue (graceful)."""
        with self._lock, self._txn():
            return self._conn.execute(
                "UPDATE cells SET state = ?, lease_token = NULL,"
                " lease_expires = NULL, worker_id = NULL"
                " WHERE lease_token = ? AND state IN (?, ?)",
                (QUEUED, token, LEASED, RUNNING),
            ).rowcount

    def reclaim_expired(self) -> List[Tuple[str, str]]:
        """Requeue every cell whose lease expired; the reclaimed keys.

        Exactly-once by construction: the requeue is a guarded state
        transition (``state IN (leased, running)``), so a second
        reclaim — or a concurrent one in another process — finds the
        rows already queued and does nothing.  Attempt counts survive,
        stepping repeat offenders toward quarantine.
        """
        with self._lock, self._txn():
            now = self._counter(_TICK)
            rows = self._conn.execute(
                "SELECT campaign_id, cell_key FROM cells"
                " WHERE state IN (?, ?) AND lease_expires <= ?"
                " ORDER BY global_seq",
                (LEASED, RUNNING, now),
            ).fetchall()
            reclaimed: List[Tuple[str, str]] = []
            for row in rows:
                moved = self._conn.execute(
                    "UPDATE cells SET state = ?, lease_token = NULL,"
                    " lease_expires = NULL, worker_id = NULL,"
                    " reclaims = reclaims + 1"
                    " WHERE campaign_id = ? AND cell_key = ?"
                    " AND state IN (?, ?) AND lease_expires <= ?",
                    (
                        QUEUED, row["campaign_id"], row["cell_key"],
                        LEASED, RUNNING, now,
                    ),
                ).rowcount
                if moved:
                    reclaimed.append((row["campaign_id"], row["cell_key"]))
            return reclaimed

    # ------------------------------------------------------------------ #
    # completion                                                         #
    # ------------------------------------------------------------------ #

    def complete(
        self,
        campaign_id: str,
        key: str,
        token: str,
        state: str,
        result: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Move a running cell to a terminal state, token-guarded.

        Returns False when ``token`` is not the cell's *current* lease —
        the zombie-writer case: the lease was reclaimed (and possibly
        re-leased) while this worker thought it still owned the cell.
        Raises :class:`IllegalTransition` when the target state is not
        terminal or the cell (under the live token) is not ``running``.
        """
        if state not in TERMINAL_STATES:
            raise IllegalTransition(
                f"completion state must be one of {TERMINAL_STATES}, "
                f"got {state!r}"
            )
        with self._lock, self._txn():
            row = self._conn.execute(
                "SELECT state, lease_token FROM cells"
                " WHERE campaign_id = ? AND cell_key = ?",
                (campaign_id, key),
            ).fetchone()
            if row is None:
                raise StoreError(f"unknown cell {campaign_id}/{key}")
            if row["lease_token"] != token or token is None:
                return False
            if not can_transition(row["state"], state):
                raise IllegalTransition(
                    f"cell {key} is {row['state']!r}; "
                    f"{row['state']!r} -> {state!r} is not legal"
                )
            self._conn.execute(
                "UPDATE cells SET state = ?, result = ?, lease_token = NULL,"
                " lease_expires = NULL"
                " WHERE campaign_id = ? AND cell_key = ?"
                " AND lease_token = ?",
                (
                    state,
                    None if result is None else json.dumps(
                        result, sort_keys=True
                    ),
                    campaign_id, key, token,
                ),
            )
            return True

    # ------------------------------------------------------------------ #
    # queries                                                            #
    # ------------------------------------------------------------------ #

    def counts(self, campaign_id: Optional[str] = None) -> Dict[str, int]:
        """Cell count per state (every state present, zeros included)."""
        with self._lock:
            if campaign_id is None:
                rows = self._conn.execute(
                    "SELECT state, COUNT(*) AS n FROM cells GROUP BY state"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT state, COUNT(*) AS n FROM cells"
                    " WHERE campaign_id = ? GROUP BY state",
                    (campaign_id,),
                ).fetchall()
        out = {state: 0 for state in CELL_STATES}
        for row in rows:
            out[row["state"]] = int(row["n"])
        return out

    def campaigns(self) -> List[Dict[str, Any]]:
        """Every campaign, submission order, with its state counts."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, name, submit_seq, submitted_tick, cells"
                " FROM campaigns ORDER BY submit_seq"
            ).fetchall()
        return [self.campaign(row["id"]) for row in rows]

    def campaign(self, campaign_id: str) -> Dict[str, Any]:
        """One campaign's status: counts, doneness, reclaim totals."""
        with self._lock:
            row = self._conn.execute(
                "SELECT id, name, submit_seq, submitted_tick, cells"
                " FROM campaigns WHERE id = ?",
                (campaign_id,),
            ).fetchone()
            if row is None:
                raise StoreError(f"unknown campaign {campaign_id!r}")
            agg = self._conn.execute(
                "SELECT COALESCE(SUM(reclaims), 0) AS reclaims,"
                " COALESCE(SUM(attempts), 0) AS attempts"
                " FROM cells WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
        counts = self.counts(campaign_id)
        terminal = sum(counts[state] for state in TERMINAL_STATES)
        return {
            "id": row["id"],
            "name": row["name"],
            "submit_seq": int(row["submit_seq"]),
            "submitted_tick": int(row["submitted_tick"]),
            "cells": int(row["cells"]),
            "counts": counts,
            "attempts": int(agg["attempts"]),
            "reclaims": int(agg["reclaims"]),
            "done": terminal == int(row["cells"]),
        }

    def cells(
        self,
        campaign_id: str,
        state: Optional[str] = None,
        with_result: bool = False,
    ) -> List[Dict[str, Any]]:
        """Cell rows of a campaign (submission order), without job docs."""
        if state is not None and state not in CELL_STATES:
            raise StoreError(
                f"unknown state {state!r}; states are {CELL_STATES}"
            )
        query = (
            "SELECT campaign_id, cell_key, global_seq, state, label,"
            " attempts, reclaims, lease_token, lease_expires, worker_id,"
            " result FROM cells WHERE campaign_id = ?"
        )
        params: Tuple[Any, ...] = (campaign_id,)
        if state is not None:
            query += " AND state = ?"
            params += (state,)
        query += " ORDER BY global_seq"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [self._cell_dict(row, with_result=with_result) for row in rows]

    def cell(self, campaign_id: str, key: str) -> Optional[Dict[str, Any]]:
        """One cell's full status (result included), or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT campaign_id, cell_key, global_seq, state, label,"
                " attempts, reclaims, lease_token, lease_expires, worker_id,"
                " result FROM cells WHERE campaign_id = ? AND cell_key = ?",
                (campaign_id, key),
            ).fetchone()
        if row is None:
            return None
        return self._cell_dict(row, with_result=True)

    @staticmethod
    def _cell_dict(row, with_result: bool) -> Dict[str, Any]:
        out = {
            "campaign": row["campaign_id"],
            "key": row["cell_key"],
            "seq": int(row["global_seq"]),
            "state": row["state"],
            "label": row["label"],
            "attempts": int(row["attempts"]),
            "reclaims": int(row["reclaims"]),
            "lease_token": row["lease_token"],
            "lease_expires": row["lease_expires"],
            "worker": row["worker_id"],
        }
        if with_result:
            out["result"] = (
                json.loads(row["result"]) if row["result"] else None
            )
        return out

    def job_for(self, campaign_id: str, key: str) -> Dict[str, Any]:
        """The stored wire document of one cell (for re-execution)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT job FROM cells"
                " WHERE campaign_id = ? AND cell_key = ?",
                (campaign_id, key),
            ).fetchone()
        if row is None:
            raise StoreError(f"unknown cell {campaign_id}/{key}")
        return json.loads(row["job"])

    def drained(self) -> bool:
        """Whether every cell in the store is terminal."""
        counts = self.counts()
        return all(
            counts[state] == 0 for state in (QUEUED, LEASED, RUNNING)
        )

    def dump(self) -> Dict[str, Any]:
        """JSON-native dump of the control state (the CI artifact).

        Cell rows come without their job documents (which dominate the
        bytes and are reproducible from the submission); results ride
        along so the artifact alone explains every verdict.
        """
        campaigns = self.campaigns()
        return {
            "schema": DUMP_SCHEMA,
            "tick": self.now(),
            "counts": self.counts(),
            "campaigns": campaigns,
            "cells": [
                cell
                for campaign in campaigns
                for cell in self.cells(campaign["id"], with_result=True)
            ],
        }
