"""JobStore state machine, lease protocol, and contention guarantees."""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.experiments.common import make_job, preset_spec
from repro.service import (
    ALLOWED_TRANSITIONS,
    CELL_STATES,
    IllegalTransition,
    JobStore,
    StoreError,
    TERMINAL_STATES,
    can_transition,
)
from repro.service.store import CACHED, DONE, LEASED, QUEUED, RUNNING
from repro.workflows.generators import montage

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _jobs(n=6, seed=11, prefix="svc"):
    wf = montage(size=10, seed=seed)
    return [
        make_job(wf, CLUSTER, scheduler="heft", seed=seed + i, noise_cv=0.1,
                 label=f"{prefix}:{i}")
        for i in range(n)
    ]


@pytest.fixture()
def store(tmp_path):
    s = JobStore(str(tmp_path / "store.db"))
    yield s
    s.close()


# --------------------------------------------------------------------- #
# the transition relation                                               #
# --------------------------------------------------------------------- #

def test_transition_relation_is_exactly_the_documented_one():
    """Property sweep: every (from, to) pair answers per the table."""
    for frm, to in itertools.product(CELL_STATES, CELL_STATES):
        assert can_transition(frm, to) == (to in ALLOWED_TRANSITIONS[frm])


def test_terminal_states_have_no_outgoing_edges():
    for state in TERMINAL_STATES:
        assert ALLOWED_TRANSITIONS[state] == ()
        for to in CELL_STATES:
            assert not can_transition(state, to)


def test_every_state_is_reachable_from_queued():
    """The forward relation covers the whole lifecycle."""
    reachable, frontier = set(), {QUEUED}
    while frontier:
        state = frontier.pop()
        reachable.add(state)
        frontier.update(set(ALLOWED_TRANSITIONS[state]) - reachable)
    assert reachable == set(CELL_STATES)


# --------------------------------------------------------------------- #
# submission                                                            #
# --------------------------------------------------------------------- #

def test_submit_queues_each_distinct_cell_once(store):
    jobs = _jobs(4)
    cid = store.submit("dup", jobs + jobs[:2])  # two duplicates
    status = store.campaign(cid)
    assert status["cells"] == 4
    assert store.counts(cid)[QUEUED] == 4


def test_submit_rejects_empty_campaigns(store):
    with pytest.raises(StoreError):
        store.submit("empty", [])


def test_campaign_ids_are_deterministic(tmp_path):
    """Same submissions against fresh stores mint identical ids."""
    ids = []
    for name in ("a", "b"):
        s = JobStore(str(tmp_path / f"{name}.db"))
        ids.append(s.submit("det", _jobs(3)))
        s.close()
    assert ids[0] == ids[1]


def test_submit_cost_does_not_grow_with_the_store(store):
    """submit reads the last global_seq once per campaign, not per cell,
    so its statements do not depend on what the store already holds."""
    statements = []

    def traced_submit(name, jobs):
        statements.clear()
        store._conn.set_trace_callback(statements.append)
        try:
            cid = store.submit(name, jobs)
        finally:
            store._conn.set_trace_callback(None)
        scans = [s for s in statements if "MAX(global_seq)" in s]
        return cid, len(statements), len(scans)

    first, n_first, scans = traced_submit("a", _jobs(5, seed=11, prefix="a"))
    assert scans == 1
    bulk, _n, scans = traced_submit("bulk", _jobs(60, seed=40, prefix="bulk"))
    assert scans == 1
    later, n_later, _scans = traced_submit("b", _jobs(5, seed=300, prefix="b"))
    assert n_later == n_first
    # global_seq numbers every cell in submission order, across campaigns.
    seqs = [
        [cell["seq"] for cell in store.cells(cid)]
        for cid in (first, bulk, later)
    ]
    assert seqs == [
        list(range(1, 6)), list(range(6, 66)), list(range(66, 71)),
    ]


# --------------------------------------------------------------------- #
# lease lifecycle                                                       #
# --------------------------------------------------------------------- #

def test_lease_claims_in_submission_order_up_to_limit(store):
    jobs = _jobs(5)
    store.submit("order", jobs)
    lease = store.lease("w1", 3, ttl=5)
    assert len(lease) == 3
    assert [c.label for c in lease.cells] == ["svc:0", "svc:1", "svc:2"]
    assert all(c.attempts == 1 for c in lease.cells)
    counts = store.counts()
    assert counts[QUEUED] == 2 and counts[LEASED] == 3
    assert store.lease("w2", 5, ttl=5).cells[0].label == "svc:3"


def test_lease_on_empty_queue_returns_none(store):
    assert store.lease("w1", 4, ttl=5) is None


def test_complete_requires_running_and_live_token(store):
    cid = store.submit("life", _jobs(2))
    lease = store.lease("w1", 2, ttl=5)
    cell = lease.cells[0]

    # leased (not yet running) cells cannot complete, even with the token
    with pytest.raises(IllegalTransition):
        store.complete(cid, cell.key, lease.token, DONE, {"v": 1})

    assert store.mark_running(lease.token) == 2
    # a non-terminal target state is rejected outright
    with pytest.raises(IllegalTransition):
        store.complete(cid, cell.key, lease.token, RUNNING, {})
    # a token the store never granted is a stale write: dropped, not an error
    assert store.complete(cid, cell.key, "w9.999", DONE, {"v": 1}) is False
    assert store.cell(cid, cell.key)["state"] == RUNNING

    assert store.complete(cid, cell.key, lease.token, DONE, {"v": 1}) is True
    got = store.cell(cid, cell.key)
    assert got["state"] == DONE and got["result"] == {"v": 1}
    # a terminal cell clears its token, so a duplicate completion is a
    # stale write (dropped), never a second verdict
    assert store.complete(cid, cell.key, lease.token, CACHED, {}) is False
    assert store.cell(cid, cell.key)["state"] == DONE


def test_completing_an_unknown_cell_is_an_error(store):
    cid = store.submit("unknown", _jobs(1))
    with pytest.raises(StoreError):
        store.complete(cid, "no-such-key", "w1.1", DONE, {})


def test_release_returns_unfinished_cells_to_the_queue(store):
    cid = store.submit("release", _jobs(3))
    lease = store.lease("w1", 3, ttl=5)
    store.mark_running(lease.token)
    cell = lease.cells[0]
    store.complete(cid, cell.key, lease.token, DONE, {"v": 1})
    assert store.release(lease.token) == 2  # the two unfinished ones
    counts = store.counts()
    assert counts[QUEUED] == 2 and counts[DONE] == 1
    for row in store.cells(cid, state=QUEUED):
        assert row["lease_token"] is None and row["worker"] is None


# --------------------------------------------------------------------- #
# expiry and reclaim                                                    #
# --------------------------------------------------------------------- #

def test_expired_lease_requeues_exactly_once(store):
    cid = store.submit("expiry", _jobs(2))
    lease = store.lease("w1", 2, ttl=2)
    store.mark_running(lease.token)
    assert store.reclaim_expired() == []  # not expired yet
    for _ in range(3):
        store.tick()
    first = store.reclaim_expired()
    assert sorted(key for _cid, key in first) == sorted(
        c.key for c in lease.cells
    )
    # the second reclaim — or a concurrent one — finds nothing to do
    assert store.reclaim_expired() == []
    for row in store.cells(cid, state=QUEUED):
        assert row["reclaims"] == 1 and row["attempts"] == 1


def test_heartbeat_keeps_a_live_lease_alive(store):
    store.submit("hb", _jobs(1))
    lease = store.lease("w1", 1, ttl=2)
    store.mark_running(lease.token)
    for _ in range(6):
        store.tick()
        assert store.heartbeat(lease.token, 2) == 1
        assert store.reclaim_expired() == []


def test_reclaimed_lease_rejects_the_zombies_stale_token(store):
    """The SIGKILL story, minus the SIGKILL: old tokens lose."""
    cid = store.submit("zombie", _jobs(1))
    dead = store.lease("w-dead", 1, ttl=2)
    store.mark_running(dead.token)
    for _ in range(3):
        store.tick()
    assert len(store.reclaim_expired()) == 1

    live = store.lease("w-live", 1, ttl=5)
    assert live.cells[0].attempts == 2  # attempts survive the reclaim
    store.mark_running(live.token)
    key = live.cells[0].key

    # the presumed-dead worker wakes up and tries to write: discarded
    assert store.complete(cid, key, dead.token, DONE, {"who": "dead"}) is False
    assert store.complete(cid, key, live.token, DONE, {"who": "live"}) is True
    assert store.cell(cid, key)["result"] == {"who": "live"}


# --------------------------------------------------------------------- #
# contention                                                            #
# --------------------------------------------------------------------- #

def test_concurrent_lease_contention_never_double_assigns(tmp_path):
    """Workers on separate connections race; each cell has one owner."""
    path = str(tmp_path / "contended.db")
    seed_store = JobStore(path)
    seed_store.submit("contended", _jobs(24, prefix="race"))
    seed_store.close()

    claimed: list = []
    errors: list = []
    barrier = threading.Barrier(6)

    def grab(worker_no: int) -> None:
        s = JobStore(path)
        try:
            barrier.wait()
            while True:
                lease = s.lease(f"w{worker_no}", 3, ttl=50)
                if lease is None:
                    return
                claimed.append([c.key for c in lease.cells])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            s.close()

    threads = [
        threading.Thread(target=grab, args=(i,)) for i in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert errors == []
    flat = [key for batch in claimed for key in batch]
    assert len(flat) == 24, "every cell claimed"
    assert len(set(flat)) == 24, "no cell claimed twice"


# --------------------------------------------------------------------- #
# queries                                                               #
# --------------------------------------------------------------------- #

def test_status_queries_and_dump_shapes(store):
    cid = store.submit("shapes", _jobs(3))
    lease = store.lease("w1", 1, ttl=5)
    store.mark_running(lease.token)
    cell = lease.cells[0]
    store.complete(cid, cell.key, lease.token, DONE, {"v": 2})

    status = store.campaign(cid)
    assert status["counts"][DONE] == 1 and status["counts"][QUEUED] == 2
    assert status["done"] is False

    assert [c["state"] for c in store.cells(cid, state=DONE)] == [DONE]
    with pytest.raises(StoreError):
        store.cells(cid, state="bogus")
    with pytest.raises(StoreError):
        store.campaign("no-such-campaign")
    assert store.cell(cid, "no-such-key") is None

    dump = store.dump()
    assert dump["schema"].startswith("repro.service.dump/")
    assert len(dump["cells"]) == 3
    assert dump["counts"][DONE] == 1
    assert not store.drained()
