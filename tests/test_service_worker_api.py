"""Service worker end-to-end and the JSON API over a live server."""

from __future__ import annotations

import json
import shutil
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments.common import make_job, preset_spec
from repro.runner import CampaignRunner, ResultCache
from repro.runner.hashing import cache_key
from repro.service import JobStore
from repro.service.api import build_server
from repro.service.store import (
    CACHED,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
)
from repro.service.wire import submission_to_wire
from repro.service.worker import ServiceWorker
from repro.cli import validate_runner_args
from repro.workflows.generators import montage

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _jobs(n=6, seed=23, prefix="wsvc"):
    wf = montage(size=10, seed=seed)
    return [
        make_job(wf, CLUSTER, scheduler="heft", seed=seed + i, noise_cv=0.1,
                 label=f"{prefix}:{i}")
        for i in range(n)
    ]


def _failing_job(seed=23, label="wsvc:poison"):
    """A cell that raises inside the worker (unknown RunConfig field)."""
    return make_job(
        montage(size=10, seed=seed), CLUSTER, scheduler="heft",
        seed=seed, bogus_config_field=1, label=label,
    )


def _worker(store, tmp_path, worker_id, cache="cache", **kwargs):
    runner = CampaignRunner(
        jobs=1, cache=ResultCache(str(tmp_path / cache)),
        failure_mode="record", max_retries=kwargs.pop("max_retries", 1),
        retry_failed=kwargs.pop("retry_failed", False),
    )
    return runner, ServiceWorker(store, runner, worker_id=worker_id, **kwargs)


# --------------------------------------------------------------------- #
# worker end-to-end                                                     #
# --------------------------------------------------------------------- #

def test_worker_drains_store_with_byte_identical_records(tmp_path):
    """Service execution is the inline campaign path, byte for byte."""
    jobs = _jobs(6)
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("e2e", jobs)
    runner, worker = _worker(store, tmp_path, "w1", batch=4, ttl=8)
    with runner:
        stats = worker.run(max_polls=40)
    assert stats.done == 6 and stats.halted is False
    assert store.drained()

    with CampaignRunner(jobs=1) as inline:
        reference = inline.run_sims(_jobs(6))
    for job, record in zip(jobs, reference):
        stored = store.cell(cid, cache_key(job))["result"]
        assert (
            json.dumps(stored, sort_keys=True)
            == json.dumps(record.to_dict(), sort_keys=True)
        )
    store.close()


def test_resubmission_resolves_from_the_shared_cache(tmp_path):
    jobs = _jobs(5)
    store = JobStore(str(tmp_path / "store.db"))
    store.submit("first", jobs)
    runner, worker = _worker(store, tmp_path, "w1")
    with runner:
        worker.run(max_polls=40)

    cid2 = store.submit("again", jobs)
    runner2, worker2 = _worker(store, tmp_path, "w2")
    with runner2:
        stats2 = worker2.run(max_polls=40)
    assert stats2.cached == 5 and stats2.done == 0
    assert store.counts(cid2)[CACHED] == 5
    assert runner2.cache.stats.hits >= 5  # the shared-cache payoff
    store.close()


def test_two_workers_share_one_store_without_overlap(tmp_path):
    """The e2e two-worker test: separate connections, disjoint work."""
    path = str(tmp_path / "store.db")
    seed_store = JobStore(path)
    cid = seed_store.submit("pair", _jobs(10))
    seed_store.close()

    stats_by_worker = {}
    errors = []

    def drive(worker_id: str) -> None:
        store = JobStore(path)
        runner, worker = _worker(
            store, tmp_path, worker_id, batch=2, ttl=30,
        )
        try:
            with runner:
                stats_by_worker[worker_id] = worker.run(max_polls=200)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            store.close()

    threads = [
        threading.Thread(target=drive, args=(f"w{i}",)) for i in (1, 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []

    check = JobStore(path)
    counts = check.counts(cid)
    assert counts[DONE] + counts[CACHED] == 10
    assert check.drained()
    finished = sum(
        s.done + s.cached for s in stats_by_worker.values()
    )
    assert finished == 10  # each cell finished by exactly one worker
    check.close()


def test_threaded_workers_never_share_a_cluster(tmp_path, monkeypatch):
    """Two in-process workers on two threads drain cells of one planning
    key.  No cluster serves two runs at once, and every stored record is
    byte-identical to the inline campaign's."""
    import time

    from repro.core.orchestrator import Orchestrator

    jobs = _jobs(10)
    with CampaignRunner(jobs=1) as inline:
        reference = inline.run_sims(_jobs(10))

    real_run = Orchestrator.run
    lock = threading.Lock()
    busy = set()
    shared = []

    def exclusive_run(self, workflow, cluster, **kwargs):
        with lock:
            if id(cluster) in busy:
                shared.append(id(cluster))
            busy.add(id(cluster))
        try:
            time.sleep(0.01)  # hold the cluster so the two threads overlap
            return real_run(self, workflow, cluster, **kwargs)
        finally:
            with lock:
                busy.discard(id(cluster))

    monkeypatch.setattr(Orchestrator, "run", exclusive_run)
    path = str(tmp_path / "store.db")
    seed_store = JobStore(path)
    cid = seed_store.submit("threads", jobs)
    seed_store.close()
    errors = []

    def drive(worker_id: str) -> None:
        store = JobStore(path)
        runner, worker = _worker(
            store, tmp_path, worker_id, cache=f"cache-{worker_id}",
            batch=1, ttl=30,
        )
        try:
            with runner:
                worker.run(max_polls=200)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            store.close()

    threads = [
        threading.Thread(target=drive, args=(f"w{i}",)) for i in (1, 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == [] and shared == []

    check = JobStore(path)
    assert check.counts(cid)[DONE] == 10
    for job, record in zip(jobs, reference):
        stored = check.cell(cid, cache_key(job))["result"]
        assert (
            json.dumps(stored, sort_keys=True)
            == json.dumps(record.to_dict(), sort_keys=True)
        )
    check.close()


def test_dead_workers_cells_are_recovered_by_a_live_worker(tmp_path):
    """A lease that stops heartbeating is reclaimed and re-executed."""
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("recover", _jobs(4))
    # the "dead" worker: leases two cells, then never comes back
    dead = store.lease("w-dead", 2, ttl=3)
    store.mark_running(dead.token)

    runner, worker = _worker(store, tmp_path, "w-live", batch=4, ttl=8)
    with runner:
        stats = worker.run(max_polls=60)
    assert store.drained()
    assert stats.reclaimed == 2  # the live worker's polls reclaimed them
    assert store.counts(cid)[DONE] == 4
    for cell in store.cells(cid):
        assert cell["state"] == DONE
    store.close()


def test_failure_states_split_failed_from_quarantined(tmp_path, monkeypatch):
    """First-attempt permanent failures land `failed`; retried ones
    that exhaust their rounds land `quarantined` — PR 7's classification
    surfaced as store states."""
    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("verdicts", [_failing_job()] + _jobs(2))
    runner, worker = _worker(store, tmp_path, "w1", max_retries=1)
    with runner:
        stats = worker.run(max_polls=40)
    assert stats.failed == 1 and stats.done == 2
    failed = store.cells(cid, state=FAILED, with_result=True)
    assert len(failed) == 1
    assert failed[0]["result"]["kind"].startswith("repro.cell-failure/")
    store.close()

    # retryable (transient) failures that exhaust the retry budget
    # → quarantined, the retry loop's give-up verdict
    store2 = JobStore(str(tmp_path / "store2.db"))
    cid2 = store2.submit("transient", _jobs(2, seed=31, prefix="tq"))
    monkeypatch.setenv(
        "REPRO_FAIL_INJECT", json.dumps({"rate": 1.0, "seed": 3})
    )
    runner2, worker2 = _worker(
        store2, tmp_path, "w2", cache="cache2", max_retries=0,
    )
    with runner2:
        stats2 = worker2.run(max_polls=40)
    assert stats2.quarantined == 2
    counts = store2.counts(cid2)
    assert counts[QUARANTINED] == 2
    store2.close()


def test_worker_retry_failed_reruns_a_cached_failure(tmp_path, monkeypatch):
    """--retry-failed re-simulates a cached failure, as the inline runner does."""
    jobs = _jobs(3, seed=41, prefix="rf")
    monkeypatch.setenv("REPRO_FAIL_INJECT", json.dumps(
        {"rate": 0.0, "seed": 1, "poison": [jobs[1].label]}
    ))
    with CampaignRunner(
        jobs=1, cache=ResultCache(str(tmp_path / "cache")),
        failure_mode="record",
    ) as seeding:
        seeding.run_sims(jobs)
    assert seeding.failed == 1
    monkeypatch.delenv("REPRO_FAIL_INJECT")
    shutil.copytree(tmp_path / "cache", tmp_path / "inline-cache")

    store = JobStore(str(tmp_path / "store.db"))
    cid = store.submit("retry", jobs)
    runner, worker = _worker(store, tmp_path, "w1", retry_failed=True)
    with runner:
        stats = worker.run(max_polls=40)
    assert (stats.done, stats.cached) == (1, 2)
    assert runner.simulated == 1
    retried = store.cell(cid, cache_key(jobs[1]))
    assert retried["state"] == DONE

    with CampaignRunner(
        jobs=1, cache=ResultCache(str(tmp_path / "inline-cache")),
        failure_mode="record", retry_failed=True,
    ) as inline:
        reference = inline.run_sims(jobs)
    assert inline.simulated == 1
    assert (
        json.dumps(retried["result"], sort_keys=True)
        == json.dumps(reference[1].to_dict(), sort_keys=True)
    )
    store.close()


def test_worker_rejects_raise_mode_runners(tmp_path):
    store = JobStore(str(tmp_path / "store.db"))
    with pytest.raises(ValueError, match="record"):
        ServiceWorker(store, CampaignRunner(jobs=1, failure_mode="raise"))
    store.close()


# --------------------------------------------------------------------- #
# the JSON API                                                          #
# --------------------------------------------------------------------- #

@pytest.fixture()
def served(tmp_path):
    store = JobStore(str(tmp_path / "store.db"))
    server = build_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield store, server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    store.close()


def _call(port, path, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_keep_alive_replies_are_not_delayed(served, monkeypatch):
    """Sequential requests on one keep-alive connection answer promptly
    (a header/body write split met by Nagle + delayed ACK adds ~40 ms).
    The accepted socket has Nagle disabled, and the median reply is far
    below that stall."""
    import http.client
    import socket
    import statistics
    import time

    from repro.service.api import ServiceHandler

    nodelay = []
    real_setup = ServiceHandler.setup

    def recording_setup(self):
        real_setup(self)
        nodelay.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    monkeypatch.setattr(ServiceHandler, "setup", recording_setup)
    _store, port = served
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        latencies = []
        for _ in range(50):
            t0 = time.perf_counter()
            conn.request("GET", "/api/campaigns")
            resp = conn.getresponse()
            body = resp.read()
            latencies.append(time.perf_counter() - t0)
            assert resp.status == 200 and json.loads(body)["ok"] is True
    finally:
        conn.close()
    assert len(nodelay) == 1 and nodelay[0] != 0  # one connection, no Nagle
    assert statistics.median(latencies) < 0.020


def test_api_submit_query_and_errors(served, tmp_path):
    store, port = served
    status, body = _call(port, "/api/ping")
    assert status == 200 and body["ok"] is True

    jobs = _jobs(3)
    status, body = _call(
        port, "/api/campaigns", submission_to_wire("api", jobs)
    )
    assert status == 200
    cid = body["campaign"]["id"]
    assert body["campaign"]["counts"][QUEUED] == 3

    status, body = _call(port, "/api/campaigns")
    assert status == 200 and [c["id"] for c in body["campaigns"]] == [cid]

    status, body = _call(port, f"/api/campaigns/{cid}/cells?state=queued")
    assert status == 200 and len(body["cells"]) == 3
    key = body["cells"][0]["key"]
    status, body = _call(port, f"/api/campaigns/{cid}/cells/{key}")
    assert status == 200 and body["cell"]["key"] == key

    # the error contract: structured JSON, never a traceback page
    assert _call(port, "/api/campaigns/nope")[0] == 404
    assert _call(port, f"/api/campaigns/{cid}/cells/nope")[0] == 404
    assert _call(port, "/api/nope")[0] == 404
    status, body = _call(port, "/api/campaigns", {"schema": "wrong"})
    assert status == 400 and "schema" in body["error"]

    status, body = _call(port, "/api/metrics")
    assert status == 200 and body["counts"][QUEUED] == 3
    status, body = _call(port, "/api/store")
    assert status == 200 and len(body["dump"]["cells"]) == 3


def test_api_campaign_completes_via_worker(served, tmp_path):
    store, port = served
    jobs = _jobs(4, seed=29, prefix="api-run")
    _call(port, "/api/campaigns", submission_to_wire("run", jobs))
    runner, worker = _worker(store, tmp_path, "w1")
    with runner:
        worker.run(max_polls=40)
    status, body = _call(port, "/api/campaigns")
    campaign = body["campaigns"][0]
    assert campaign["done"] is True and campaign["counts"][DONE] == 4
    cell_key = cache_key(jobs[0])
    status, body = _call(
        port, f"/api/campaigns/{campaign['id']}/cells/{cell_key}"
    )
    result = body["cell"]["result"]
    assert "makespan" in result and "kind" not in result  # a SimRecord


def test_api_drain_refuses_submissions_then_stop_shuts_down(tmp_path):
    store = JobStore(str(tmp_path / "store.db"))
    server = build_server(store, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = _call(port, "/api/drain", {})
        assert status == 200 and body["draining"] is True
        status, _ = _call(
            port, "/api/campaigns", submission_to_wire("late", _jobs(1))
        )
        assert status == 503
        status, body = _call(port, "/api/stop", {})
        assert status == 200 and body["stopping"] is True
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        server.server_close()
        store.close()


# --------------------------------------------------------------------- #
# up-front CLI flag validation (shared by campaign/exp/worker/serve)    #
# --------------------------------------------------------------------- #

class _Args:
    def __init__(self, **kw):
        self.__dict__.update(kw)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(command="campaign", resume=True, cache_dir=None), "cache-dir"),
    (dict(command="campaign", resume=True, cache_dir="c", no_cache=True),
     "cache-dir"),
    (dict(command="exp", no_cache=True, cache_dir=None), "no-cache"),
    (dict(command="worker", cache_dir=None), "cache-dir"),
])
def test_validate_runner_args_rejects_bad_combinations(kwargs, fragment):
    problem = validate_runner_args(_Args(**kwargs))
    assert problem is not None and fragment in problem


@pytest.mark.parametrize("kwargs", [
    dict(command="campaign", resume=True, cache_dir="c"),
    dict(command="campaign"),
    dict(command="worker", cache_dir="c", store="s.db"),
    dict(command="serve", store="s.db"),
    dict(command="run"),
])
def test_validate_runner_args_accepts_good_combinations(kwargs):
    assert validate_runner_args(_Args(**kwargs)) is None
