"""The per-worker planning memo and the context's rank/OCT memos.

A worker shares one :class:`SchedulingContext` (and the cluster it was
built on) between every cell with the same planning inputs.  That is only
sound if sharing can never change a record: the same cells must produce
byte-identical records in order, shuffled, and with the memo cleared
before every cell.  The cell set covers every golden scheduler, two
cluster specs differing in one field, estimate error with two run seeds
(the seed must be part of the key) and non-empty release times.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import orchestrator
from repro.core.orchestrator import Orchestrator, RunConfig, planning_context
from repro.experiments.common import make_job, preset_spec
from repro.platform import presets
from repro.runner import jobs
from repro.runner.campaign import GOLDEN_SCHEDULERS
from repro.schedulers import _reference
from repro.schedulers.base import SchedulingContext
from repro.schedulers.peft import optimistic_cost_table
from repro.workflows.generators import montage, random_dag
from repro.workflows.serialize import workflow_to_dict

CLUSTER_A = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)
CLUSTER_B = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=2)


def _cells():
    """(cells, number of distinct planning keys among them)."""
    dag = random_dag(n_tasks=16, ccr=1.0, seed=1)
    docs = [workflow_to_dict(dag), workflow_to_dict(montage(size=20, seed=2))]
    cells = [
        make_job(doc, cluster, scheduler=sched, seed=seed, noise_cv=0.1)
        for doc in docs
        for cluster in (CLUSTER_A, CLUSTER_B)
        for sched in GOLDEN_SCHEDULERS
        for seed in (1, 2)
    ]
    cells += [
        make_job(docs[0], CLUSTER_A, scheduler=sched, seed=seed,
                 estimate_error_cv=0.3)
        for sched in ("heft", "peft", "cpop", "hdws")
        for seed in (1, 2)
    ]
    release = {name: 4.0 for name in dag.entry_tasks()}
    cells += [
        make_job(docs[0], CLUSTER_A, scheduler=sched, seed=3,
                 release_times=release)
        for sched in ("heft", "hdws")
    ]
    # 2 docs x 2 clusters, two estimate-error seeds, one release map.
    return cells, 4 + 2 + 1


def _clear():
    jobs._plan_memo.clear()
    jobs._workflow_memo.clear()


def _run(job) -> str:
    record = jobs.execute_sim(job.payload())
    assert "makespan" in record, record.get("message")
    return json.dumps(record, sort_keys=True)


def _three_ways(cells):
    """Records of ``cells`` in order, shuffled, and with cold memos."""
    _clear()
    ordered = [_run(job) for job in cells]
    _clear()
    order = list(range(len(cells)))
    random.Random(0).shuffle(order)
    shuffled = [None] * len(cells)
    for i in order:
        shuffled[i] = _run(cells[i])
    cold = []
    for job in cells:
        _clear()
        cold.append(_run(job))
    _clear()
    return ordered, shuffled, cold


def test_records_identical_in_order_shuffled_and_cold():
    cells, _n = _cells()
    ordered, shuffled, cold = _three_ways(cells)
    assert shuffled == ordered
    assert cold == ordered


def test_one_context_per_key(monkeypatch):
    """Every scheduler and noise seed of a key shares one context."""
    cells, n_keys = _cells()
    builds = []

    def counting(workflow, cluster, config):
        builds.append(1)
        return planning_context(workflow, cluster, config)

    monkeypatch.setattr(orchestrator, "planning_context", counting)
    _clear()
    for job in cells:
        _run(job)
    _clear()
    assert len(builds) == n_keys


def test_key_without_the_seed_is_caught(monkeypatch):
    """A memo key that drops the run seed shares one estimate-error draw
    between seeds, and the in-order records stop matching cold ones."""
    original = jobs._plan_key

    def seedless(payload, config):
        key = original(payload, config)
        return key[:3] + key[4:]

    monkeypatch.setattr(jobs, "_plan_key", seedless)
    cells, _n = _cells()
    ordered, _shuffled, cold = _three_ways(cells)
    assert ordered != cold


def test_a_context_serves_one_run_at_a_time():
    """A checked-out context leaves the memo until its run hands it back,
    so a concurrent run of the same key plans on its own cluster."""
    _clear()
    job = make_job(
        workflow_to_dict(random_dag(n_tasks=8, seed=3)), CLUSTER_A,
        scheduler="heft", seed=1,
    )
    payload = job.payload()
    config = RunConfig(scheduler="heft", seed=1)
    _wf, cluster, context, key = jobs._checkout_plan(payload, config)
    assert jobs._plan_memo == {}
    _wf2, cluster2, context2, key2 = jobs._checkout_plan(payload, config)
    assert key2 == key
    assert context2 is not context and cluster2 is not cluster
    jobs._checkin_plan(key, context)
    assert jobs._checkout_plan(payload, config)[2] is context
    assert jobs._plan_memo == {}
    _clear()


def test_non_static_modes_do_not_share_contexts():
    _clear()
    job = make_job(
        workflow_to_dict(random_dag(n_tasks=8, seed=3)), CLUSTER_A,
        scheduler="heft", seed=1, mode="adaptive",
    )
    _run(job)
    assert jobs._plan_memo == {}


def test_unplannable_cell_fails_in_the_unshared_order():
    """A cell no device can run is still reported by the precheck, which
    runs before planning, not by a context build ahead of it."""
    _clear()
    doc = workflow_to_dict(random_dag(n_tasks=8, seed=3))
    doc["tasks"][0]["memory_gb"] = 1e6
    job = make_job(doc, CLUSTER_A, scheduler="heft", precheck=True)
    record = jobs.execute_sim(job.payload())
    assert record["error_type"] == "StaticCheckError"
    assert jobs._plan_memo == {}


def test_prebuilt_context_must_match_the_run():
    wf = random_dag(n_tasks=8, seed=3)
    cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1)
    config = RunConfig(scheduler="heft")
    context = planning_context(wf, cluster, config)
    other = presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1)
    with pytest.raises(ValueError, match="prebuilt planning context"):
        Orchestrator(config).run(wf, other, context=context)
    adaptive = RunConfig(scheduler="heft", mode="adaptive")
    with pytest.raises(ValueError, match="prebuilt planning context"):
        Orchestrator(adaptive).run(wf, cluster, context=context)
    shared = Orchestrator(config).run(wf, cluster, context=context)
    fresh = Orchestrator(config).run(wf, cluster)
    assert shared.makespan == fresh.makespan


# --------------------------------------------------------------------- #
# the context's rank and OCT memos                                      #
# --------------------------------------------------------------------- #


def _context():
    return SchedulingContext(
        random_dag(n_tasks=20, ccr=1.0, seed=4),
        presets.hybrid_cluster(nodes=2, cores_per_node=2, gpus_per_node=1),
    )


def test_memoized_results_are_copies():
    ctx = _context()
    up = ctx.upward_ranks()
    down = ctx.downward_ranks()
    table = optimistic_cost_table(ctx)
    expected = (dict(up), dict(down), {t: dict(r) for t, r in table.items()})
    first = next(iter(up))
    up[first] = down[first] = -1.0
    next(iter(table.values()))[next(iter(next(iter(table.values()))))] = -1.0
    again = (
        ctx.upward_ranks(), ctx.downward_ranks(), optimistic_cost_table(ctx)
    )
    assert again == expected


def test_reference_mode_bypasses_poisoned_memos():
    ctx = _context()
    for use_best in (False, True):
        ctx.upward_ranks(use_best)
    ctx.downward_ranks()
    optimistic_cost_table(ctx)
    assert set(ctx._ranks) == {("up", False), ("up", True), ("down",)}
    assert ctx._oct is not None
    for key, ranks in ctx._ranks.items():
        ctx._ranks[key] = {name: -1.0 for name in ranks}
    ctx._oct = {name: {uid: -1.0 for uid in row} for name, row in ctx._oct.items()}
    # Off reference mode the poison is what the memo serves ...
    assert set(ctx.downward_ranks().values()) == {-1.0}

    with _reference.reference_mode():
        fresh = _context()
        expected = (
            fresh.upward_ranks(False), fresh.upward_ranks(True),
            fresh.downward_ranks(), optimistic_cost_table(fresh),
        )
        got = (
            ctx.upward_ranks(False), ctx.upward_ranks(True),
            ctx.downward_ranks(), optimistic_cost_table(ctx),
        )
        # ... and reference mode never reads or fills it.
        assert fresh._ranks == {} and fresh._oct is None
    assert got == expected
    assert got == (
        _reference.upward_ranks(fresh, False),
        _reference.upward_ranks(fresh, True),
        _reference.downward_ranks(fresh),
        _reference.optimistic_cost_table(fresh),
    )
