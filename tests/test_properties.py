"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.cache import EvictionError, NodeStore
from repro.schedulers.schedule import DeviceTimeline
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.workflows.generators import layered_dag, random_dag


# --------------------------------------------------------------------- #
# simulator                                                             #
# --------------------------------------------------------------------- #

@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
def test_simulator_fires_in_nondecreasing_time(delays):
    sim = Simulator()
    fired_times = []
    for d in delays:
        sim.schedule(d, lambda t=d: fired_times.append(sim.now))
    sim.run()
    assert fired_times == sorted(fired_times)
    assert len(fired_times) == len(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=30))
def test_simulator_clock_is_max_delay(delays):
    sim = Simulator()
    for d in delays:
        sim.schedule(d, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(max(delays))


# --------------------------------------------------------------------- #
# rng                                                                   #
# --------------------------------------------------------------------- #

@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1,
                                                          max_size=20))
@settings(max_examples=30)
def test_rng_streams_reproducible(seed, name):
    a = RngStreams(seed).stream(name).random()
    b = RngStreams(seed).stream(name).random()
    assert a == b


# --------------------------------------------------------------------- #
# device timeline                                                       #
# --------------------------------------------------------------------- #

@given(st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1000.0),
              st.floats(min_value=0.01, max_value=50.0)),
    max_size=40,
))
def test_timeline_earliest_fit_never_overlaps(jobs):
    """Placing every job at its earliest_fit must keep intervals disjoint."""
    tl = DeviceTimeline("d")
    for i, (ready, duration) in enumerate(jobs):
        start = tl.earliest_fit(ready, duration)
        assert start >= ready
        tl.add(start, start + duration, f"t{i}")
    intervals = tl.intervals
    for (s0, e0, _a), (s1, _e1, _b) in zip(intervals, intervals[1:]):
        assert e0 <= s1 + 1e-9


@given(st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1000.0),
              st.floats(min_value=0.01, max_value=50.0)),
    min_size=1, max_size=40,
))
def test_timeline_busy_time_equals_sum_of_durations(jobs):
    tl = DeviceTimeline("d")
    total = 0.0
    for i, (ready, duration) in enumerate(jobs):
        start = tl.earliest_fit(ready, duration)
        tl.add(start, start + duration, f"t{i}")
        total += duration
    assert tl.busy_time() == pytest.approx(total)


# --------------------------------------------------------------------- #
# node store                                                            #
# --------------------------------------------------------------------- #

@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.floats(min_value=0.1, max_value=60.0)),
    max_size=60,
))
def test_node_store_never_exceeds_capacity(puts):
    store = NodeStore("n", 100.0)
    for fid, size in puts:
        try:
            store.put(f"f{fid}", size)
        except EvictionError:
            pass
        assert store.used_mb <= 100.0 + 1e-9


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1,
                max_size=50))
def test_node_store_lru_keeps_most_recent(accesses):
    """After any access sequence, the most recently put file is resident."""
    store = NodeStore("n", 50.0)
    last = None
    for fid in accesses:
        store.put(f"f{fid}", 10.0)
        last = f"f{fid}"
    assert store.has(last)


# --------------------------------------------------------------------- #
# generators                                                            #
# --------------------------------------------------------------------- #

@given(st.integers(min_value=1, max_value=60),
       st.floats(min_value=0.0, max_value=8.0),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_random_dag_always_valid(n_tasks, ccr, seed):
    from repro.staticcheck.workflow_checks import validate_workflow

    wf = random_dag(n_tasks=n_tasks, ccr=ccr, seed=seed)
    validate_workflow(wf)
    assert wf.n_tasks == n_tasks
    assert wf.is_acyclic()


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_layered_dag_always_valid(layers, width, seed):
    from repro.staticcheck.workflow_checks import validate_workflow

    wf = layered_dag(layers=layers, width=width, seed=seed)
    validate_workflow(wf)
    assert wf.n_tasks == layers * width
    assert len(wf.levels()) == layers


# --------------------------------------------------------------------- #
# scheduling invariants                                                 #
# --------------------------------------------------------------------- #

@given(st.integers(min_value=5, max_value=25),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=15, deadline=None)
def test_heft_schedule_always_feasible(n_tasks, seed):
    from repro.platform import presets
    from repro.schedulers.base import SchedulingContext
    from repro.schedulers.heft import HeftScheduler

    wf = random_dag(n_tasks=n_tasks, ccr=1.0, seed=seed)
    cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
    schedule = HeftScheduler().schedule(SchedulingContext(wf, cluster))
    schedule.validate_against(wf)


@given(st.integers(min_value=5, max_value=20),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_execution_respects_precedence_under_noise(n_tasks, seed):
    from repro import run_workflow
    from repro.platform import presets

    wf = random_dag(n_tasks=n_tasks, ccr=0.5, seed=seed)
    cluster = presets.hybrid_cluster(nodes=2, cores_per_node=2)
    result = run_workflow(wf, cluster, seed=seed, noise_cv=0.5)
    assert result.success
    for name, rec in result.execution.records.items():
        for pred in wf.predecessors(name):
            assert result.execution.records[pred].finish <= rec.start + 1e-9
