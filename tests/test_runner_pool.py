"""CampaignRunner semantics: order, dedupe, memoization, parallel equality."""

from __future__ import annotations

import pytest

from repro.experiments.common import make_job, make_timing_job, preset_spec
from repro.runner import CampaignRunner, ResultCache
from repro.runner.context import get_runner, set_runner, use_runner
from repro.runner.jobs import TimingJob
from repro.workflows.generators import montage

CLUSTER = preset_spec("hybrid", nodes=2, cores_per_node=2, gpus_per_node=1)


def _jobs(schedulers=("heft", "peft", "minmin"), seed=5):
    wf = montage(size=12, seed=seed)
    return [
        make_job(wf, CLUSTER, scheduler=s, seed=seed, noise_cv=0.1,
                 label=f"pool-test:{s}")
        for s in schedulers
    ]


def test_records_come_back_in_submission_order():
    """Each record pairs with its job regardless of execution internals."""
    runner = CampaignRunner(jobs=1)
    jobs = _jobs()
    records = runner.run_sims(jobs)
    assert len(records) == len(jobs)
    # Different schedulers on the same workflow give different makespans
    # (at least one pair), proving records weren't scrambled into one.
    reversed_records = CampaignRunner(jobs=1).run_sims(list(reversed(jobs)))
    assert [r.makespan for r in reversed_records] == [
        r.makespan for r in reversed(records)
    ]


def test_duplicate_cells_simulate_once():
    """Identical cells in one batch run once and fan out to every index."""
    runner = CampaignRunner(jobs=1)
    job = _jobs(schedulers=("heft",))[0]
    records = runner.run_sims([job, job, job])
    assert runner.simulated == 1
    assert records[0] == records[1] == records[2]


def test_warm_cache_rerun_simulates_nothing(tmp_path):
    """A second run over a warm cache recalls every record bit-identically."""
    jobs = _jobs()
    cold = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    cold_records = cold.run_sims(jobs)
    assert cold.simulated == len(jobs)

    warm = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    warm_records = warm.run_sims(jobs)
    assert warm.simulated == 0
    assert warm.cache.stats.hits == len(jobs)
    assert warm_records == cold_records


def test_parallel_equals_serial():
    """jobs=2 returns records identical to jobs=1 (the core contract)."""
    jobs = _jobs()
    serial = CampaignRunner(jobs=1).run_sims(jobs)
    parallel = CampaignRunner(jobs=2).run_sims(jobs)
    assert parallel == serial


def test_parallel_warm_cache_round_trip(tmp_path):
    """Records cached by a parallel run satisfy a serial warm rerun."""
    jobs = _jobs()
    cold = CampaignRunner(jobs=2, cache=ResultCache(str(tmp_path)))
    cold_records = cold.run_sims(jobs)
    warm = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    assert warm.run_sims(jobs) == cold_records
    assert warm.simulated == 0


def test_timing_jobs_are_never_cached(tmp_path):
    """Timing cells bypass the cache entirely (wall-clock is not content)."""
    cache = ResultCache(str(tmp_path))
    runner = CampaignRunner(jobs=1, cache=cache)
    wf = montage(size=12, seed=5)
    tjob = make_timing_job(wf, CLUSTER, scheduler="heft", label="t")
    r1 = runner.run_timings([tjob])
    r2 = runner.run_timings([tjob])
    assert len(cache) == 0
    assert r1[0].n_tasks == r2[0].n_tasks == wf.n_tasks
    assert r1[0].elapsed_s > 0


def test_pooled_timings_keep_submission_order_and_survive_failure():
    """Pooled timing cells come back by index; a failure leaves the pool up."""
    sizes = [32, 8, 24, 40, 20]
    tjobs = [
        make_timing_job(montage(size=n, seed=5), CLUSTER, scheduler="heft",
                        label=f"t{n}")
        for n in sizes
    ]
    expected = [montage(size=n, seed=5).n_tasks for n in sizes]
    assert len(set(expected)) == len(sizes)
    bad = TimingJob(
        workflow=tjobs[0].workflow, cluster=CLUSTER,
        scheduler="no-such-scheduler", label="broken-timing",
    )
    with CampaignRunner(jobs=2) as runner:
        assert [r.n_tasks for r in runner.run_timings(tjobs)] == expected
        pool = runner._pool
        with pytest.raises(RuntimeError, match="broken-timing"):
            runner.run_timings(tjobs[:2] + [bad] + tjobs[2:])
        assert [r.n_tasks for r in runner.run_timings(tjobs)] == expected
        assert runner._pool is pool


def test_failed_cell_raises_with_label():
    """A broken cell surfaces its label in the error, not a bare traceback."""
    bad = make_job(
        montage(size=12, seed=5), CLUSTER, scheduler="heft",
        seed=5, bogus_config_field=1, label="broken-cell",
    )
    with pytest.raises(RuntimeError, match="broken-cell"):
        CampaignRunner(jobs=1).run_sims([bad])


def test_jobs_must_be_positive():
    """jobs=0 is a configuration error, not silent serial."""
    with pytest.raises(ValueError):
        CampaignRunner(jobs=0)


def test_empty_batch_is_a_noop():
    """Zero cells: no pool spin-up, empty result."""
    runner = CampaignRunner(jobs=4)
    assert runner.run_sims([]) == []
    assert runner.run_timings([]) == []


def test_persistent_pool_is_reused_across_batches():
    """The pool spawns once and serves every subsequent parallel batch."""
    with CampaignRunner(jobs=2) as runner:
        assert runner._pool is None  # lazily spawned
        runner.run_sims(_jobs())
        pool = runner._pool
        assert pool is not None
        runner.run_sims(_jobs(seed=6))
        assert runner._pool is pool  # same workers, no respawn


def test_close_releases_the_pool_and_cache(tmp_path):
    """close() tears down workers and flushes the cache; it is idempotent."""
    runner = CampaignRunner(jobs=2, cache=ResultCache(str(tmp_path)))
    jobs = _jobs()
    runner.run_sims(jobs)
    assert runner._pool is not None
    runner.close()
    assert runner._pool is None
    runner.close()  # idempotent
    # Everything the run produced was synced to the shard index.
    warm = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    assert warm.run_sims(jobs) and warm.simulated == 0


def test_context_manager_closes_on_exit():
    with CampaignRunner(jobs=2) as runner:
        runner.run_sims(_jobs())
        assert runner._pool is not None
    assert runner._pool is None


def test_run_sims_iter_streams_every_index_once(tmp_path):
    """The streaming iterator yields each submission index exactly once."""
    jobs = _jobs()
    runner = CampaignRunner(jobs=2, cache=ResultCache(str(tmp_path)))
    seen = dict(runner.run_sims_iter(jobs))
    assert sorted(seen) == list(range(len(jobs)))
    # A warm streaming pass yields the identical records (hits first).
    warm = CampaignRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    assert dict(warm.run_sims_iter(jobs)) == seen
    assert warm.simulated == 0


def test_run_sims_ordered_yields_submission_order():
    jobs = _jobs()
    with CampaignRunner(jobs=2) as runner:
        indexes = [i for i, _ in runner.run_sims_ordered(jobs)]
    assert indexes == list(range(len(jobs)))


def test_streaming_matches_batch_records():
    """run_sims / run_sims_iter / run_sims_ordered agree record-for-record."""
    jobs = _jobs()
    batch = CampaignRunner(jobs=1).run_sims(jobs)
    with CampaignRunner(jobs=2) as runner:
        streamed = dict(runner.run_sims_iter(jobs))
        ordered = list(runner.run_sims_ordered(jobs))
    assert [streamed[i] for i in range(len(jobs))] == batch
    assert [r for _, r in ordered] == batch


def test_chunksize_is_adaptive():
    """The dispatch chunk size derives from the batch size."""
    runner = CampaignRunner(jobs=4)
    assert runner._chunksize(256) == max(1, min(32, 256 // 8))


def test_use_runner_scopes_the_active_runner():
    """use_runner installs and restores the ambient runner."""
    outer = get_runner()
    inner = CampaignRunner(jobs=1)
    with use_runner(inner):
        assert get_runner() is inner
    assert get_runner() is outer


def test_set_runner_none_resets_to_env_default(monkeypatch):
    """set_runner(None) + REPRO_JOBS rebuilds the default lazily."""
    monkeypatch.setenv("REPRO_JOBS", "3")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    previous = get_runner()
    try:
        set_runner(None)
        runner = get_runner()
        assert runner.jobs == 3
        assert runner.cache is None
    finally:
        set_runner(previous)
