"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The traced-run tests drive every workload's cells a few times, so this
file takes about a minute.
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO_ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(REPO_ROOT, "src")]

import hooks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Per-layer counts that must repeat exactly for a given seed.
EXACT = (
    "execute.events", "decode.calls", "cache.bytes_written",
    "store.txns_per_cell", "wire.submit_bytes_per_cell",
)


@pytest.fixture
def work():
    root = os.path.join(BENCH, "_work")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(dir=root, prefix="test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traced():
    """Traced runs: seed 1 twice and seed 2 once."""
    root = os.path.join(BENCH, "_work")
    os.makedirs(root, exist_ok=True)
    out = []
    for seed in (1, 1, 2):
        path = tempfile.mkdtemp(dir=root, prefix="test-traced-")
        try:
            out.append(tracing.traced_run("grid_cold", seed, path))
        finally:
            shutil.rmtree(path, ignore_errors=True)
    return out


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_traced_run_is_correct_and_complete(traced):
    for result in traced:
        assert result["correct"], result
        assert result["failed"] == 0
        assert set(result["metrics"]) == set(tracing.METRICS)


def test_exact_counters_repeat_for_a_seed(traced):
    first, again, _other = (_values(r) for r in traced)
    for name in EXACT:
        assert first[name] == again[name], name
        assert first[name] > 0, name


def test_other_seed_changes_inputs_not_cell_counts(traced):
    from repro.runner.hashing import cache_key

    assert traced[0]["attempted"] == traced[2]["attempted"]

    def keys(cells):
        return {cache_key(cell) for cell in cells}

    grid1, golden = workloads.grid_cells(1)
    grid2, _golden = workloads.grid_cells(2)
    assert len(grid1) == len(grid2)
    # Only the golden slice is shared between seeds.
    assert len(keys(grid1) & keys(grid2)) == len(golden)
    for build in (workloads.sweep_cells,
                  lambda seed: workloads.service_campaign(seed, 0)):
        one, two = build(1), build(2)
        assert len(one) == len(two)
        assert keys(one).isdisjoint(keys(two))


def test_golden_slice_is_the_fixture_grid():
    cells, golden = workloads.grid_cells(3)
    expected = workloads.golden_expected()
    assert sorted((s, k) for s, k, _i in golden) == sorted(
        (s, k) for s in expected for k in expected[s]
    )


def test_every_layer_boundary_resolves():
    targets, missing = hooks.resolve(hooks.LAYERS)
    assert not missing
    assert {t.layer for t in targets} == set(hooks.LAYERS)


def test_renamed_boundary_is_reported_missing(monkeypatch):
    monkeypatch.setitem(
        hooks.LAYERS, "account", ("repro.core.orchestrator:no_such_function",)
    )
    targets, missing = hooks.resolve(["account"])
    assert targets == []
    assert list(missing) == ["repro.core.orchestrator:no_such_function"]


def test_self_time_subtracts_children():
    spans = [
        [1, "cell", "t", 0.0, 10.0, None, "c", {}],
        [2, "plan", "t", 1.0, 4.0, 1, "c", {}],
        [3, "execute", "t", 5.0, 9.0, 1, "c", {}],
        [4, "account", "t", 6.0, 7.0, 3, "c", {}],
    ]
    own = tracing.self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_run_py_is_import_safe():
    """Pool workers import run.py as __mp_main__; that must run nothing."""
    namespace = runpy.run_path(
        os.path.join(BENCH, "run.py"), run_name="__mp_main__"
    )
    assert "main" in namespace


def test_fails_without_program_sources(work):
    """With only the benchmark present, the command exits non-zero, no result."""
    copy = os.path.join(work, "bare")
    shutil.copytree(BENCH, os.path.join(copy, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), copy)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


STOP_CHILDREN = """
import multiprocessing, os, subprocess, sys
sys.path.insert(0, sys.argv[1])
import run
ctx = multiprocessing.get_context("forkserver")
with ctx.Pool(1) as pool:
    pool.map(abs, [1])
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
pids = [multiprocessing.forkserver._forkserver._forkserver_pid, sleeper.pid]
run._stop_children()
print(all(not os.path.exists(f"/proc/{pid}") for pid in pids))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_stop_children_leaves_no_process():
    """The forkserver and any other child are gone, and reaped, on return."""
    proc = subprocess.run(
        [sys.executable, "-c", STOP_CHILDREN, BENCH],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
