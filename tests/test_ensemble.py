"""Tests for workflow merging and ensemble execution."""

import pytest

from repro.core.ensemble import EnsembleMember, EnsembleRunner
from repro.core.orchestrator import RunConfig
from repro.platform import presets
from repro.workflows.ensemble import (
    member_ids,
    member_prefix,
    member_tasks,
    merge_workflows,
    split_member,
)
from repro.workflows.generators import blast, montage
from repro.staticcheck.workflow_checks import validate_workflow


@pytest.fixture
def members():
    return [
        EnsembleMember("a", montage(n_images=5, seed=1), priority=1.0),
        EnsembleMember("b", blast(n_chunks=8, seed=2), priority=3.0),
    ]


class TestMerge:
    def test_namespacing(self):
        assert member_prefix("a", "t1") == "a::t1"
        assert split_member("a::t1") == ("a", "t1")
        with pytest.raises(ValueError):
            split_member("nonamespace")

    def test_merged_is_valid_and_complete(self, members):
        merged = merge_workflows({m.member_id: m.workflow for m in members})
        validate_workflow(merged)
        assert merged.n_tasks == sum(m.workflow.n_tasks for m in members)
        assert len(merged.files) == sum(len(m.workflow.files) for m in members)

    def test_members_structurally_independent(self, members):
        merged = merge_workflows({m.member_id: m.workflow for m in members})
        for t in member_tasks(merged, "a"):
            for succ in merged.successors(t):
                assert succ.startswith("a::")

    def test_member_queries(self, members):
        merged = merge_workflows({m.member_id: m.workflow for m in members})
        assert member_ids(merged) == ["a", "b"]
        assert len(member_tasks(merged, "a")) == members[0].workflow.n_tasks

    def test_priorities_copied(self, members):
        merged = merge_workflows(
            {m.member_id: m.workflow for m in members},
            priorities={"a": 1.0, "b": 3.0},
        )
        assert all(
            merged.tasks[t].priority_hint == 3.0
            for t in member_tasks(merged, "b")
        )

    def test_bad_inputs_rejected(self, members):
        with pytest.raises(ValueError):
            merge_workflows({})
        with pytest.raises(ValueError):
            merge_workflows({"x::y": members[0].workflow})

    def test_edge_structure_preserved(self, members):
        wf = members[0].workflow
        merged = merge_workflows({"a": wf})
        assert merged.n_edges == wf.n_edges


class TestEnsembleRunner:
    @pytest.fixture
    def runner(self):
        return EnsembleRunner(
            presets.hybrid_cluster(nodes=2, cores_per_node=2),
            RunConfig(seed=1),
        )

    def test_invalid_discipline_rejected(self, runner, members):
        with pytest.raises(ValueError):
            runner.run(members, discipline="anarchic")

    def test_empty_ensemble_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.run([])

    def test_duplicate_member_ids_rejected(self, runner, members):
        dup = [members[0], members[0]]
        with pytest.raises(ValueError):
            runner.run(dup)

    def test_sequential_finishes_cumulative(self, runner, members):
        res = runner.run(members, discipline="sequential")
        assert res.success
        finishes = [res.member_finish[m.member_id] for m in members]
        assert finishes == sorted(finishes)
        assert res.makespan == pytest.approx(max(finishes))

    def test_priority_orders_by_priority(self, runner, members):
        res = runner.run(members, discipline="priority")
        # member "b" (priority 3) runs before "a" (priority 1)
        assert res.member_finish["b"] < res.member_finish["a"]

    def test_shared_beats_sequential_makespan(self, runner, members):
        seq = runner.run(members, discipline="sequential")
        shared = runner.run(members, discipline="shared")
        assert shared.success
        assert shared.makespan < seq.makespan

    def test_slowdowns_at_least_near_one(self, runner, members):
        res = runner.run(members, discipline="shared")
        for mid, slow in res.member_slowdown.items():
            assert slow > 0.8, mid

    def test_throughput(self, runner, members):
        res = runner.run(members, discipline="shared")
        assert res.throughput() == pytest.approx(
            len(members) / res.makespan
        )

    def test_solo_can_be_skipped(self, runner, members):
        res = runner.run(members, discipline="shared", compute_solo=False)
        assert res.member_solo == {}
        assert res.member_slowdown == {}
