"""Tests for workflow validation."""

import pytest

from repro.platform.devices import DeviceClass
from repro.staticcheck.workflow_checks import (
    ValidationError,
    check_workflow,
    validate_workflow,
)
from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile, Task, cpu_task


def valid_wf():
    wf = Workflow("ok")
    wf.add_file(DataFile("in", 1.0, initial=True))
    wf.add_file(DataFile("out", 1.0))
    wf.add_task(cpu_task("t", 1.0, inputs=("in",), outputs=("out",)))
    return wf


class TestValidation:
    def test_valid_workflow_passes(self):
        validate_workflow(valid_wf())

    def test_empty_workflow_fails(self):
        with pytest.raises(ValidationError):
            validate_workflow(Workflow("empty"))

    def test_consumed_never_produced(self):
        wf = Workflow("w")
        wf.add_file(DataFile("ghost", 1.0))  # not initial, no producer
        wf.add_task(cpu_task("t", 1.0, inputs=("ghost",)))
        problems = [f.message for f in check_workflow(wf)]
        assert any("never produced" in p for p in problems)

    def test_registered_but_unused_file(self):
        wf = valid_wf()
        wf.add_file(DataFile("orphan", 1.0))
        problems = [f.message for f in check_workflow(wf)]
        assert any("unused" in p for p in problems)

    def test_cycle_via_control_edges(self):
        wf = Workflow("w")
        wf.add_file(DataFile("a2b", 1.0))
        wf.add_task(cpu_task("a", 1.0, outputs=("a2b",)))
        wf.add_task(cpu_task("b", 1.0, inputs=("a2b",)))
        wf.add_control_edge("b", "a")
        problems = [f.message for f in check_workflow(wf)]
        assert any("cycle" in p for p in problems)

    def test_no_eligible_class(self):
        wf = Workflow("w")
        wf.add_file(DataFile("o", 1.0))
        wf.add_task(Task("t", 1.0, affinity={DeviceClass.CPU: 0.0},
                         outputs=("o",)))
        wf.add_task(cpu_task("c", 1.0, inputs=("o",)))
        problems = [f.message for f in check_workflow(wf)]
        assert any("no device class" in p for p in problems)

    def test_zero_work_no_data_role(self):
        wf = valid_wf()
        wf.add_task(cpu_task("noop", 0.0))
        problems = [f.message for f in check_workflow(wf)]
        assert any("zero work" in p for p in problems)

    def test_error_lists_all_problems(self):
        wf = Workflow("w")
        wf.add_file(DataFile("orphan", 1.0))
        wf.add_file(DataFile("ghost", 1.0))
        wf.add_task(cpu_task("t", 1.0, inputs=("ghost",)))
        with pytest.raises(ValidationError) as exc:
            validate_workflow(wf)
        assert len(exc.value.problems) >= 2

    def test_all_generators_validate(self):
        from repro.workflows.generators import ALL_GENERATORS

        for name, gen in ALL_GENERATORS.items():
            validate_workflow(gen(seed=1))
