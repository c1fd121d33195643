"""Workflow-layer static checks (submission-time structural validation).

:func:`check_workflow` returns the structural findings — acyclicity,
orphan files, consumed-but-never-produced files, eligibility sanity, and
no-op tasks.  All are errors: a workflow failing any of them is
structurally malformed, not merely suspicious.  :func:`validate_workflow`
is the raising entry point the orchestrator calls before every run.
"""

from __future__ import annotations

from typing import List

from repro.staticcheck.findings import Finding, error
from repro.workflows.graph import Workflow

#: Layer tag for every finding this group emits.
LAYER = "workflow"


def check_workflow(workflow: Workflow) -> List[Finding]:
    """Structural findings for one workflow (empty list = valid)."""
    findings: List[Finding] = []

    if workflow.n_tasks == 0:
        findings.append(
            error(
                "empty-workflow", LAYER, workflow.name,
                "workflow has no tasks",
                "add at least one task before submitting",
            )
        )
        return findings

    if not workflow.is_acyclic():
        findings.append(
            error(
                "workflow-cycle", LAYER, workflow.name,
                "dependency graph contains a cycle",
                "check control edges and file producer/consumer relations",
            )
        )

    produced = {f for t in workflow.tasks.values() for f in t.outputs}
    consumed = {f for t in workflow.tasks.values() for f in t.inputs}

    for fname, f in workflow.files.items():
        if f.initial:
            if fname in produced:
                findings.append(
                    error(
                        "file-initial-produced", LAYER, fname,
                        f"initial file {fname!r} is also produced",
                        "initial files must pre-exist; drop the producer output",
                    )
                )
        elif fname not in produced:
            if fname in consumed:
                findings.append(
                    error(
                        "file-unproduced", LAYER, fname,
                        f"file {fname!r} is consumed but never produced and not initial",
                        "mark it initial or add the producing task",
                    )
                )
            else:
                findings.append(
                    error(
                        "file-unused", LAYER, fname,
                        f"file {fname!r} is registered but unused",
                        "remove the registration or wire it to a task",
                    )
                )

    for task in workflow.tasks.values():
        if not task.eligible_classes():
            findings.append(
                error(
                    "task-no-class", LAYER, task.name,
                    f"task {task.name!r} is eligible on no device class",
                    "give the task a positive affinity for at least one class",
                )
            )
        if task.work == 0 and not task.inputs and not task.outputs:
            findings.append(
                error(
                    "task-trivial", LAYER, task.name,
                    f"task {task.name!r} has zero work and no data role",
                    "delete the task or give it work or data",
                )
            )

    return findings


class ValidationError(ValueError):
    """Raised by :func:`validate_workflow` with all problems listed."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__(
            "workflow validation failed:\n  - " + "\n  - ".join(self.problems)
        )


def validate_workflow(workflow: Workflow) -> None:
    """Raise :class:`ValidationError` if the workflow is malformed.

    A clean pass is remembered on the workflow (invalidated on mutation),
    so running the same instance many times validates it once.
    """
    if getattr(workflow, "_validated_ok", False):
        return
    problems = [finding.message for finding in check_workflow(workflow)]
    if problems:
        raise ValidationError(problems)
    workflow._validated_ok = True
