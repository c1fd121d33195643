"""Scientific discovery workflow models and generators.

A *workflow* is a DAG of tasks connected through the data files they produce
and consume — the representation Pegasus-style systems use for scientific
discovery campaigns.  This package provides:

* :mod:`~repro.workflows.task` — tasks, data files, device affinities.
* :mod:`~repro.workflows.graph` — the :class:`Workflow` DAG with structural
  queries (topological order, levels, critical path, CCR).
* :mod:`~repro.workflows.serialize` — JSON round-tripping (a DAX-like
  interchange format).
* :mod:`~repro.workflows.generators` — structure-faithful generators for the
  five canonical scientific suites (Montage, CyberShake, Epigenomics, LIGO
  Inspiral, SIPHT) plus BLAST-like search, an ML pipeline, and parametric
  random/layered DAGs.
"""

from repro.workflows.task import DataFile, Task
from repro.workflows.graph import Workflow
from repro.staticcheck.workflow_checks import ValidationError, validate_workflow
from repro.workflows.serialize import workflow_from_json, workflow_to_json

__all__ = [
    "DataFile",
    "Task",
    "Workflow",
    "ValidationError",
    "validate_workflow",
    "workflow_from_json",
    "workflow_to_json",
]
