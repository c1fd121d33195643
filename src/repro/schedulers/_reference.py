"""Pure-Python reference kernels for the differential test harness.

The fast scheduler kernels replace these loop implementations on the hot
path: the numpy rank kernels in :mod:`repro.schedulers.base`, PEFT's numpy
optimistic cost table in :mod:`repro.schedulers.peft`, and ``eft_scan``, a
scalar loop over the per-task cost row of the context.  The loops here
remain the *semantic definition* of each computation:

* every fast kernel must produce bit-identical results to its
  reference over arbitrary (workflow, cluster) inputs;
* ``tests/test_differential.py`` enforces that by fuzzing every scheduler
  in the zoo with :func:`reference_mode` on and off and diffing the
  resulting schedules exactly (device, start bits, finish bits).

Policy for contributors: **never** change a reference kernel and its
fast twin in the same review step.  Land the semantic change here
first (the differential suite then fails loudly against the stale fast
path), then update the vectorized kernel until the suite is green again.

The kernels take a :class:`~repro.schedulers.base.SchedulingContext` but
import nothing from it, so this module has no circular-import exposure.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: When True, SchedulingContext and the schedulers route every kernel
#: through this module instead of the fast path.
_ACTIVE = False


def reference_active() -> bool:
    """True while :func:`reference_mode` is in effect."""
    return _ACTIVE


@contextmanager
def reference_mode() -> Iterator[None]:
    """Context manager forcing the pure-Python reference kernels.

    Used by the differential harness; re-entrant and exception-safe.
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = True
    try:
        yield
    finally:
        _ACTIVE = prev


# --------------------------------------------------------------------- #
# rank kernels                                                          #
# --------------------------------------------------------------------- #


def upward_ranks(context, use_best: bool = False) -> Dict[str, float]:
    """Classical upward ranks: rank_u(t) = w(t) + max_child(c + rank_u)."""
    ranks: Dict[str, float] = {}
    weight = context.best_exec if use_best else context.mean_exec
    for name in reversed(context.workflow.topological_order()):
        best_child = 0.0
        for child in context.workflow.successors(name):
            cand = context.mean_comm(name, child) + ranks[child]
            if cand > best_child:
                best_child = cand
        ranks[name] = weight(name) + best_child
    return ranks


def downward_ranks(context) -> Dict[str, float]:
    """Classical downward ranks (distance from the entry nodes)."""
    ranks: Dict[str, float] = {}
    for name in context.workflow.topological_order():
        best_parent = 0.0
        for parent in context.workflow.predecessors(name):
            cand = (
                ranks[parent]
                + context.mean_exec(parent)
                + context.mean_comm(parent, name)
            )
            if cand > best_parent:
                best_parent = cand
        ranks[name] = best_parent
    return ranks


# --------------------------------------------------------------------- #
# PEFT optimistic cost table                                            #
# --------------------------------------------------------------------- #


def optimistic_cost_table(context) -> Dict[str, Dict[str, float]]:
    """OCT[t][d] over eligible devices, computed bottom-up (see PEFT)."""
    wf = context.workflow
    table: Dict[str, Dict[str, float]] = {}
    for name in reversed(wf.topological_order()):
        row: Dict[str, float] = {}
        children = wf.successors(name)
        for device in context.eligible_devices(name):
            worst_child = 0.0
            for child in children:
                best_for_child = float("inf")
                for cdev in context.eligible_devices(child):
                    cost = table[child][cdev.uid] + context.exec_time(
                        child, cdev.uid
                    )
                    if cdev.uid != device.uid:
                        cost += context.mean_comm(name, child)
                    if cost < best_for_child:
                        best_for_child = cost
                if best_for_child > worst_child:
                    worst_child = best_for_child
            row[device.uid] = worst_child
        table[name] = row
    return table


# --------------------------------------------------------------------- #
# EFT placement                                                         #
# --------------------------------------------------------------------- #


def eft_placement(
    context, schedule, task_name: str, device, allow_insertion: bool = True
) -> tuple:
    """(start, finish) of the earliest finish of ``task_name`` on ``device``.

    The data-ready time accounts for predecessor finishes plus edge
    transfers plus initial-input staging; the start then respects the
    device timeline with optional insertion.  This scalar kernel is both
    the reference for the row-wise :func:`repro.schedulers.base.eft_scan`
    and the production path for single-device queries.
    """
    dst_uid = device.uid
    ready = context.staging_time(task_name, dst_uid)
    release = context.release_times.get(task_name, 0.0)
    if release > ready:
        ready = release
    for pred in context.workflow.predecessors(task_name):
        pa = schedule.assignments[pred]
        arrival = pa.finish + context.comm_time(pred, task_name, pa.device, dst_uid)
        if arrival > ready:
            ready = arrival
    duration = context.exec_time(task_name, dst_uid)
    start = schedule.timeline(dst_uid).earliest_fit(ready, duration, allow_insertion)
    return start, start + duration
