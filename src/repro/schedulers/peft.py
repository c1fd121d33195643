"""PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, 2014).

Extends HEFT with one level of lookahead via the Optimistic Cost Table:
``OCT[t][d]`` is the optimistic remaining path length if ``t`` runs on
``d``, assuming every descendant also gets its best device.  Tasks are
ranked by their mean OCT row and placed on the device minimizing
``EFT + OCT`` rather than bare EFT, which avoids greedily grabbing a fast
device that dooms a child.
"""

from __future__ import annotations

import heapq
from typing import Dict

import numpy as np

from repro.schedulers import _reference
from repro.schedulers.base import Scheduler, SchedulingContext, eft_scan
from repro.schedulers.schedule import Schedule


def optimistic_cost_table(context: SchedulingContext) -> Dict[str, Dict[str, float]]:
    """OCT[t][d] over eligible devices, computed bottom-up.

    ``OCT[t][d]`` is the optimistic remaining path length below ``t`` if it
    runs on ``d`` and every descendant gets its best device.  Exit tasks
    have an all-zero row.  Shared by PEFT and by HDWS's lookahead term.
    Computed once per context by the vectorized kernel (the caller gets a
    copy) unless reference mode is active.
    """
    if _reference.reference_active():
        return _reference.optimistic_cost_table(context)
    table = context._oct
    if table is None:
        table = context._oct = _vec_optimistic_cost_table(context)
    return {name: dict(row) for name, row in table.items()}


def _vec_optimistic_cost_table(
    context: SchedulingContext,
) -> Dict[str, Dict[str, float]]:
    """Vectorized OCT via the min / excluded-min trick.

    For a child placed anywhere, ``best_for_child(p) = min(A_p,
    excl_min(p) + comm)`` where ``A_d = OCT[child][d] + exec(child, d)``
    and ``excl_min(p)`` is the minimum of ``A`` over devices other than
    ``p`` — the overall minimum ``m1``, unless ``p`` is its *unique*
    argmin, in which case the second minimum ``m2``.  Both branches use
    the exact values the scalar reference accumulates (float min/max are
    order-independent and ``min(A + c) == min(A) + c`` exactly because
    float addition is monotone), so the table is bit-identical.
    """
    wf = context.workflow
    rows = context._rows
    n_dev = context._n_alive
    octs: Dict[str, np.ndarray] = {}
    for name in reversed(wf.topological_order()):
        gidx = rows[name].alive_idx
        worst = np.zeros(len(gidx))
        for child in wf.successors(name):
            crow = rows[child]
            a = octs[child] + crow.exec
            k = int(np.argmin(a))
            m1 = float(a[k])
            mc = context.mean_comm(name, child)
            a_full = np.full(n_dev, np.inf)
            a_full[crow.alive_idx] = a
            excl_full = np.full(n_dev, m1)
            if np.count_nonzero(a == m1) == 1:
                m2 = float(np.min(np.delete(a, k))) if len(a) > 1 else np.inf
                excl_full[crow.alive_idx[k]] = m2
            best_full = np.minimum(a_full, excl_full + mc)
            np.maximum(worst, best_full[gidx], out=worst)
        octs[name] = worst
    return {
        name: dict(zip(rows[name].uids, worst.tolist()))
        for name, worst in octs.items()
    }


class PeftScheduler(Scheduler):
    """Lookahead list scheduler based on the Optimistic Cost Table."""

    name = "peft"

    def schedule(self, context: SchedulingContext) -> Schedule:
        """Build the OCT, rank by its row means, place by EFT + OCT."""
        wf = context.workflow
        oct_table = optimistic_cost_table(context)
        rank = {
            name: sum(row.values()) / len(row)
            for name, row in oct_table.items()
        }

        schedule = Schedule()
        indeg: Dict[str, int] = {n: len(wf.predecessors(n)) for n in wf.tasks}
        heap = [(-rank[n], n) for n, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        while heap:
            _r, name = heapq.heappop(heap)
            best = None
            oct_row = oct_table[name]
            devices, starts, finishes = eft_scan(context, schedule, name)
            for device, start, finish in zip(devices, starts, finishes):
                score = finish + oct_row[device.uid]
                if best is None or score < best[3] - 1e-15:
                    best = (device, start, finish, score)
            device, start, finish, _score = best
            schedule.add(name, device.uid, start, finish)
            for child in wf.successors(name):
                indeg[child] -= 1
                if indeg[child] == 0:
                    heapq.heappush(heap, (-rank[child], child))
        return schedule
