"""Min-Min batch heuristic adapted to workflows.

At each step, consider every *ready* task (all predecessors scheduled),
compute its best earliest completion time over eligible devices, and commit
the (task, device) pair with the smallest such completion time.  Min-Min
finishes short tasks first, which maximizes early throughput but starves
the critical path — exactly the failure mode the deep-chained Epigenomics
workflow exposes (T1).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.schedulers.base import (
    Scheduler,
    SchedulingContext,
    eft_placement,
    eft_scan,
)
from repro.schedulers.schedule import Schedule


class MinMinScheduler(Scheduler):
    """Batch-mode Min-Min over the ready frontier."""

    name = "minmin"

    #: Pick the candidate with the minimum best-completion-time.
    take_max = False

    def schedule(self, context: SchedulingContext) -> Schedule:
        """Repeatedly commit the extremal (task, device) ready pair.

        The frontier re-evaluation is incremental: a ready task's data-ready
        times are fixed (all predecessors are already placed), so committing
        one placement can only change its candidates *on the committed
        device*.  Each round therefore refreshes exactly one (task, device)
        cell per surviving cached task instead of rescanning every device —
        the values are identical to a full rescan, so the selection (with
        its epsilon tie-breaks) is unchanged.
        """
        wf = context.workflow
        schedule = Schedule()
        indeg: Dict[str, int] = {n: len(wf.predecessors(n)) for n in wf.tasks}
        ready: Set[str] = {n for n, d in indeg.items() if d == 0}

        # name -> [devices, starts, finishes, uid->position, best]
        cache: Dict[str, list] = {}
        dirty_uid = None
        while ready:
            chosen = None
            for name in sorted(ready):
                entry = cache.get(name)
                stale = True
                if entry is None:
                    devices, starts, finishes = eft_scan(context, schedule, name)
                    entry = [
                        devices,
                        starts,
                        finishes,
                        context._rows[name].index,
                        None,
                    ]
                    cache[name] = entry
                else:
                    devices, starts, finishes = entry[0], entry[1], entry[2]
                    i = entry[3].get(dirty_uid)
                    if i is not None:
                        starts[i], finishes[i] = eft_placement(
                            context, schedule, name, devices[i]
                        )
                    else:
                        # Nothing about this candidate row changed since
                        # its best was last computed — reuse it.
                        stale = False
                if stale:
                    best = None
                    for device, start, finish in zip(devices, starts, finishes):
                        if best is None or finish < best[2] - 1e-15:
                            best = (device, start, finish)
                    entry[4] = best
                else:
                    best = entry[4]
                if chosen is None:
                    better = True
                elif self.take_max:
                    better = best[2] > chosen[3] + 1e-15
                else:
                    better = best[2] < chosen[3] - 1e-15
                if better:
                    chosen = (name, best[0], best[1], best[2])
            name, device, start, finish = chosen
            schedule.add(name, device.uid, start, finish)
            dirty_uid = device.uid
            cache.pop(name, None)
            ready.discard(name)
            for child in wf.successors(name):
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.add(child)
        return schedule
