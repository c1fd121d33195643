"""Scheduler interface and the shared estimation context.

:class:`SchedulingContext` snapshots everything an algorithm may consult —
eligible devices per task, execution-time estimates, communication and
staging estimates, and the classical rank helpers — so that every algorithm
in the zoo prices placements identically and differences in results come
from *policy*, not from divergent cost models.

The context holds one cost representation: a :class:`TaskRow` per task,
built once in ``__init__`` and aligned element-for-element with
``eligible_devices(task)``.  Every estimate lookup and every kernel reads
that row.  The rank kernels and PEFT's optimistic cost table stay numpy
reductions; :func:`eft_scan` is a scalar loop over the row.

Estimates can be systematically perturbed (``estimate_error_cv``) to model
bad profiling: the perturbation factor is drawn once per task and applied
across all devices, which is how mis-calibrated profilers actually err.
"""

from __future__ import annotations

import abc
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.platform.cluster import Cluster
from repro.platform.devices import Device
from repro.schedulers import _reference
from repro.schedulers.schedule import Schedule
from repro.workflows.graph import Workflow
from repro.workflows.task import DataFile


class SchedulingError(RuntimeError):
    """Raised when no feasible placement exists for some task."""


class TaskRow(NamedTuple):
    """One task's costs, aligned element-for-element with its devices.

    ``devices[i]`` (uid ``uids[i]``, on node ``nodes[i]``, at position
    ``alive_idx[i]`` of the cluster's alive devices) runs the task in
    ``exec[i]`` seconds after staging its initial inputs in
    ``staging[i]`` seconds.  ``index`` maps a uid back to its position.
    All values are plain Python floats and ints.  Tasks eligible on the
    same device specs share their device-side lists; treat every list as
    read-only.
    """

    devices: List[Device]
    uids: List[str]
    index: Dict[str, int]
    exec: List[float]
    nodes: List[str]
    staging: List[float]
    alive_idx: List[int]


class SchedulingContext:
    """Precomputed cost estimates for one (workflow, cluster) pair."""

    def __init__(
        self,
        workflow: Workflow,
        cluster: Cluster,
        estimate_error_cv: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        release_times: Optional[Dict[str, float]] = None,
    ) -> None:
        self.workflow = workflow
        self.cluster = cluster
        #: Earliest permissible start per task (online arrivals); tasks
        #: absent from the map may start at time 0.
        self.release_times: Dict[str, float] = dict(release_times or {})
        model = cluster.execution_model

        # Per-task systematic estimate error (one factor per task).
        error: Dict[str, float] = {}
        if estimate_error_cv > 0:
            if rng is None:
                raise ValueError(
                    "estimate_error_cv > 0 requires a caller-supplied rng; "
                    "derive it from the run seed (see Orchestrator._build_policy)"
                )
            sigma2 = np.log(1.0 + estimate_error_cv ** 2)
            for name in workflow.tasks:
                error[name] = float(
                    rng.lognormal(mean=-0.5 * sigma2, sigma=np.sqrt(sigma2))
                )

        self._node_of: Dict[str, str] = {
            d.uid: d.node.name for n in cluster.nodes for d in n.devices
        }
        alive = cluster.alive_devices()
        self._n_alive = len(alive)
        # Estimates are computed once per (task, distinct spec) and fanned
        # out to every device sharing the spec: presets instantiate many
        # devices from a handful of catalogue specs, so this collapses the
        # model-call count from |tasks| x |devices| to |tasks| x |specs|.
        specs = list({id(d.spec): d.spec for d in alive}.values())
        spec_pos = {id(spec): k for k, spec in enumerate(specs)}
        dev_spec = [spec_pos[id(d.spec)] for d in alive]
        # Device-side lists per eligible-spec mask, shared between rows.
        layouts: Dict[tuple, tuple] = {}
        self._rows: Dict[str, TaskRow] = {}
        for name, task in workflow.tasks.items():
            factor = error.get(name, 1.0)
            ests: List[Optional[float]] = []
            for spec in specs:
                est = None
                if spec.memory_gb >= task.memory_gb:
                    try:
                        est = model.estimate(task, spec) * factor
                    except ValueError:  # ineligible device class
                        pass
                ests.append(est)
            mask = tuple(est is not None for est in ests)
            layout = layouts.get(mask)
            if layout is None:
                keep = [i for i, k in enumerate(dev_spec) if mask[k]]
                uids = [alive[i].uid for i in keep]
                layout = layouts[mask] = (
                    [alive[i] for i in keep],
                    uids,
                    {uid: i for i, uid in enumerate(uids)},
                    [self._node_of[uid] for uid in uids],
                    keep,
                )
            devices, uids, index, nodes, keep = layout
            if not devices:
                raise SchedulingError(
                    f"task {name!r} has no eligible device on cluster "
                    f"{cluster.name!r} (classes {task.eligible_classes()}, "
                    f"memory {task.memory_gb} GB)"
                )
            # Every device on a node stages identically: one estimate per
            # distinct node, fanned out in device order.
            initial = [workflow.files[f] for f in task.inputs]
            initial = [f for f in initial if f.initial]
            if initial:
                per_node = {
                    n: self._staging_estimate(initial, n)
                    for n in dict.fromkeys(nodes)
                }
                staging = [per_node[n] for n in nodes]
            else:
                staging = [0.0] * len(nodes)
            exec_row = [ests[dev_spec[i]] for i in keep]
            self._rows[name] = TaskRow(
                devices, uids, index, exec_row, nodes, staging, keep
            )

        # Memo tables, keyed by names only, for values derived from the rows.
        self._mean_exec: Dict[str, float] = {}
        self._best_exec: Dict[str, float] = {}
        self._edge_mb: Dict[tuple, float] = {}
        self._mean_comm: Dict[tuple, float] = {}
        self._pair_coeff: Dict[tuple, tuple] = {}
        self._comm_rows: Dict[tuple, List[float]] = {}
        self._rank_arrays_cache: Optional[tuple] = None
        # Fast-path results of the whole-workflow kernels, kept so a
        # context reused across runs (see repro.runner.jobs) computes each
        # once: ranks keyed by ("up", use_best) / ("down",), and PEFT's
        # optimistic cost table.  Reference mode never reads or fills them.
        self._ranks: Dict[tuple, Dict[str, float]] = {}
        self._oct: Optional[Dict[str, Dict[str, float]]] = None

        # Cluster-average communication figures for rank computations.
        links = cluster.interconnect.links
        real_links = [l for l in links if l.src != "<core>"]
        if real_links and len(cluster.nodes) > 1:
            self.avg_bandwidth = float(np.mean([l.bandwidth for l in real_links]))
            self.avg_latency = float(np.mean([l.latency for l in real_links]))
        else:
            self.avg_bandwidth = float("inf")
            self.avg_latency = 0.0

    # ------------------------------------------------------------------ #
    # execution estimates                                                #
    # ------------------------------------------------------------------ #

    def eligible_devices(self, task_name: str) -> List[Device]:
        """Devices this task may run on (affinity, memory and liveness)."""
        return self._rows[task_name].devices

    def exec_time(self, task_name: str, device_uid: str) -> float:
        """Estimated runtime of a task on a device."""
        try:
            row = self._rows[task_name]
            return row.exec[row.index[device_uid]]
        except KeyError:
            raise SchedulingError(
                f"task {task_name!r} is not eligible on device {device_uid!r}"
            ) from None

    def mean_exec(self, task_name: str) -> float:
        """Mean runtime over eligible devices (HEFT's w-bar); memoized."""
        cached = self._mean_exec.get(task_name)
        if cached is None:
            cached = float(np.mean(self._rows[task_name].exec))
            self._mean_exec[task_name] = cached
        return cached

    def best_exec(self, task_name: str) -> float:
        """Best runtime over eligible devices; memoized."""
        cached = self._best_exec.get(task_name)
        if cached is None:
            cached = min(self._rows[task_name].exec)
            self._best_exec[task_name] = cached
        return cached

    def best_device(self, task_name: str) -> Device:
        """The device with the smallest runtime estimate (first on ties)."""
        row = self._rows[task_name]
        return row.devices[min(range(len(row.exec)), key=row.exec.__getitem__)]

    # ------------------------------------------------------------------ #
    # communication estimates                                            #
    # ------------------------------------------------------------------ #

    def _edge_data(self, src_task: str, dst_task: str) -> float:
        """Memoized bytes on edge src->dst (the EFT inner-loop hot lookup)."""
        key = (src_task, dst_task)
        cached = self._edge_mb.get(key)
        if cached is None:
            cached = self.workflow.edge_data_mb(src_task, dst_task)
            self._edge_mb[key] = cached
        return cached

    def _pair(self, src_node: str, dst_node: str) -> tuple:
        """(latency, eff_bandwidth, dst_disk_bandwidth) per node pair.

        The exact ingredients of :meth:`Cluster.transfer_estimate` for a
        cross-node pair, resolved once — the per-placement cost becomes
        three float ops instead of repeated object-graph walks.  A pair
        without an interconnect link raises the interconnect's KeyError.
        """
        key = (src_node, dst_node)
        cached = self._pair_coeff.get(key)
        if cached is None:
            src = self.cluster.node(src_node)
            dst = self.cluster.node(dst_node)
            link = self.cluster.interconnect.link(src_node, dst_node)
            eff_bw = min(link.bandwidth, src.nic_bandwidth, dst.nic_bandwidth)
            cached = (link.latency, eff_bw, dst.disk_bandwidth)
            self._pair_coeff[key] = cached
        return cached

    def comm_time(
        self, src_task: str, dst_task: str, src_uid: str, dst_uid: str
    ) -> float:
        """Estimated edge transfer time for a concrete placement pair.

        Memo lookups are inlined (no helper calls): this runs once per
        (predecessor, candidate-device) pair inside every EFT loop.
        """
        key = (src_task, dst_task)
        data = self._edge_mb.get(key)
        if data is None:
            data = self.workflow.edge_data_mb(src_task, dst_task)
            self._edge_mb[key] = data
        if data == 0.0:
            return 0.0
        node_of = self._node_of
        src_node = node_of[src_uid]
        dst_node = node_of[dst_uid]
        if src_node == dst_node:
            return 0.0
        coeff = self._pair_coeff.get((src_node, dst_node))
        if coeff is None:
            coeff = self._pair(src_node, dst_node)
        latency, eff_bw, disk_bw = coeff
        return latency + data / eff_bw + data / disk_bw

    def mean_comm(self, src_task: str, dst_task: str) -> float:
        """Placement-agnostic mean edge cost (HEFT's c-bar); memoized."""
        key = (src_task, dst_task)
        cached = self._mean_comm.get(key)
        if cached is not None:
            return cached
        data = self._edge_data(src_task, dst_task)
        if data == 0.0 or self.avg_bandwidth == float("inf"):
            cached = 0.0
        else:
            cached = self.avg_latency + data / self.avg_bandwidth
        self._mean_comm[key] = cached
        return cached

    def staging_time(self, task_name: str, device_uid: str) -> float:
        """Estimated time to stage the task's *initial* inputs to a device.

        Initial files born on a node (``DataFile.location``) are pulled
        over the interconnect; storage-resident ones pay the shared-storage
        path.  Like :meth:`exec_time`, defined for eligible devices only.
        """
        try:
            row = self._rows[task_name]
            return row.staging[row.index[device_uid]]
        except KeyError:
            raise SchedulingError(
                f"task {task_name!r} is not eligible on device {device_uid!r}"
            ) from None

    def _staging_estimate(self, initial: List[DataFile], node: str) -> float:
        """Time to stage the ``initial`` input files onto one node."""
        total = 0.0
        for f in initial:
            if f.location is None:
                total += self.cluster.staging_estimate(node, f.size_mb)
            elif f.location != node:
                total += self.cluster.transfer_estimate(
                    f.location, node, f.size_mb
                )
        return total

    # ------------------------------------------------------------------ #
    # rank helpers                                                       #
    # ------------------------------------------------------------------ #

    def upward_ranks(self, use_best: bool = False) -> Dict[str, float]:
        """Classical upward ranks: rank_u(t) = w(t) + max_child(c + rank_u).

        ``use_best=True`` replaces the mean execution time with the best
        over eligible devices (the heterogeneity-aware variant HDWS uses).
        Computed once per context by the vectorized kernel (the caller gets
        a copy) unless reference mode is active (see
        :mod:`repro.schedulers._reference`).
        """
        if _reference.reference_active():
            return _reference.upward_ranks(self, use_best)
        key = ("up", bool(use_best))
        ranks = self._ranks.get(key)
        if ranks is None:
            ranks = self._ranks[key] = _vec_upward_ranks(self, use_best)
        return dict(ranks)

    def downward_ranks(self) -> Dict[str, float]:
        """Classical downward ranks (distance from the entry nodes)."""
        if _reference.reference_active():
            return _reference.downward_ranks(self)
        ranks = self._ranks.get(("down",))
        if ranks is None:
            ranks = self._ranks[("down",)] = _vec_downward_ranks(self)
        return dict(ranks)

    # ------------------------------------------------------------------ #
    # kernel inputs                                                      #
    # ------------------------------------------------------------------ #

    def _comm_row(
        self, src_task: str, dst_task: str, src_uid: str
    ) -> Optional[List[float]]:
        """Edge transfer time to each of ``dst_task``'s eligible devices.

        Element ``[i]`` equals ``comm_time(src_task, dst_task, src_uid,
        uids[i])``: the same latency + data/bandwidth + data/disk
        arithmetic, so bit-identical.  Returns None for zero-byte edges,
        where the cost is 0 everywhere.  Memoized per (edge, source node),
        so repeated evaluations (e.g. Min-Min frontier rescans) are a
        dictionary hit.
        """
        data = self._edge_data(src_task, dst_task)
        if data == 0.0:
            return None
        src_node = self._node_of[src_uid]
        key = (src_task, dst_task, src_node)
        row = self._comm_rows.get(key)
        if row is None:
            row = []
            for node in self._rows[dst_task].nodes:
                if node == src_node:
                    row.append(0.0)
                else:
                    latency, eff_bw, disk_bw = self._pair(src_node, node)
                    row.append(latency + data / eff_bw + data / disk_bw)
            self._comm_rows[key] = row
        return row

    def _ready_list(self, task_name: str, schedule: Schedule) -> List[float]:
        """Data-ready time per eligible device.

        The elementwise max over staging, release and per-predecessor
        arrival times, with the same float ops in the same order as
        :func:`repro.schedulers._reference.eft_placement`, so the values
        are bit-identical to it.  The returned list may be the row's own
        staging list: callers must not mutate it.
        """
        ready = self._rows[task_name].staging
        preds = self.workflow.predecessors(task_name)
        release = self.release_times.get(task_name, 0.0)
        if not preds and release <= 0.0:
            return ready
        ready = list(ready)
        if release > 0.0:
            for i, r in enumerate(ready):
                if release > r:
                    ready[i] = release
        assignments = schedule.assignments
        for pred in preds:
            pa = assignments[pred]
            row = self._comm_row(pred, task_name, pa.device)
            finish = pa.finish
            if row is None:
                for i, r in enumerate(ready):
                    if finish > r:
                        ready[i] = finish
            else:
                for i, r in enumerate(ready):
                    arrival = finish + row[i]
                    if arrival > r:
                        ready[i] = arrival
        return ready

    def _rank_arrays(self) -> tuple:
        """CSR-style edge arrays for the vectorized rank kernels.

        Returns ``(order, succ_idx, succ_comm, pred_idx, pred_comm)`` where
        ``order`` is the topological order and, per position ``i``, the
        ``*_idx`` entries are intp arrays of neighbor positions and the
        ``*_comm`` entries the matching mean communication costs (None for
        tasks without neighbors on that side).
        """
        cached = self._rank_arrays_cache
        if cached is None:
            wf = self.workflow
            order = wf.topological_order()
            index = {name: i for i, name in enumerate(order)}
            succ_idx: List[Optional[np.ndarray]] = []
            succ_comm: List[Optional[np.ndarray]] = []
            pred_idx: List[Optional[np.ndarray]] = []
            pred_comm: List[Optional[np.ndarray]] = []
            for name in order:
                children = wf.successors(name)
                if children:
                    succ_idx.append(
                        np.array([index[c] for c in children], dtype=np.intp)
                    )
                    succ_comm.append(
                        np.array([self.mean_comm(name, c) for c in children])
                    )
                else:
                    succ_idx.append(None)
                    succ_comm.append(None)
                parents = wf.predecessors(name)
                if parents:
                    pred_idx.append(
                        np.array([index[p] for p in parents], dtype=np.intp)
                    )
                    pred_comm.append(
                        np.array([self.mean_comm(p, name) for p in parents])
                    )
                else:
                    pred_idx.append(None)
                    pred_comm.append(None)
            cached = (order, succ_idx, succ_comm, pred_idx, pred_comm)
            self._rank_arrays_cache = cached
        return cached


class Scheduler(abc.ABC):
    """Interface every scheduling algorithm implements."""

    #: Short registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> Schedule:
        """Produce a full static schedule for the context's workflow."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: Single-device EFT placement — the scalar kernel, shared verbatim with
#: the differential reference (one implementation, two roles).
eft_placement = _reference.eft_placement


def eft_scan(
    context: SchedulingContext,
    schedule: Schedule,
    task_name: str,
    allow_insertion: bool = True,
) -> tuple:
    """(devices, starts, finishes) of EFT placement on *every* eligible device.

    Equivalent to looping :func:`eft_placement` over
    ``eligible_devices(task)``, as one scalar loop over the task's row: the
    data-ready times come from :meth:`SchedulingContext._ready_list`, and
    only the timeline gap search runs per device.  ``starts``/``finishes``
    are plain Python floats, bit-identical to the per-device loop;
    selection policies keep their exact tie-break semantics by iterating
    the returned lists.
    """
    row = context._rows[task_name]
    starts: List[float] = []
    finishes: List[float] = []
    if _reference.reference_active():
        for device in row.devices:
            start, finish = _reference.eft_placement(
                context, schedule, task_name, device, allow_insertion
            )
            starts.append(start)
            finishes.append(finish)
        return row.devices, starts, finishes
    ready = context._ready_list(task_name, schedule)
    durations = row.exec
    timelines = schedule.timelines
    for i, uid in enumerate(row.uids):
        duration = durations[i]
        tl = timelines.get(uid)
        if tl is None:
            # Untouched device: the earliest fit on an empty timeline is
            # simply max(ready, 0) — skip materializing the timeline.
            start = ready[i]
            if start < 0.0:
                start = 0.0
        else:
            start = tl._index.earliest_fit(ready[i], duration, allow_insertion)
        starts.append(start)
        finishes.append(start + duration)
    return row.devices, starts, finishes


def _vec_upward_ranks(
    context: SchedulingContext, use_best: bool = False
) -> Dict[str, float]:
    """Vectorized upward ranks over the context's CSR edge arrays.

    Per task the child max runs as one numpy ``comm + rank`` gather-reduce;
    float max is order-independent and elementwise addition matches the
    scalar sums, so the result is bit-identical to the reference kernel.
    """
    order, succ_idx, succ_comm, _pi, _pc = context._rank_arrays()
    weight = context.best_exec if use_best else context.mean_exec
    n = len(order)
    ranks = np.zeros(n)
    for i in range(n - 1, -1, -1):
        ci = succ_idx[i]
        best_child = 0.0
        if ci is not None:
            cand = float(np.max(succ_comm[i] + ranks[ci]))
            if cand > best_child:
                best_child = cand
        ranks[i] = weight(order[i]) + best_child
    out = ranks.tolist()
    return {name: out[i] for i, name in enumerate(order)}


def _vec_downward_ranks(context: SchedulingContext) -> Dict[str, float]:
    """Vectorized downward ranks (same exactness argument as upward)."""
    order, _si, _sc, pred_idx, pred_comm = context._rank_arrays()
    n = len(order)
    w_mean = np.array([context.mean_exec(name) for name in order])
    ranks = np.zeros(n)
    for i in range(n):
        pi = pred_idx[i]
        best_parent = 0.0
        if pi is not None:
            cand = float(np.max(ranks[pi] + w_mean[pi] + pred_comm[i]))
            if cand > best_parent:
                best_parent = cand
        ranks[i] = best_parent
    out = ranks.tolist()
    return {name: out[i] for i, name in enumerate(order)}
