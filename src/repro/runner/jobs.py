"""Simulation cells and the worker entry points that execute them.

A :class:`SimJob` is the *data* description of one simulation: the
serialized workflow document, a cluster factory spec, a scheduler name or
factory spec, and the run-config dict (seed, noise, fault model, recovery
policy, governor, mode — object values as factory specs).  Workers
rebuild everything from the description, so executing a cell inline, in a
forked pool worker or from a cache-warmed rerun goes through the *same*
construction path and therefore yields bit-identical numbers.  What a
worker rebuilds is memoized per process by content (``_workflow_memo``,
``_plan_memo``), so cells sharing a workflow and platform share the
decoded workflow, the cluster and the planning context.

The module-level ``execute_*`` functions are the ``multiprocessing``
entry points; payloads are plain dicts so both fork and spawn start
methods can ship them.

**Failure is data**: :func:`execute_sim` never lets a cell exception
cross the pool boundary.  It returns a serialized
:class:`~repro.runner.record.CellFailure` instead — error class,
message, the fully formatted chained traceback (exception chains do not
survive pickling; the text does), failure category and attempt count —
so one poison cell cannot tear down a streaming campaign, and the
parent can decide to retry, quarantine or raise with full context.

Payloads may carry three out-of-band keys the cache key never sees
(they are runner policy, not cell content): ``attempt`` (1-based
execution count, stamped by the retry loop), ``cell_key`` (the cell's
content hash, used by deterministic failure injection) and ``inject``
(the parsed ``REPRO_FAIL_INJECT`` spec — threading it through the
payload instead of worker-side environment reads keeps injection
working under every start method).
"""

from __future__ import annotations

import hashlib
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Union

from repro.runner import specs
from repro.runner.health import TransientCellError, classify_exception
from repro.runner.record import CellFailure, SimRecord, TimingRecord

if TYPE_CHECKING:
    from repro.schedulers.base import SchedulingContext


@dataclass(frozen=True)
class SimJob:
    """One ``(workflow, cluster, scheduler, config)`` simulation cell.

    Attributes:
        workflow: Serialized workflow document
            (:func:`repro.workflows.serialize.workflow_to_dict` output).
        cluster: Factory spec for the platform.
        scheduler: Scheduler registry name, or a factory spec for a
            parameterized instance.
        config: Extra :class:`~repro.core.orchestrator.RunConfig` fields;
            object-valued fields (fault_model, recovery, governor) as
            factory specs.
        label: Human-readable tag for diagnostics; not part of the key.
    """

    workflow: Dict[str, Any]
    cluster: Dict[str, Any]
    scheduler: Union[str, Dict[str, Any]]
    config: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    kind = "sim"

    def payload(self) -> Dict[str, Any]:
        """Picklable dict handed to the pool worker.

        Carries a content fingerprint of the workflow document so the
        worker can recognise the same document across payload copies
        (pickling gives every copy a fresh identity) and rebuild the
        Workflow once per document, not once per cell.
        """
        from repro.runner.hashing import workflow_fingerprint

        return {
            "kind": self.kind,
            "workflow": self.workflow,
            "workflow_fp": workflow_fingerprint(self.workflow),
            "cluster": self.cluster,
            "scheduler": self.scheduler,
            "config": self.config,
            "label": self.label,
        }


@dataclass(frozen=True)
class TimingJob:
    """A scheduling-call wall-clock measurement (experiment T5).

    Timing cells are never cached — a stored wall-clock time is not a
    property of the inputs — and their absolute values are only
    comparable within one ``--jobs`` setting.
    """

    workflow: Dict[str, Any]
    cluster: Dict[str, Any]
    scheduler: Union[str, Dict[str, Any]]
    config: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    kind = "timing"

    #: A sim cell's payload shape, workflow fingerprint included.
    payload = SimJob.payload


def _build_scheduler(spec: Union[str, Dict[str, Any]]):
    """Registry name → name (resolved by RunConfig); factory spec → instance."""
    if isinstance(spec, str):
        return spec
    return specs.build(spec)


#: Deserialized workflows keyed by content fingerprint (the key survives
#: pickling across the process boundary).  Campaign builders share one
#: document across the cells of a grid row (e.g. the 8 golden scheduler
#: cells per suite), so workers rebuild each workflow once per distinct
#: document — keeping its lazily-built graph caches warm — instead of
#: once per cell.
_workflow_memo: Dict[str, Any] = {}
_WORKFLOW_MEMO_MAX = 16


def _workflow_for(doc: Dict[str, Any], fingerprint: str):
    """The Workflow for ``doc``, memoized by its content fingerprint."""
    from repro.workflows.serialize import workflow_from_dict

    wf = _workflow_memo.get(fingerprint)
    if wf is None:
        wf = workflow_from_dict(doc)
        if len(_workflow_memo) >= _WORKFLOW_MEMO_MAX:
            _workflow_memo.clear()
        _workflow_memo[fingerprint] = wf
    return wf


#: Static-mode planning contexts keyed by content: the workflow
#: fingerprint, the canonical cluster-spec JSON, the estimate error, the
#: run seed when (and only when) that error is non-zero — it seeds the
#: error draw — and the release times.  Each entry is a context; it
#: holds the workflow, the cluster built from the spec, and its own
#: rank, comm-row and optimistic-cost memos.  A campaign
#: runs every scheduler and run seed of a (document, platform) pair
#: through one entry, so a worker plans from one context per pair
#: instead of rebuilding the cluster and the context per cell.  A run
#: writes its state onto the cluster (link and storage contention,
#: device failures) and ``Orchestrator.run`` resets it first, so a
#: context serves one run at a time: ``_checkout_plan`` takes the entry
#: out of the memo and ``_checkin_plan`` puts it back once the run has
#: finished.  A concurrent run of the same key (in-process
#: workers on two threads) finds no entry and builds its own.  Keys hold
#: no object identities, so no caller-owned object can go stale under
#: them.
_plan_memo: Dict[tuple, "SchedulingContext"] = {}
_PLAN_MEMO_MAX = 16


def _plan_key(payload: Dict[str, Any], config) -> tuple:
    """Content key of a cell's planning context (see ``_plan_memo``)."""
    from repro.runner.hashing import canonical_json

    cv = config.estimate_error_cv
    return (
        payload["workflow_fp"],
        canonical_json(payload["cluster"]),
        cv,
        config.seed if cv > 0 else None,
        tuple(sorted(config.release_times.items())),
    )


def _checkout_plan(payload: Dict[str, Any], config) -> tuple:
    """(workflow, cluster, context, key) for one run of a cell.

    Static-mode cells take their context out of ``_plan_memo``
    (building it on a miss); the caller owns it, and its cluster, until
    it hands it back with ``_checkin_plan``.  Other cells get a fresh
    workflow lookup and cluster, context and key None, and the run
    builds its own context.
    """
    from repro.core.orchestrator import planning_context

    fp = payload["workflow_fp"]
    if config.mode != "static":
        return (
            _workflow_for(payload["workflow"], fp),
            specs.build(payload["cluster"]),
            None,
            None,
        )
    key = _plan_key(payload, config)
    context = _plan_memo.pop(key, None)
    if context is None:
        wf = _workflow_for(payload["workflow"], fp)
        cluster = specs.build(payload["cluster"])
        try:
            context = planning_context(wf, cluster, config)
        except Exception:
            # An unplannable cell: the run rebuilds the context after
            # validation and prechecks and raises in their order.
            return wf, cluster, None, None
    return context.workflow, context.cluster, context, key


def _checkin_plan(key: tuple, context: "SchedulingContext") -> None:
    """Return a checked-out context to ``_plan_memo`` after its run."""
    if len(_plan_memo) >= _PLAN_MEMO_MAX:
        _plan_memo.clear()
    _plan_memo[key] = context


def _maybe_inject_failure(payload: Dict[str, Any]) -> None:
    """Deterministic failure injection, driven by the payload's spec.

    The parent stamps the parsed ``REPRO_FAIL_INJECT`` spec into each
    payload (see :func:`repro.runner.pool.inject_spec_from_env`).  Two
    fault shapes, both decided without any ambient entropy:

    * **poison** — cells whose label is listed fail every attempt with a
      permanent error (they must end up quarantined, never retried to
      success);
    * **transient** — a seeded hash draw over ``(cell key, seed)`` fails
      the matching fraction of cells *on their first attempt only*, so a
      retried cell deterministically succeeds and its record is
      byte-identical to an injection-free run.
    """
    spec = payload.get("inject")
    if not spec:
        return
    label = payload.get("label", "")
    if label and label in spec.get("poison", ()):
        raise RuntimeError(f"injected poison cell {label}")
    rate = float(spec.get("rate", 0.0) or 0.0)
    if rate <= 0.0 or int(payload.get("attempt", 1)) != 1:
        return
    token = f"{payload.get('cell_key') or label}:{spec.get('seed', 0)}"
    draw = int(hashlib.sha256(token.encode("utf-8")).hexdigest()[:8], 16)
    if draw / float(0xFFFFFFFF) < rate:
        raise TransientCellError(
            f"injected transient failure ({label or 'unlabeled cell'})"
        )


def _failure_dict(
    exc: Exception, payload: Dict[str, Any], wall_s: float
) -> Dict[str, Any]:
    """Serialize a worker exception as a CellFailure dict (never raises)."""
    return CellFailure(
        error_type=type(exc).__qualname__,
        message=str(exc),
        traceback=traceback_module.format_exc(),
        category=classify_exception(exc),
        attempts=int(payload.get("attempt", 1)),
        wall_s=wall_s,
        label=payload.get("label", ""),
    ).to_dict()


def execute_sim(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker: rebuild the cell's objects, run it, return the record dict.

    A failing cell returns a serialized
    :class:`~repro.runner.record.CellFailure` instead of raising: the
    exception's class, message and *formatted chained traceback* are
    captured here, on the worker side of the pickle boundary, where the
    chain still exists.  The parent decides whether that failure is
    retried, quarantined or re-raised.
    """
    # The import registers HDWS in the scheduler registry inside workers.
    import repro.core  # noqa: F401
    from repro.core.orchestrator import Orchestrator, RunConfig

    t0 = time.perf_counter()
    try:
        _maybe_inject_failure(payload)
        scheduler = _build_scheduler(payload["scheduler"])
        config = RunConfig(
            scheduler=scheduler,
            **{k: specs.build(v) for k, v in payload["config"].items()},
        )
        wf, cluster, context, key = _checkout_plan(payload, config)
        result = Orchestrator(config).run(wf, cluster, context=context)
        if context is not None:
            # A run that raised drops its context instead.
            _checkin_plan(key, context)
        return SimRecord.from_run(result).to_dict()
    except Exception as exc:
        return _failure_dict(exc, payload, time.perf_counter() - t0)


def execute_timing(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker: build the context, time the scheduling call itself."""
    import repro.core  # noqa: F401
    from repro.schedulers.base import SchedulingContext

    try:
        wf = _workflow_for(payload["workflow"], payload["workflow_fp"])
        cluster = specs.build(payload["cluster"])
        scheduler = _build_scheduler(payload["scheduler"])
        if isinstance(scheduler, str):
            from repro.schedulers import REGISTRY

            scheduler = REGISTRY[scheduler]()
        context = SchedulingContext(wf, cluster)
        t0 = time.perf_counter()
        schedule = scheduler.schedule(context)
        elapsed = time.perf_counter() - t0
        schedule.validate_against(wf)
        return TimingRecord(elapsed_s=elapsed, n_tasks=wf.n_tasks).to_dict()
    except Exception as exc:
        # Chain the original (debuggable in-process) *and* embed the
        # formatted traceback: the chain does not survive the pickle
        # boundary back to the parent, the text does.
        raise RuntimeError(
            f"timing cell {payload.get('label') or '<unlabeled>'} failed: "
            f"{exc}\n--- worker traceback ---\n"
            f"{traceback_module.format_exc()}"
        ) from exc


def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch a payload to its executor by kind (the pool map target)."""
    if payload["kind"] == "sim":
        return execute_sim(payload)
    if payload["kind"] == "timing":
        return execute_timing(payload)
    raise ValueError(f"unknown job kind {payload['kind']!r}")
