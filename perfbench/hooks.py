"""Layer boundaries: the program's public callables the benchmark wraps.

Both the traced run (``tracing.py``) and the planted slowdown
(``planted.py``) wrap these callables from the benchmark's own code, so
no program file changes.  A name that no longer resolves (renamed or
removed by a later change) is reported as missing, never raised.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: layer -> ``module:qualname`` callables whose calls belong to it.  A
#: from-import binds its own name, so ``cache_key`` is wrapped in every
#: module that calls it through such a binding.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cell": ("repro.runner.jobs:execute_sim",),
    "decode": (
        "repro.workflows.serialize:workflow_from_dict",
        "repro.runner.specs:build",
    ),
    "plan.context": ("repro.schedulers.base:SchedulingContext.__init__",),
    # Plus every registered scheduler's ``schedule`` (see _schedulers).
    "plan.schedule": (),
    "execute": ("repro.core.executor:WorkflowExecutor.run",),
    "account": ("repro.core.orchestrator:account_energy",),
    "record": ("repro.runner.record:SimRecord.from_run",),
    "hashing": (
        "repro.runner.hashing:cache_key",
        "repro.runner.pool:cache_key",
        "repro.service.store:cache_key",
    ),
    "wire.parse": ("repro.service.api:parse_submission",),
}

#: Layers that together make up planning.
PLAN_LAYERS = ("plan.context", "plan.schedule")


@dataclass
class Target:
    """One wrappable attribute: ``getattr(owner, attr)`` is ``original``."""

    layer: str
    path: str
    owner: object
    attr: str
    original: Callable
    kind: str  # "function" or "classmethod"

    def install(self, wrapper: Callable) -> None:
        value = classmethod(wrapper) if self.kind == "classmethod" else wrapper
        setattr(self.owner, self.attr, value)

    def restore(self) -> None:
        value = (
            classmethod(self.original) if self.kind == "classmethod"
            else self.original
        )
        setattr(self.owner, self.attr, value)


def _resolve(layer: str, path: str) -> Target:
    module_name, _sep, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        # Read the class dict so a classmethod is seen as one.
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                owner, raw = klass, klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{qualname} not found")
        if isinstance(raw, classmethod):
            return Target(layer, path, owner, attr, raw.__func__, "classmethod")
        if not callable(raw):
            raise AttributeError(f"{qualname} is not callable")
        return Target(layer, path, owner, attr, raw, "function")
    raw = getattr(owner, attr)
    if not callable(raw):
        raise AttributeError(f"{qualname} is not callable")
    return Target(layer, path, owner, attr, raw, "function")


def _schedulers() -> List[str]:
    """``module:Class.schedule`` for every class defining a registered ``schedule``."""
    import repro.core  # noqa: F401  (registers HDWS)
    from repro.schedulers import REGISTRY

    paths = set()
    for factory in REGISTRY.values():
        if not isinstance(factory, type):
            continue
        for klass in factory.__mro__:
            if "schedule" in klass.__dict__:
                paths.add(f"{klass.__module__}:{klass.__qualname__}.schedule")
                break
    return sorted(paths)


def resolve(layers) -> Tuple[List[Target], Dict[str, str]]:
    """Targets for ``layers`` plus ``{path: reason}`` for names that are gone."""
    targets: List[Target] = []
    missing: Dict[str, str] = {}
    for layer in layers:
        paths = list(LAYERS[layer])
        if layer == "plan.schedule":
            try:
                paths += _schedulers()
            except (ImportError, AttributeError) as exc:
                missing["repro.schedulers:REGISTRY"] = f"{type(exc).__name__}: {exc}"
        for path in paths:
            try:
                targets.append(_resolve(layer, path))
            except (ImportError, AttributeError) as exc:
                missing[path] = f"{type(exc).__name__}: {exc}"
    return targets, missing
