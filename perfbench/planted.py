"""A planted slowdown, for the gate self-test (``selftest.py``).

``PERFBENCH_PLANT="plan:0.3"`` makes every call into the planning layers
busy-wait for 0.3 times its own duration after it returns, i.e. it makes
planning 30 % slower in every process of the run.  ``run.py`` installs
it at import, which covers the pool workers (they import ``run.py`` as
``__mp_main__``); ``cli.py`` installs it in the service subprocesses.
Unset, nothing is wrapped.
"""

from __future__ import annotations

import os
import threading
import time

import hooks

ENV = "PERFBENCH_PLANT"


def _slowed(original, factor: float, depth: threading.local):
    def wrapper(*args, **kwargs):
        if getattr(depth, "n", 0):
            return original(*args, **kwargs)
        depth.n = 1
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            until = time.perf_counter() + factor * (time.perf_counter() - start)
            while time.perf_counter() < until:
                pass
            depth.n = 0

    return wrapper


def install_from_env() -> None:
    spec = os.environ.get(ENV, "").strip()
    if not spec:
        return
    name, _sep, factor = spec.partition(":")
    layers = hooks.PLAN_LAYERS if name == "plan" else (name,)
    targets, missing = hooks.resolve(layers)
    if missing or not targets:
        raise SystemExit(f"{ENV}={spec}: cannot wrap {sorted(missing) or layers}")
    depth = threading.local()  # one guard: nested plan calls slow once
    for target in targets:
        target.install(_slowed(target.original, float(factor), depth))
