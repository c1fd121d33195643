"""Boot and drive the campaign service (``repro-flow serve`` + ``worker``).

The server and the worker are real subprocesses started through
``cli.py`` in this directory, which is ``repro.cli.main`` plus the
optional planted slowdown (see ``planted.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
BOOT_TIMEOUT_S = 60.0


def request(
    port: int, path: str, body: Optional[bytes] = None, timeout: float = 60.0
) -> Tuple[int, Dict[str, Any]]:
    """One HTTP call against the service; ``(status, decoded JSON body)``."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _spawn(args: List[str], log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    with open(log_path, "w", encoding="utf-8") as log:
        return subprocess.Popen(
            [sys.executable, os.path.join(HERE, "cli.py"), *args],
            cwd=REPO_ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )


def _wait_for(predicate, what: str, proc: subprocess.Popen) -> None:
    deadline = time.perf_counter() + BOOT_TIMEOUT_S
    while time.perf_counter() < deadline:
        if predicate():
            return
        if proc.poll() is not None:
            raise RuntimeError(f"{what}: process exited with {proc.returncode}")
        time.sleep(0.005)
    raise RuntimeError(f"timed out waiting for {what}")


class Service:
    """One ``serve`` process plus one ``worker --jobs 1`` process."""

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.store_path = os.path.join(work_dir, "store.db")
        self.cache_dir = os.path.join(work_dir, "cache")
        self.procs: Dict[str, subprocess.Popen] = {}
        self.port = 0

    def start(self) -> None:
        """Boot the server, then a keep-alive worker; return once it polls."""
        os.makedirs(self.work_dir, exist_ok=True)
        serve_log = os.path.join(self.work_dir, "serve.log")
        self.procs["serve"] = _spawn(
            ["serve", "--store", self.store_path, "--port", "0"], serve_log
        )

        def bound() -> bool:
            with open(serve_log, "r", encoding="utf-8") as fh:
                for line in fh:
                    if "listening on http://" in line:
                        self.port = int(line.rsplit(":", 1)[1])
                        return True
            return False

        _wait_for(bound, "server to bind", self.procs["serve"])
        self.procs["worker"] = _spawn(
            ["worker", "--store", self.store_path,
             "--cache-dir", self.cache_dir, "--jobs", "1", "--keep-alive"],
            os.path.join(self.work_dir, "worker.log"),
        )
        # Every worker poll advances the store's logical clock.
        _wait_for(
            lambda: request(self.port, "/api/ping")[1].get("tick", 0) > 0,
            "worker to poll", self.procs["worker"],
        )

    @contextlib.contextmanager
    def paused(self):
        """Hold the server and worker stopped (SIGSTOP) while the block runs."""
        procs = [proc for proc in self.procs.values() if proc.poll() is None]
        for proc in procs:
            os.kill(proc.pid, signal.SIGSTOP)
        try:
            yield
        finally:
            for proc in procs:
                os.kill(proc.pid, signal.SIGCONT)

    def stop(self) -> None:
        """Stop the server over its API and the worker by signal; reap both."""
        serve = self.procs.get("serve")
        if serve is not None and serve.poll() is None and self.port:
            try:
                request(self.port, "/api/stop", b"{}", timeout=10.0)
            except OSError:
                pass
        worker = self.procs.get("worker")
        if worker is not None and worker.poll() is None:
            worker.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
        self.procs.clear()
