"""The campaign service's JSON API — stdlib ``http.server``, no pickle.

One :class:`ThreadingHTTPServer` fronts a shared :class:`JobStore`:
every request runs in its own handler thread, every store call is
serialized by the store's internal lock, and every body on the wire is
a schema-tagged JSON document validated at the boundary
(:mod:`repro.service.wire`).  Workers are *not* behind this server —
they are separate processes sharing the store file through WAL — so the
API stays responsive while campaigns execute.

Endpoints (all responses wear the ``repro.service.response/v1``
envelope)::

    GET  /api/ping                         liveness + logical tick
    POST /api/campaigns                    submit (submit/v1 body)
    GET  /api/campaigns                    all campaigns + state counts
    GET  /api/campaigns/<id>               one campaign's status
    GET  /api/campaigns/<id>/cells         its cells (?state= filters)
    GET  /api/campaigns/<id>/cells/<key>   one cell, result included
    GET  /api/metrics                      observe events + store counts
    GET  /api/store                        full store dump (CI artifact)
    POST /api/drain                        refuse new submissions
    POST /api/stop                         drain + shut the server down

Error contract: malformed bodies are 400 with the validator's message,
unknown resources 404, a drained server answers submissions with 503 —
clients never see a traceback page.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse, parse_qs

from repro.observe.events import emit_event, events_snapshot
from repro.service.store import CELL_STATES, JobStore, StoreError
from repro.service.wire import WireError, parse_submission, response

#: Request body size cap — a submission of thousands of cells fits in a
#: few MB; anything larger is a client bug, not a campaign.
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server plus the shared service state handlers use."""

    #: Handler threads must not outlive a stopped server.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: JobStore,
        *,
        emit=None,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.store = store
        self.draining = threading.Event()
        self.emit = emit


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the shared store (one instance per request)."""

    server: ServiceServer  # narrowed for readability; set by the server
    protocol_version = "HTTP/1.1"
    #: A reply is sent as two writes (headers, then body).  With Nagle on,
    #: the body waits for the client's delayed ACK of the headers, which
    #: stalls every keep-alive response by tens of milliseconds.
    disable_nagle_algorithm = True

    # -------------------------------------------------------------- #
    # plumbing                                                       #
    # -------------------------------------------------------------- #

    def log_message(self, fmt: str, *args) -> None:
        emit = self.server.emit
        if emit is not None:
            emit(f"[serve] {self.address_string()} {fmt % args}")

    def _reply(self, status: int, body: Dict[str, Any]) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _fail(self, status: int, message: str) -> None:
        self._reply(status, response(False, error=message))

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length", "0") or "0")
        if length <= 0:
            raise WireError("request body is required")
        if length > MAX_BODY_BYTES:
            raise WireError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"request body is not valid JSON: {exc}")

    # -------------------------------------------------------------- #
    # routing                                                        #
    # -------------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        try:
            self._route_get()
        except StoreError as exc:
            self._fail(404, str(exc))
        except Exception as exc:  # never a traceback page
            self._fail(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        try:
            self._route_post()
        except WireError as exc:
            self._fail(400, str(exc))
        except StoreError as exc:
            self._fail(404, str(exc))
        except Exception as exc:
            self._fail(500, f"{type(exc).__name__}: {exc}")

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        store = self.server.store
        if parts == ["api", "ping"]:
            self._reply(200, response(
                True, tick=store.now(), draining=self.server.draining.is_set(),
            ))
        elif parts == ["api", "campaigns"]:
            self._reply(200, response(True, campaigns=store.campaigns()))
        elif len(parts) == 3 and parts[:2] == ["api", "campaigns"]:
            self._reply(200, response(True, campaign=store.campaign(parts[2])))
        elif (
            len(parts) == 4
            and parts[:2] == ["api", "campaigns"]
            and parts[3] == "cells"
        ):
            state = self._state_filter(url.query)
            store.campaign(parts[2])  # 404 for unknown ids, not []
            self._reply(200, response(
                True, cells=store.cells(parts[2], state=state),
            ))
        elif (
            len(parts) == 5
            and parts[:2] == ["api", "campaigns"]
            and parts[3] == "cells"
        ):
            cell = store.cell(parts[2], parts[4])
            if cell is None:
                self._fail(404, f"unknown cell {parts[2]}/{parts[4]}")
            else:
                self._reply(200, response(True, cell=cell))
        elif parts == ["api", "metrics"]:
            self._reply(200, response(
                True,
                tick=store.now(),
                counts=store.counts(),
                events=events_snapshot(),
            ))
        elif parts == ["api", "store"]:
            self._reply(200, response(True, dump=store.dump()))
        else:
            self._fail(404, f"no such resource: {url.path}")

    def _route_post(self) -> None:
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        store = self.server.store
        if parts == ["api", "campaigns"]:
            if self.server.draining.is_set():
                self._fail(503, "server is draining; submissions refused")
                return
            name, jobs = parse_submission(self._read_json())
            campaign_id = store.submit(name, jobs)
            emit_event(
                "service.submit", campaign=campaign_id, cells=len(jobs),
            )
            self._reply(200, response(
                True, campaign=store.campaign(campaign_id),
            ))
        elif parts == ["api", "drain"]:
            self.server.draining.set()
            self._reply(200, response(
                True, draining=True, counts=store.counts(),
            ))
        elif parts == ["api", "stop"]:
            self.server.draining.set()
            self._reply(200, response(True, stopping=True))
            # shutdown() blocks until serve_forever returns; from a
            # handler thread that is safe — but only after the reply
            # above has hit the socket.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
        else:
            self._fail(404, f"no such resource: {self.path}")

    @staticmethod
    def _state_filter(query: str) -> Optional[str]:
        params = parse_qs(query)
        values = params.get("state")
        if not values:
            return None
        state = values[0]
        if state not in CELL_STATES:
            raise StoreError(
                f"unknown state {state!r}; states are {CELL_STATES}"
            )
        return state


def build_server(
    store: JobStore,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    emit=None,
) -> ServiceServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port."""
    return ServiceServer((host, port), store, emit=emit)


def serve(
    store: JobStore,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    emit=None,
) -> None:
    """Serve until ``POST /api/stop`` (or KeyboardInterrupt)."""
    server = build_server(store, host, port, emit=emit)
    bound_host, bound_port = server.server_address[:2]
    if emit is not None:
        emit(f"[serve] listening on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
