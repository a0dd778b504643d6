"""Planner-as-a-service: a zero-dependency HTTP planning API.

Endpoints (all JSON; schemas in :mod:`repro.service.schemas`):

* ``POST /recommend`` — capacity planning
  (:func:`repro.analysis.planner.recommend`); identical in-flight
  requests are coalesced and the response carries
  ``X-Repro-Coalesced: 1`` when it shared another caller's computation.
* ``POST /simulate`` — price one iteration under both strategies
  (:func:`repro.perfsim.simulate.simulate_iteration`).
* ``POST /plan`` — the raw execution plan (one memoized plan-cache
  lookup; the cheapest cacheable request, used by the sharded router
  as its cache-affinity probe).
* ``POST /verify`` — run the invariant oracles over a fuzzed scenario
  budget (:func:`repro.verify.fuzz`).
* ``GET /healthz`` — liveness and coarse counters.
* ``GET /metrics`` — the observability registry snapshot plus
  plan/placement/route cache statistics.

The server is stdlib :class:`~http.server.ThreadingHTTPServer` — one
thread per connection over the shared :class:`ServiceState`. Response
**bodies are a pure function of the request** (canonical JSON, no
timestamps), so concurrent traffic is byte-identical to a
single-threaded run; per-request operational facts ride in headers.
Every request is measured into ``service.<endpoint>.latency_s``
histograms and counted into ``service.*`` counters, with a
``service.request`` span when tracing is enabled.

Errors are structured: malformed payloads yield ``400`` with a stable
kebab-case code (:class:`ErrorResponse`), never a traceback; unexpected
failures yield ``500 internal-error`` with the exception message only.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import counter, histogram
from repro.obs.trace import tracer
from repro.service.schemas import (
    ErrorResponse,
    PlanRequest,
    RecommendRequest,
    SchemaError,
    SimulateRequest,
    VerifyRequest,
    canonical_json,
    dump_bytes,
    parse_payload,
)
from repro.service.state import LATENCY_BOUNDS, ServicePolicy, ServiceState

__all__ = ["PlanningServer", "PlanningHTTPServer", "MAX_BODY_BYTES"]

#: Request bodies above this are rejected with ``413 payload-too-large``.
MAX_BODY_BYTES = 1 << 20

_CONTENT_TYPE = "application/json"


class _ServiceError(Exception):
    """Internal: carries an HTTP status + stable error code to the edge."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


def _error_body(code: str, message: str) -> bytes:
    return dump_bytes(ErrorResponse(error=code, message=message))


class PlanningHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns one :class:`ServiceState`."""

    daemon_threads = True
    # The default backlog (5) resets connections under a burst of
    # concurrent clients; the load bench fires dozens at once.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], state: ServiceState):
        super().__init__(address, _Handler)
        self.state = state


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-planner/1"
    protocol_version = "HTTP/1.1"
    # The response goes out as two segments (header block, then body).
    # With Nagle on, the body segment waits for the client's delayed
    # ACK on long-lived keep-alive connections — a flat ~40ms stall on
    # every pooled request. Fresh connections dodge it only because
    # Linux starts them in quickack mode, which is why the bug hides
    # from connection-per-request clients.
    disable_nagle_algorithm = True

    # Routes: (method, path) -> unbound handler returning
    # (status, body_bytes, extra_headers).
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        """Access logs go to the tracer (if enabled), never to stderr."""
        tr = tracer()
        if tr.enabled:
            tr.event("service.access_log", {"line": format % args})

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        state: ServiceState = self.server.state
        path = self.path.split("?", 1)[0]
        endpoint = path.strip("/").replace("/", ".") or "root"
        routes: Dict[Tuple[str, str], Callable[[ServiceState], Tuple[int, bytes, Dict[str, str]]]] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/plan"): self._handle_plan,
            ("POST", "/recommend"): self._handle_recommend,
            ("POST", "/simulate"): self._handle_simulate,
            ("POST", "/verify"): self._handle_verify,
        }
        t0 = time.perf_counter()
        tr = tracer()
        with tr.span(
            "service.request",
            {"method": method, "path": path} if tr.enabled else None,
        ):
            try:
                handler = routes.get((method, path))
                if handler is None:
                    if any(p == path for (_, p) in routes):
                        raise _ServiceError(
                            405, "method-not-allowed",
                            f"{method} not supported on {path}",
                        )
                    raise _ServiceError(404, "not-found", f"no route for {path}")
                status, body, extra = handler(state)
            except _ServiceError as exc:
                status, body, extra = exc.status, _error_body(exc.code, str(exc)), {}
            except SchemaError as exc:
                status, body, extra = 400, _error_body(exc.code, str(exc)), {}
            except ReproError as exc:
                status, body, extra = 400, _error_body("invalid-request", str(exc)), {}
            except Exception as exc:  # noqa: BLE001 - edge of the service
                status, body, extra = 500, _error_body("internal-error", str(exc)), {}
        # Internal metric scrapes (the sharded router's fan-out and the
        # shard supervisor's monitor) must be invisible to the service's
        # own accounting, or merged counters could never reconcile
        # exactly against per-shard scrapes: snapshotting the registry
        # would perturb the registry being snapshotted.
        internal_scrape = (
            endpoint == "metrics"
            and self.headers.get("X-Repro-Scrape") == "internal"
        )
        if not internal_scrape:
            self._account(endpoint, status, body, time.perf_counter() - t0)
        try:
            self.send_response(status)
            self.send_header("Content-Type", _CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            for name, value in extra.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage

    def _account(
        self, endpoint: str, status: int, body: bytes, elapsed_s: float
    ) -> None:
        counter("service.requests").inc()
        counter(f"service.{endpoint}.requests").inc()
        counter(f"service.{endpoint}.response_bytes").inc(len(body))
        histogram(f"service.{endpoint}.latency_s", LATENCY_BOUNDS).observe(
            elapsed_s
        )
        if status >= 400:
            counter("service.errors").inc()

    # ------------------------------------------------------------------
    def _read_request(self, cls: type) -> Any:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _ServiceError(411, "length-required", "Content-Length required")
        try:
            length = int(length_header)
        except ValueError:
            raise _ServiceError(
                400, "invalid-length", f"bad Content-Length {length_header!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            # Drain (bounded) so the client can finish sending and read
            # the 413 instead of dying on a broken pipe; then drop the
            # connection rather than resync a half-read stream.
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            raise _ServiceError(
                413, "payload-too-large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ServiceError(400, "invalid-json", f"bad JSON: {exc}") from None
        return parse_payload(cls, payload)

    def _handle_healthz(self, state: ServiceState):
        return 200, dump_bytes(state.health()), {}

    def _handle_metrics(self, state: ServiceState):
        body = canonical_json(state.metrics_payload()).encode("utf-8")
        return 200, body, {}

    def _handle_recommend(self, state: ServiceState):
        req = self._read_request(RecommendRequest)
        response, coalesced = state.recommend(req)
        headers = {"X-Repro-Coalesced": "1" if coalesced else "0"}
        return 200, dump_bytes(response), headers

    def _handle_plan(self, state: ServiceState):
        req = self._read_request(PlanRequest)
        return 200, dump_bytes(state.plan(req)), {}

    def _handle_simulate(self, state: ServiceState):
        req = self._read_request(SimulateRequest)
        return 200, dump_bytes(state.simulate(req)), {}

    def _handle_verify(self, state: ServiceState):
        req = self._read_request(VerifyRequest)
        return 200, dump_bytes(state.verify(req)), {}


class PlanningServer:
    """A planning service bound to a host/port, served from a thread.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`). Use as a context manager in tests and benchmarks::

        with PlanningServer() as server:
            client = ServiceClient(server.url)
            client.healthz()
    """

    def __init__(
        self,
        state: Optional[ServiceState] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[ServicePolicy] = None,
    ) -> None:
        self.state = state or ServiceState(policy)
        self._httpd = PlanningHTTPServer((host, port), self.state)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PlanningServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"planning-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop serving, release the socket, detach cache policies."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.state.close()

    def __enter__(self) -> "PlanningServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
