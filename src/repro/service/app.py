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
Framing, routing, error bodies and the response write live in one
handler base that the sharded router (:mod:`repro.service.router`)
subclasses too, so both answer malformed requests with the same bytes.
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
from repro.service.state import LATENCY_BOUNDS, ServiceState

__all__ = ["PlanningServer", "PlanningHTTPServer", "MAX_BODY_BYTES"]

#: Request bodies above this are rejected with ``413 payload-too-large``.
MAX_BODY_BYTES = 1 << 20

_CONTENT_TYPE = "application/json"

#: What a route returns: status, body bytes and extra response headers.
_Reply = Tuple[int, bytes, Dict[str, str]]


class _HttpError(Exception):
    """Internal: carries an HTTP status + stable error code to the edge.

    ``close`` answers ``Connection: close`` and drops the connection
    after the reply, for a request whose body was not read in full.
    """

    def __init__(
        self, status: int, code: str, message: str, *, close: bool = False
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.close = close


def _error_body(code: str, message: str) -> bytes:
    return dump_bytes(ErrorResponse(error=code, message=message))


class _EdgeHandler(BaseHTTPRequestHandler):
    """The HTTP edge of the planning server and of the sharded router.

    It owns body framing, the ``(method, path)`` route table with its
    404/405, the mapping from exceptions to error bodies and the
    response write, so both front doors answer every malformed request
    with the same bytes. A subclass supplies :attr:`routes`, its span
    and access-log names, and :meth:`_account`.
    """

    protocol_version = "HTTP/1.1"
    # The response goes out as two segments (header block, then body).
    # With Nagle on, the body segment waits for the client's delayed
    # ACK on long-lived keep-alive connections — a flat ~40ms stall on
    # every pooled request. Fresh connections dodge it only because
    # Linux starts them in quickack mode, which is why the bug hides
    # from connection-per-request clients.
    disable_nagle_algorithm = True

    #: ``(method, path)`` -> the handler function answering it.
    routes: Dict[Tuple[str, str], Callable[[Any], _Reply]]
    #: The span every request runs under when tracing is enabled.
    span_name: str
    #: The trace event that access-log lines become.
    access_log_event: str

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        """Access logs go to the tracer (if enabled), never to stderr."""
        tr = tracer()
        if tr.enabled:
            tr.event(self.access_log_event, {"line": format % args})

    @property
    def route_path(self) -> str:
        """The request path without its query string."""
        return self.path.split("?", 1)[0]

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        path = self.route_path
        endpoint = path.strip("/").replace("/", ".") or "root"
        t0 = time.perf_counter()
        tr = tracer()
        with tr.span(
            self.span_name,
            {"method": method, "path": path} if tr.enabled else None,
        ):
            try:
                handler = self.routes.get((method, path))
                if handler is None:
                    # A body left unread would be parsed as the next
                    # request on this keep-alive connection.
                    close = "Content-Length" in self.headers
                    if any(p == path for (_, p) in self.routes):
                        raise _HttpError(
                            405, "method-not-allowed",
                            f"{method} not supported on {path}", close=close,
                        )
                    raise _HttpError(
                        404, "not-found", f"no route for {path}", close=close
                    )
                status, body, extra = handler(self)
            except _HttpError as exc:
                status, body = exc.status, _error_body(exc.code, str(exc))
                # send_header sets close_connection when it writes this.
                extra = {"Connection": "close"} if exc.close else {}
            except SchemaError as exc:
                status, body, extra = 400, _error_body(exc.code, str(exc)), {}
            except ReproError as exc:
                status, body, extra = 400, _error_body("invalid-request", str(exc)), {}
            except Exception as exc:  # noqa: BLE001 - edge of the service
                status, body, extra = 500, _error_body("internal-error", str(exc)), {}
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
        """Count one answered request into the subclass's instruments."""
        raise NotImplementedError

    def _read_body(self) -> bytes:
        """The POST body, framed by its ``Content-Length``."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            # A body framed any other way (chunked) stays unread.
            raise _HttpError(
                411, "length-required", "Content-Length required", close=True
            )
        try:
            length = int(length_header)
        except ValueError:
            raise _HttpError(
                400, "invalid-length", f"bad Content-Length {length_header!r}",
                close=True,
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
            raise _HttpError(
                413, "payload-too-large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                close=True,
            )
        return self.rfile.read(length)


class PlanningHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns one :class:`ServiceState`."""

    daemon_threads = True
    # The default backlog (5) resets connections under a burst of
    # concurrent clients; the load bench fires dozens at once.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], state: ServiceState):
        super().__init__(address, _Handler)
        self.state = state


class _Handler(_EdgeHandler):
    server_version = "repro-planner/1"
    span_name = "service.request"
    access_log_event = "service.access_log"

    def _account(
        self, endpoint: str, status: int, body: bytes, elapsed_s: float
    ) -> None:
        # Internal metric scrapes (the sharded router's fan-out and the
        # shard supervisor's monitor) must be invisible to the service's
        # own accounting, or merged counters could never reconcile
        # exactly against per-shard scrapes: snapshotting the registry
        # would perturb the registry being snapshotted.
        if (
            endpoint == "metrics"
            and self.headers.get("X-Repro-Scrape") == "internal"
        ):
            return
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
        raw = self._read_body()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, "invalid-json", f"bad JSON: {exc}") from None
        return parse_payload(cls, payload)

    def _handle_healthz(self) -> _Reply:
        return 200, dump_bytes(self.server.state.health()), {}

    def _handle_metrics(self) -> _Reply:
        payload = self.server.state.metrics_payload()
        return 200, canonical_json(payload).encode("utf-8"), {}

    def _handle_recommend(self) -> _Reply:
        req = self._read_request(RecommendRequest)
        response, coalesced = self.server.state.recommend(req)
        headers = {"X-Repro-Coalesced": "1" if coalesced else "0"}
        return 200, dump_bytes(response), headers

    def _handle_plan(self) -> _Reply:
        req = self._read_request(PlanRequest)
        return 200, dump_bytes(self.server.state.plan(req)), {}

    def _handle_simulate(self) -> _Reply:
        req = self._read_request(SimulateRequest)
        return 200, dump_bytes(self.server.state.simulate(req)), {}

    def _handle_verify(self) -> _Reply:
        req = self._read_request(VerifyRequest)
        return 200, dump_bytes(self.server.state.verify(req)), {}

    routes = {
        ("GET", "/healthz"): _handle_healthz,
        ("GET", "/metrics"): _handle_metrics,
        ("POST", "/plan"): _handle_plan,
        ("POST", "/recommend"): _handle_recommend,
        ("POST", "/simulate"): _handle_simulate,
        ("POST", "/verify"): _handle_verify,
    }


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
    ) -> None:
        self.state = state or ServiceState()
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
        """Stop serving, release the socket, close the state."""
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
