"""Front-door router for the sharded planning service.

The router owns the listening socket; every planning request is
forwarded over a **persistent keep-alive connection** to one of N shard
processes (:mod:`repro.service.shard`), each a full single-process
:class:`PlanningServer` with its own plan/placement/route caches.

Shard selection is a **consistent-hash ring** (:mod:`repro.service.ring`)
over the request's canonical cache key — strategy + grid dims + sibling
signature (config) + machine, exactly the fields the shard-side caches
key on. Affinity is the whole performance argument: the same request
class always lands on the same shard, so that shard's caches stay warm
and the fleet's aggregate cache capacity is the *sum* of the shards,
not N copies of the same entries. Since every response body is a pure
function of the request (the single-process byte-determinism contract),
routing is invisible in the body: a 4-shard service answers
byte-identically to a 1-shard one. Operational facts ride in headers
(``X-Repro-Shard``, plus the shard's own ``X-Repro-Coalesced``).

Failure semantics: a transport error on a forward marks the shard down,
bumps ``service.router.failovers``, and retries the request on the next
shard in the ring's deterministic preference order — safe because
requests are pure. The supervisor restarts dead shards with warm-start
preloading; until then the router **fails open** to the live shards.

``GET /metrics`` fans out to every shard (internal scrapes, invisible
to shard accounting) and folds the snapshots with the associative
:func:`~repro.obs.metrics.merge_snapshots`, plus the retired snapshots
of dead generations — so the merged aggregate reconciles **exactly**
with per-shard scrapes.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import counter, histogram, labelled, registry
from repro.obs.trace import tracer
from repro.service.app import MAX_BODY_BYTES, _error_body
from repro.service.ring import HashRing
from repro.service.schemas import (
    SCHEMA_VERSION,
    HealthResponse,
    PlanRequest,
    RecommendRequest,
    SchemaError,
    SimulateRequest,
    VerifyRequest,
    canonical_json,
    dump_bytes,
    parse_payload,
)
from repro.service.shard import NoLiveShardError, ShardSupervisor
from repro.service.state import LATENCY_BOUNDS, ServicePolicy

__all__ = ["ShardedPlanningService", "affinity_key"]

_CONTENT_TYPE = "application/json"

#: Parsed request schema per forwarded path (also the route table).
_REQUEST_SCHEMA = {
    "/recommend": RecommendRequest,
    "/simulate": SimulateRequest,
    "/plan": PlanRequest,
    "/verify": VerifyRequest,
}

#: Fields that make up each endpoint's affinity class. These mirror the
#: shard-side cache keys: ``/recommend`` drops the sweep window
#: (min/max ranks, efficiency floor) so overlapping sweeps of one
#: configuration share a warm shard; ``/simulate`` and ``/plan`` are
#: per-rank-count (distinct plan-cache entries); ``/verify`` keys on
#: the fuzz budget/seed/oracles that define its workload.
_AFFINITY_FIELDS = {
    "/recommend": ("config", "machine", "mapping", "io"),
    "/simulate": ("config", "machine", "mapping", "io", "ranks"),
    "/plan": ("config", "machine", "strategy", "ranks"),
    "/verify": ("budget", "seed", "oracles"),
}


def affinity_key(path: str, raw: bytes) -> bytes:
    """The ring key for one request: canonical cache-class bytes.

    Parsing applies schema defaults, so ``{}`` and an explicit
    ``{"config": "table2"}`` hash to the same shard. Unparseable bodies
    fall back to hashing the raw bytes — the shard will produce the
    (deterministic) 400, and identical malformed bodies still coalesce
    on one shard.
    """
    cls = _REQUEST_SCHEMA.get(path)
    if cls is not None:
        try:
            payload = json.loads(raw)
            req = parse_payload(cls, payload)
        except (ValueError, SchemaError):
            pass
        else:
            fields = {
                name: getattr(req, name) for name in _AFFINITY_FIELDS[path]
            }
            return canonical_json({"path": path, **fields}).encode("utf-8")
    return b"raw\x00" + raw


class _RouterHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        supervisor: ShardSupervisor,
        ring: HashRing,
    ):
        super().__init__(address, _RouterHandler)
        self.supervisor = supervisor
        self.ring = ring
        self.started = time.monotonic()
        self.requests_served = 0
        self.requests_lock = threading.Lock()


class _RouterHandler(BaseHTTPRequestHandler):
    server_version = "repro-router/1"
    protocol_version = "HTTP/1.1"
    # Same keep-alive Nagle/delayed-ACK stall as the shard handler: the
    # relayed body must not wait on the client's delayed ACK.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        tr = tracer()
        if tr.enabled:
            tr.event("service.router.access_log", {"line": format % args})

    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        endpoint = path.strip("/").replace("/", ".") or "root"
        t0 = time.perf_counter()
        extra: Dict[str, str] = {}
        tr = tracer()
        with tr.span(
            "service.router.request",
            {"method": method, "path": path} if tr.enabled else None,
        ):
            try:
                if method == "GET" and path == "/healthz":
                    status, body = self._handle_healthz()
                elif method == "GET" and path == "/metrics":
                    status, body = self._handle_metrics()
                elif method == "POST" and path in _REQUEST_SCHEMA:
                    status, body, extra = self._forward(path)
                elif path == "/healthz" or path == "/metrics" or path in _REQUEST_SCHEMA:
                    # Mirror the single-process server's wording so error
                    # bodies stay byte-identical across shard counts.
                    status = 405
                    body = _error_body(
                        "method-not-allowed", f"{method} not supported on {path}"
                    )
                else:
                    status = 404
                    body = _error_body("not-found", f"no route for {path}")
            except _RouterError as exc:
                status, body = exc.status, _error_body(exc.code, str(exc))
                if exc.close:
                    self.close_connection = True
            except NoLiveShardError as exc:
                status, body = 503, _error_body("no-live-shard", str(exc))
            except Exception as exc:  # noqa: BLE001 - edge of the router
                status, body = 500, _error_body("internal-error", str(exc))
        self._account(endpoint, status, time.perf_counter() - t0)
        try:
            self.send_response(status)
            self.send_header("Content-Type", _CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            for name, value in extra.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _account(self, endpoint: str, status: int, elapsed_s: float) -> None:
        server: _RouterHTTPServer = self.server
        with server.requests_lock:
            server.requests_served += 1
        counter("service.router.requests").inc()
        histogram(
            f"service.router.{endpoint}.latency_s", LATENCY_BOUNDS
        ).observe(elapsed_s)
        if status >= 400:
            counter("service.router.errors").inc()

    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """Read the POST body, mirroring the shard's edge checks.

        The length checks must happen here (the router cannot forward a
        request it cannot frame), with the single-process server's exact
        status codes and messages so the error bodies stay
        byte-identical at every shard count.
        """
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _RouterError(411, "length-required", "Content-Length required")
        try:
            length = int(length_header)
        except ValueError:
            raise _RouterError(
                400, "invalid-length", f"bad Content-Length {length_header!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _RouterError(
                413, "payload-too-large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                close=True,
            )
        return self.rfile.read(length)

    def _forward(self, path: str) -> Tuple[int, bytes, Dict[str, str]]:
        server: _RouterHTTPServer = self.server
        body = self._read_body()
        key = affinity_key(path, body)
        preference = server.ring.preference(key)
        reply, shard_id, failovers = server.supervisor.forward(
            preference,
            "POST",
            path,
            body,
            {"Content-Type": _CONTENT_TYPE},
        )
        counter("service.router.forwarded").inc()
        counter(labelled("service.router.shard.requests", shard=shard_id)).inc()
        extra = {"X-Repro-Shard": shard_id}
        coalesced = reply.headers.get("X-Repro-Coalesced")
        if coalesced is not None:
            extra["X-Repro-Coalesced"] = coalesced
        if failovers:
            extra["X-Repro-Failovers"] = str(failovers)
        return reply.status, reply.body, extra

    # ------------------------------------------------------------------
    def _handle_healthz(self) -> Tuple[int, bytes]:
        server: _RouterHTTPServer = self.server
        live = server.supervisor.live_shards()
        if not live:
            return 503, _error_body(
                "no-live-shard", "no shard is currently serving"
            )
        with server.requests_lock:
            served = server.requests_served
        payload = HealthResponse(
            status="ok",
            uptime_s=time.monotonic() - server.started,
            requests_served=served,
            warmed=server.supervisor.warm,
        )
        return 200, dump_bytes(payload)

    def _handle_metrics(self) -> Tuple[int, bytes]:
        """Fan out to every shard and fold the snapshots exactly."""
        server: _RouterHTTPServer = self.server
        aggregate = server.supervisor.aggregate_metrics()
        with server.requests_lock:
            served = server.requests_served
        payload = {
            "schema_version": SCHEMA_VERSION,
            "uptime_s": time.monotonic() - server.started,
            # Drop-in for the single-process payload: total requests the
            # *shards* accounted (live generations; dead generations'
            # counts live on in metrics["service.requests"]).
            "requests_served": aggregate["requests_served"],
            "caches": aggregate["caches"],
            "metrics": aggregate["metrics"],
            "shards": aggregate["per_shard"],
            "retired_metrics": aggregate["retired_metrics"],
            "router": {
                "requests_served": served,
                "shards": len(server.supervisor.handles),
                "live_shards": list(server.supervisor.live_shards()),
                "restarts": server.supervisor.restarts(),
                "metrics": registry().snapshot("service.router."),
            },
        }
        return 200, canonical_json(payload).encode("utf-8")


class _RouterError(Exception):
    """Internal: HTTP status + stable code raised before forwarding."""

    def __init__(self, status: int, code: str, message: str, *, close: bool = False):
        super().__init__(message)
        self.status = status
        self.code = code
        self.close = close


class ShardedPlanningService:
    """N shard processes behind one consistent-hash router socket.

    Drop-in for :class:`~repro.service.app.PlanningServer` from a
    client's point of view — same endpoints, byte-identical bodies —
    with ``shards`` planning processes behind the front door::

        with ShardedPlanningService(shards=4) as service:
            client = ServiceClient(service.url)
            client.recommend({"config": "fig10"})

    ``warm=True`` warm-starts every shard before it takes traffic
    (including respawned shards after a crash).
    """

    def __init__(
        self,
        shards: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[ServicePolicy] = None,
        warm: bool = True,
        warm_max_ranks: int = 256,
        pool_size: int = 8,
        vnodes: Optional[int] = None,
        ready_timeout_s: float = 180.0,
    ) -> None:
        policy = policy or ServicePolicy()
        self.supervisor = ShardSupervisor(
            shards,
            host="127.0.0.1",
            cache_ttl_s=policy.cache_ttl_s,
            warm=warm,
            warm_max_ranks=warm_max_ranks,
            pool_size=pool_size,
            ready_timeout_s=ready_timeout_s,
        )
        ring_kwargs = {} if vnodes is None else {"vnodes": vnodes}
        self.ring = HashRing(self.supervisor.shard_ids, **ring_kwargs)
        self._address = (host, port)
        self._httpd: Optional[_RouterHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        assert self._httpd is not None, "service not started"
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        assert self._httpd is not None, "service not started"
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def shards(self) -> int:
        return len(self.supervisor.handles)

    def start(self) -> "ShardedPlanningService":
        """Spawn the shard fleet, then open the front door."""
        if self._httpd is not None:
            raise RuntimeError("service already started")
        self.supervisor.start()
        self._httpd = _RouterHTTPServer(
            self._address, self.supervisor, self.ring
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"planning-router:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def wait(self) -> None:
        """Block until the router thread exits (the CLI path)."""
        thread = self._thread
        if thread is not None:
            thread.join()

    def close(self) -> None:
        """Stop the router, then terminate every shard."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd = None
        self.supervisor.stop()

    def __enter__(self) -> "ShardedPlanningService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
