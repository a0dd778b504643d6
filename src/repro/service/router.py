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
(``X-Repro-Shard``, plus the shard's own ``X-Repro-Coalesced``). The
errors the router answers itself (unknown routes, bad framing) come
from the handler base it shares with the single-process server
(:mod:`repro.service.app`), so their bodies match byte for byte too.

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
from http.server import ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.obs.metrics import counter, histogram, labelled, registry
from repro.service.app import _CONTENT_TYPE, _EdgeHandler, _HttpError, _Reply
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
from repro.service.state import LATENCY_BOUNDS

__all__ = ["ShardedPlanningService", "affinity_key"]

#: Parsed request schema per forwarded path.
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
        except (ValueError, RecursionError, SchemaError):
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


class _RouterHandler(_EdgeHandler):
    server_version = "repro-router/1"
    span_name = "service.router.request"
    access_log_event = "service.router.access_log"

    def _account(
        self, endpoint: str, status: int, body: bytes, elapsed_s: float
    ) -> None:
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
    def _forward(self) -> _Reply:
        server: _RouterHTTPServer = self.server
        path = self.route_path
        body = self._read_body()
        key = affinity_key(path, body)
        preference = server.ring.preference(key)
        try:
            reply, shard_id, failovers = server.supervisor.forward(
                preference,
                "POST",
                path,
                body,
                {"Content-Type": _CONTENT_TYPE},
            )
        except NoLiveShardError as exc:
            raise _HttpError(503, "no-live-shard", str(exc)) from None
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
    def _handle_healthz(self) -> _Reply:
        server: _RouterHTTPServer = self.server
        if not server.supervisor.live_shards():
            raise _HttpError(
                503, "no-live-shard", "no shard is currently serving"
            )
        with server.requests_lock:
            served = server.requests_served
        payload = HealthResponse(
            status="ok",
            uptime_s=time.monotonic() - server.started,
            requests_served=served,
            warmed=server.supervisor.warm,
        )
        return 200, dump_bytes(payload), {}

    def _handle_metrics(self) -> _Reply:
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
        return 200, canonical_json(payload).encode("utf-8"), {}

    routes = {
        ("GET", "/healthz"): _handle_healthz,
        ("GET", "/metrics"): _handle_metrics,
        ("POST", "/plan"): _forward,
        ("POST", "/recommend"): _forward,
        ("POST", "/simulate"): _forward,
        ("POST", "/verify"): _forward,
    }


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
        warm: bool = True,
        warm_max_ranks: int = 256,
        pool_size: int = 8,
        vnodes: Optional[int] = None,
        ready_timeout_s: float = 180.0,
    ) -> None:
        self.supervisor = ShardSupervisor(
            shards,
            host="127.0.0.1",
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
