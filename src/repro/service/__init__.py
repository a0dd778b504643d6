"""Planner-as-a-service: the resident-process front door.

The paper's divide-and-conquer planner answers "how should I place
these nests?"; this package answers it as a **long-lived service**
instead of a CLI invocation per question:

* :mod:`repro.service.schemas` — versioned frozen-dataclass
  request/response schemas with strict canonical-JSON (de)serialization;
* :mod:`repro.service.state` — the shared cross-request state: the
  plan/placement/route caches under their entry and byte bounds,
  request coalescing, and warm-start preloading from paper configs;
* :mod:`repro.service.app` — the zero-dependency HTTP server
  (``POST /recommend``, ``POST /simulate``, ``POST /plan``,
  ``POST /verify``, ``GET /healthz``, ``GET /metrics``) and the HTTP
  edge it shares with the router;
* :mod:`repro.service.client` — a stdlib keep-alive client with a
  bounded per-host connection pool, for tests and the
  ``benchmarks/bench_service.py`` load harness;
* :mod:`repro.service.ring` — the consistent-hash ring that pins each
  request class to a shard for cache affinity;
* :mod:`repro.service.shard` / :mod:`repro.service.router` — the
  multi-process deployment: N supervised shard processes (each a full
  :class:`PlanningServer`) behind one router socket, with warm
  restarts, fail-open forwarding, and exact cross-shard ``/metrics``.

``repro serve`` on the command line runs it (``--shards N`` for the
sharded deployment); see ``docs/service.md`` for endpoint schemas,
cache bounds, sharding semantics, and the load-test howto.
"""

from repro.service.app import MAX_BODY_BYTES, PlanningHTTPServer, PlanningServer
from repro.service.client import (
    PoolStats,
    ServiceClient,
    ServiceConnectionError,
    ServiceReply,
)
from repro.service.ring import HashRing
from repro.service.router import ShardedPlanningService, affinity_key
from repro.service.schemas import (
    SCHEMA_VERSION,
    ErrorResponse,
    HealthResponse,
    IterationPayload,
    PlanAssignmentPayload,
    PlanOptionPayload,
    PlanRequest,
    PlanResponse,
    RecommendRequest,
    RecommendResponse,
    SchemaError,
    SimulateRequest,
    SimulateResponse,
    VerifyFailurePayload,
    VerifyRequest,
    VerifyResponse,
    dump_bytes,
    parse_payload,
    to_payload,
)
from repro.service.shard import NoLiveShardError, ShardSupervisor
from repro.service.state import ServiceState

__all__ = [
    "SCHEMA_VERSION",
    "MAX_BODY_BYTES",
    "PlanningServer",
    "PlanningHTTPServer",
    "ShardedPlanningService",
    "ShardSupervisor",
    "NoLiveShardError",
    "HashRing",
    "affinity_key",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceReply",
    "PoolStats",
    "ServiceState",
    "SchemaError",
    "parse_payload",
    "to_payload",
    "dump_bytes",
    "RecommendRequest",
    "RecommendResponse",
    "SimulateRequest",
    "SimulateResponse",
    "PlanRequest",
    "PlanResponse",
    "PlanAssignmentPayload",
    "VerifyRequest",
    "VerifyResponse",
    "VerifyFailurePayload",
    "PlanOptionPayload",
    "IterationPayload",
    "HealthResponse",
    "ErrorResponse",
]
