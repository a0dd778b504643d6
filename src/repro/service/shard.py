"""Shard workers for the sharded planning service.

One **shard** is a full single-process :class:`PlanningServer` — its own
:class:`ServiceState`, its own plan/placement/route caches, its own
metrics registry — listening on an ephemeral loopback port inside a
dedicated OS process. N shards give the service N times the planning
CPU without touching the GIL-bound single-process hot path; the router
(:mod:`repro.service.router`) keeps each request class pinned to one
shard so its caches stay warm.

:class:`ShardSupervisor` owns the fleet:

* **spawn** — shards start via :class:`repro.exec.procs.SupervisedProcess`
  (spawn context, readiness handshake): the child binds its port, runs
  warm-start preloading when enabled, and only then announces the port
  — a shard never takes traffic cold;
* **monitor** — a background thread watches for dead shard processes
  and **restarts them with the same warm-start**, while the router
  fails open to the remaining live shards through the ring's
  deterministic preference order;
* **exact metrics across restarts** — the supervisor caches each
  shard's last metrics scrape; when a generation dies, that snapshot
  is folded into a *retired* aggregate (associative
  :func:`~repro.obs.metrics.merge_snapshots`), so the router's merged
  ``/metrics`` never double-counts a restarted shard (its new
  generation starts from zero) and loses at most the dead shard's
  counts since its final scrape.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.exec.procs import SupervisedProcess
from repro.obs.metrics import counter, gauge, labelled, merge_snapshots
from repro.service.client import ServiceClient, ServiceConnectionError

__all__ = ["ShardSupervisor", "NoLiveShardError", "shard_server_main"]


class NoLiveShardError(ReproError):
    """Every shard was down or unreachable for a forwarded request."""


def shard_server_main(
    ready_conn,
    host: str,
    cache_ttl_s: Optional[float],
    warm: bool,
    warm_max_ranks: int,
) -> None:
    """Child entry point: serve one :class:`PlanningServer` forever.

    Runs in a spawn-context process. Binds an ephemeral port, warm
    starts when asked (so a restarted shard re-enters rotation with hot
    caches), *then* sends the bound port as the readiness payload. The
    supervisor terminates the shard with SIGTERM.
    """
    # Imports happen in the child: a spawned interpreter is clean, and
    # keeping them here keeps the parent's module graph out of the
    # pickled closure.
    from repro.service.app import PlanningServer
    from repro.service.state import ServicePolicy, ServiceState

    state = ServiceState(ServicePolicy(cache_ttl_s=cache_ttl_s))
    server = PlanningServer(state, host=host, port=0)
    if warm:
        state.warm_start(max_ranks=warm_max_ranks)
    ready_conn.send(server.port)
    ready_conn.close()
    server.serve_forever()


class _ShardHandle:
    """Supervisor-side view of one shard slot across generations."""

    def __init__(self, slot: int, proc: SupervisedProcess, pool_size: int,
                 timeout_s: float) -> None:
        self.slot = slot
        self.shard_id = f"shard-{slot}"
        self.proc = proc
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.port: Optional[int] = None
        self.client: Optional[ServiceClient] = None
        self.up = False
        self.last_metrics: Optional[Dict[str, Any]] = None
        self.lock = threading.Lock()

    def attach(self, port: int) -> None:
        """Point the handle at a freshly readied generation."""
        with self.lock:
            old = self.client
            self.port = port
            self.client = ServiceClient(
                f"http://127.0.0.1:{port}",
                timeout_s=self.timeout_s,
                pool_size=self.pool_size,
            )
            self.last_metrics = None
            self.up = True
        if old is not None:
            old.close()

    def current_client(self) -> Optional[ServiceClient]:
        with self.lock:
            return self.client if self.up else None


class ShardSupervisor:
    """Spawns, monitors, and restarts the shard fleet."""

    def __init__(
        self,
        shards: int,
        *,
        host: str = "127.0.0.1",
        cache_ttl_s: Optional[float] = None,
        warm: bool = True,
        warm_max_ranks: int = 256,
        pool_size: int = 8,
        timeout_s: float = 120.0,
        ready_timeout_s: float = 180.0,
        monitor_interval_s: float = 0.2,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.warm = warm
        self._host = host
        self._monitor_interval_s = monitor_interval_s
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._retired_lock = threading.Lock()
        self._retired_metrics: Dict[str, Dict[str, Any]] = {}
        self.handles: List[_ShardHandle] = []
        for slot in range(shards):
            proc = SupervisedProcess(
                shard_server_main,
                (host, cache_ttl_s, warm, warm_max_ranks),
                name=f"planning-shard-{slot}",
                ready_timeout_s=ready_timeout_s,
            )
            self.handles.append(
                _ShardHandle(slot, proc, pool_size, timeout_s)
            )
        self._by_id = {h.shard_id: h for h in self.handles}

    # ------------------------------------------------------------ fleet
    @property
    def shard_ids(self) -> Tuple[str, ...]:
        return tuple(h.shard_id for h in self.handles)

    def live_shards(self) -> Tuple[str, ...]:
        return tuple(h.shard_id for h in self.handles if h.up)

    def start(self) -> "ShardSupervisor":
        """Spawn every shard (concurrently) and start the monitor."""
        errors: List[BaseException] = []

        def boot(handle: _ShardHandle) -> None:
            try:
                handle.attach(handle.proc.start())
                gauge(labelled("service.shard.up", shard=handle.shard_id)).set(1)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=boot, args=(h,), daemon=True)
            for h in self.handles
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            self.stop()
            raise errors[0]
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
            self._monitor = None
        for handle in self.handles:
            with handle.lock:
                handle.up = False
                client, handle.client = handle.client, None
            if client is not None:
                client.close()
            handle.proc.terminate()

    # ---------------------------------------------------------- monitor
    def mark_down(self, shard_id: str) -> None:
        """Router-side hint: a forward to *shard_id* failed at transport."""
        handle = self._by_id[shard_id]
        with handle.lock:
            handle.up = False
        gauge(labelled("service.shard.up", shard=shard_id)).set(0)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._monitor_interval_s):
            for handle in self.handles:
                if self._stop.is_set():
                    return
                if not handle.proc.is_alive():
                    self._restart(handle)
                elif not handle.up:
                    # Marked down by the router but the process lives —
                    # probe and heal (a transient connect race, not a
                    # crash).
                    self._probe(handle)

    def _probe(self, handle: _ShardHandle) -> None:
        with handle.lock:
            client = handle.client
        if client is None:
            return
        try:
            if client.healthz().status == 200:
                with handle.lock:
                    handle.up = True
                gauge(
                    labelled("service.shard.up", shard=handle.shard_id)
                ).set(1)
        except ServiceConnectionError:
            # Still unreachable; the process may be seconds from dying —
            # leave it down and let the next sweep decide.
            pass

    def _restart(self, handle: _ShardHandle) -> None:
        """Fold the dead generation's metrics, then respawn warm."""
        with handle.lock:
            handle.up = False
            final = handle.last_metrics
        gauge(labelled("service.shard.up", shard=handle.shard_id)).set(0)
        if final is not None:
            with self._retired_lock:
                self._retired_metrics = merge_snapshots(
                    self._retired_metrics, final
                )
        counter("service.router.restarts").inc()
        counter(
            labelled("service.shard.restarts", shard=handle.shard_id)
        ).inc()
        try:
            handle.attach(handle.proc.respawn())
        except ReproError:
            # Spawn failed (resource pressure); stay down, retry on the
            # next monitor sweep — the router keeps failing open.
            return
        gauge(labelled("service.shard.up", shard=handle.shard_id)).set(1)

    # -------------------------------------------------------- forwarding
    def forward(
        self,
        preference: Tuple[str, ...],
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[Any, str, int]:
        """Send one request down the ring's preference order.

        Returns ``(reply, shard_id, failovers)``. A transport failure
        marks the shard down and moves to the next preference — the
        fail-open path; every service request is a pure function of its
        body, so replaying it on another shard is safe. Raises
        :class:`NoLiveShardError` when every shard is unreachable.
        """
        failovers = 0
        attempted = set()
        # Two passes: live shards in preference order, then (fail open
        # harder) any shard regardless of its `up` flag — it may have
        # healed since the flag was set.
        for pass_live_only in (True, False):
            for shard_id in preference:
                if shard_id in attempted:
                    continue
                handle = self._by_id[shard_id]
                if pass_live_only:
                    client = handle.current_client()
                else:
                    with handle.lock:
                        client = handle.client
                if client is None:
                    continue
                try:
                    if method == "GET":
                        reply = client.get(path, headers=headers)
                    else:
                        reply = client.post(path, raw=body, headers=headers)
                except ServiceConnectionError:
                    self.mark_down(shard_id)
                    counter("service.router.failovers").inc()
                    failovers += 1
                    attempted.add(shard_id)
                    continue
                return reply, shard_id, failovers
        raise NoLiveShardError(
            f"no live shard for {method} {path} "
            f"(tried {', '.join(sorted(attempted)) or 'none'})"
        )

    # ----------------------------------------------------------- metrics
    def scrape(self, handle: _ShardHandle) -> Optional[Dict[str, Any]]:
        """One shard's ``/metrics`` payload via the internal scrape path.

        Internal scrapes carry ``X-Repro-Scrape: internal`` so the
        shard does not account them — scraping must not perturb the
        counters being scraped, or merged aggregates could never
        reconcile exactly against a later per-shard scrape. The metrics
        sub-dict is cached on the handle as the generation's
        last-known state (folded into the retired aggregate if this
        generation dies).
        """
        client = handle.current_client()
        if client is None:
            return None
        try:
            reply = client.get(
                "/metrics", headers={"X-Repro-Scrape": "internal"}
            )
        except ServiceConnectionError:
            self.mark_down(handle.shard_id)
            return None
        if reply.status != 200:
            return None
        payload = reply.json
        with handle.lock:
            handle.last_metrics = payload.get("metrics", {})
        return payload

    def aggregate_metrics(self) -> Dict[str, Any]:
        """Fan out to every live shard and fold the snapshots exactly.

        ``metrics`` is the associative fold of each live shard's
        registry snapshot plus the retired aggregate from dead
        generations; ``caches`` sums the live shards' cache counters
        field by field. Both reconcile exactly against per-shard
        scrapes taken while traffic is quiet (the determinism suite's
        check), because internal scrapes are accounting-invisible.
        """
        per_shard: Dict[str, Dict[str, Any]] = {}
        merged: Dict[str, Dict[str, Any]] = {}
        caches: Dict[str, Dict[str, float]] = {}
        requests_served = 0
        for handle in self.handles:
            payload = self.scrape(handle)
            info: Dict[str, Any] = {
                "up": handle.up,
                "port": handle.port,
                "generation": handle.proc.generation,
                "restarts": handle.proc.restarts,
            }
            if payload is not None:
                info["requests_served"] = payload.get("requests_served", 0)
                info["uptime_s"] = payload.get("uptime_s", 0.0)
                requests_served += payload.get("requests_served", 0)
                merged = merge_snapshots(merged, payload.get("metrics", {}))
                for name, stats in payload.get("caches", {}).items():
                    slot = caches.setdefault(name, {})
                    for field, value in stats.items():
                        if isinstance(value, (int, float)):
                            slot[field] = slot.get(field, 0) + value
            per_shard[handle.shard_id] = info
        with self._retired_lock:
            retired = dict(self._retired_metrics)
        return {
            "per_shard": per_shard,
            "metrics": merge_snapshots(merged, retired),
            "retired_metrics": retired,
            "caches": caches,
            "requests_served": requests_served,
        }

    def restarts(self) -> int:
        return sum(h.proc.restarts for h in self.handles)
