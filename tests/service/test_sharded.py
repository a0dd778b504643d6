"""Sharded service: byte-determinism, failover, exact metrics.

The acceptance contract for the multi-process deployment:

* responses are **byte-identical to a single-process server** at every
  shard count (the ring only decides *where* a request is computed,
  never *what* the answer is);
* errors the router answers itself (unknown routes, bad framing) are
  byte-identical to the single-process server's, and a rejected body
  never poisons its keep-alive connection: the reply says
  ``Connection: close``, so a pooled client never reuses it;
* a shard crash mid-load loses no requests and produces no malformed
  response — the router fails open to live shards while the supervisor
  restarts the dead one warm;
* the router's merged ``/metrics`` reconciles **exactly** with
  per-shard scrapes, never double-counts across restarts, and scraping
  itself is invisible to the counters being scraped.

These tests spawn real OS processes; they are the slowest files in the
service suite, so shard fleets are kept small and shared per class.
"""

from __future__ import annotations

import http.client
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.obs.metrics import merge_snapshots
from repro.service import (
    MAX_BODY_BYTES,
    PlanningServer,
    ServiceClient,
    ShardedPlanningService,
)
from repro.service.router import affinity_key

# A deterministic mixed workload: every endpoint, defaulted and
# explicit payloads, plus requests that must fail with stable error
# bodies (schema violations, malformed JSON) — those must be
# byte-identical through the router too.
WORKLOAD = [
    ("/plan", {"config": "fig10", "ranks": 128}, None),
    ("/plan", {"config": "fig10", "ranks": 128, "strategy": "sequential"}, None),
    ("/plan", {}, None),
    ("/plan", {"strategy": "diagonal"}, None),
    ("/recommend", {"config": "table2", "min_ranks": 64, "max_ranks": 256}, None),
    ("/recommend", {"config": "fig2", "max_ranks": 128}, None),
    ("/recommend", {"config": "mars"}, None),
    ("/simulate", {"config": "fig2", "ranks": 64}, None),
    ("/simulate", {"config": "table2", "ranks": 128, "mapping": "multilevel"}, None),
    ("/simulate", {"ranks": 0}, None),
    ("/verify", {"budget": 2, "seed": 11}, None),
    ("/verify", {"budget": 3, "seed": 5, "oracles": ["conservation"]}, None),
    (None, None, b"{nope"),  # invalid JSON, hashed raw for affinity
    (None, None, b"[1,2,3]"),  # valid JSON, wrong shape
]

#: Good storm replies before the failover test kills a shard.
KILL_AFTER = 16


def run_workload(client):
    """The workload's (status, body) pairs, in order."""
    results = []
    for path, payload, raw in WORKLOAD:
        if raw is not None:
            reply = client.post("/recommend", raw=raw)
        else:
            reply = client.post(path, payload)
        results.append((reply.status, reply.body))
    return results


def _post_with_length(url, length):
    """``POST /plan`` with a hand-set Content-Length, or none at all."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
    try:
        conn.putrequest("POST", "/plan")
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders()
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def edge_errors(url):
    """(status, body) of each request the HTTP edge itself rejects."""
    with ServiceClient(url, pool_size=1) as client:
        routed = [
            client.get("/nope"),
            client.get("/recommend"),
            client.post("/healthz", {}),
            # The 405 left its body unread: the connection it came on
            # must not parse that body as the next request line.
            client.plan({"ranks": 64}),
        ]
        results = [(r.status, r.body) for r in routed]
        results.append(_post_with_length(url, None))
        results.append(_post_with_length(url, "twelve"))
        # Last: the 413 closes the connection.
        big = client.post("/recommend", raw=b"x" * (MAX_BODY_BYTES + 1))
        results.append((big.status, big.body))
    return results


@pytest.fixture(scope="module")
def oracle(request):
    """(status, body) pairs from a single-process server."""
    with PlanningServer() as server:
        with ServiceClient(server.url) as client:
            return run_workload(client)


class TestByteDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_bodies_identical_to_single_process_oracle(self, oracle, shards):
        with ShardedPlanningService(shards=shards, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                got = run_workload(client)
        for (path, payload, raw), want, have in zip(WORKLOAD, oracle, got):
            assert have == want, (shards, path, payload, raw)

    def test_identical_requests_pin_to_one_shard(self):
        with ShardedPlanningService(shards=4, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                payload = {"config": "fig10", "ranks": 128}
                shards_seen = {
                    client.plan(payload).shard for _ in range(6)
                }
                assert len(shards_seen) == 1
                # Distinct request classes spread over the fleet.
                spread = {
                    client.plan({"config": "fig10", "ranks": 2 ** k}).shard
                    for k in range(4, 10)
                }
                assert len(spread) > 1

    def test_recommend_sweep_windows_share_a_shard(self):
        # /recommend affinity drops the sweep window so overlapping
        # sweeps of one configuration reuse the same warm shard.
        with ShardedPlanningService(shards=4, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                a = client.recommend({"config": "fig2", "max_ranks": 128})
                b = client.recommend(
                    {"config": "fig2", "min_ranks": 64, "max_ranks": 256}
                )
                assert a.shard == b.shard


class TestAffinityKey:
    def test_unparseable_bodies_hash_their_raw_bytes(self):
        # Bad JSON, and an integer too large for the float it fills.
        for raw in (b"{nope", b'{"efficiency_floor":1' + b"0" * 400 + b"}"):
            assert affinity_key("/recommend", raw) == b"raw\x00" + raw


class TestRouterEdge:
    def test_edge_errors_identical_to_single_process(self):
        with PlanningServer() as server:
            want = edge_errors(server.url)
        with ShardedPlanningService(shards=1, warm=False) as svc:
            have = edge_errors(svc.url)
        assert [status for status, _ in want] == [
            404, 405, 405, 200, 411, 400, 413,
        ]
        assert have == want

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "router"])
    def test_dropped_connection_is_announced(self, sharded):
        """A reply after which the edge hangs up says ``Connection: close``,
        so a pooled client retires the socket instead of reusing it."""
        server = (
            ShardedPlanningService(shards=1, warm=False) if sharded
            else PlanningServer()
        )
        with server, ServiceClient(server.url, pool_size=1) as client:
            rejected = client.post("/healthz", {})
            follow_on = client.plan({"ranks": 64})
            stats = client.pool_stats()
        assert rejected.status == 405
        assert rejected.headers.get("Connection") == "close"
        assert follow_on.status == 200
        assert (stats.created, stats.reused, stats.retired) == (2, 0, 1)


class TestShardFailure:
    def test_kill_one_shard_mid_load_loses_nothing(self):
        with ShardedPlanningService(shards=2, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                oracle_reply = client.plan({"config": "fig10", "ranks": 128})
                assert oracle_reply.status == 200
                # Seed the supervisor's last-known scrape so the dead
                # generation's counters can be folded, then kill.
                client.metrics()

                stop = threading.Event()
                # Set by the storm's KILL_AFTER-th good reply: the kill
                # lands between two known requests, not after a sleep.
                kill_now = threading.Event()
                failures, successes = [], [0]
                lock = threading.Lock()

                def fire():
                    with ServiceClient(svc.url) as c:
                        while not stop.is_set():
                            try:
                                r = c.plan({"config": "fig10", "ranks": 128})
                                if (r.status, r.body) != (
                                    oracle_reply.status, oracle_reply.body
                                ):
                                    failures.append((r.status, r.body[:200]))
                                else:
                                    with lock:
                                        successes[0] += 1
                                        if successes[0] == KILL_AFTER:
                                            kill_now.set()
                            except Exception as exc:  # noqa: BLE001
                                failures.append(exc)

                threads = [threading.Thread(target=fire) for _ in range(4)]
                for t in threads:
                    t.start()
                # Bounded: a storm that cannot reach KILL_AFTER is failing,
                # which the assertions below report once the threads stop.
                kill_now.wait(timeout=60)
                victim = svc.supervisor.handles[0]
                victim.proc.kill()
                # Keep firing through the crash + restart window.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if victim.proc.restarts >= 1 and victim.up:
                        break
                    time.sleep(0.1)
                time.sleep(0.5)
                stop.set()
                for t in threads:
                    t.join(timeout=30)

                assert not failures, failures[:3]
                assert successes[0] > 0
                assert victim.up, "killed shard never restarted"
                assert victim.proc.restarts == 1
                assert victim.proc.generation == 2

                # The restarted shard serves again (its affinity class).
                r = client.plan({"config": "fig10", "ranks": 128})
                assert (r.status, r.body) == (
                    oracle_reply.status, oracle_reply.body
                )

                # No double-counting: the merged totals never exceed
                # what was actually sent, and settle to an exact value.
                m = client.metrics()
                sent = successes[0] + 2 + 1  # + oracle + post-restart probe
                merged_total = m["metrics"]["service.requests"]["value"]
                assert merged_total <= sent
                # Aggregation is idempotent: scraping again (quiet
                # traffic) returns the same merged counters.
                m2 = client.metrics()
                assert m2["metrics"]["service.requests"]["value"] == merged_total

                # Exactness going forward: K more requests move the
                # merged counter by exactly K.
                for k in range(5):
                    client.plan({"config": "fig10", "ranks": 64 + k})
                m3 = client.metrics()
                assert (
                    m3["metrics"]["service.requests"]["value"]
                    == m2["metrics"]["service.requests"]["value"] + 5
                )
                assert m3["router"]["restarts"] == 1


class TestMetricsFanOut:
    def test_merged_metrics_reconcile_exactly_with_per_shard_scrapes(self):
        with ShardedPlanningService(shards=4, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                for k in range(8):
                    client.plan({"config": "fig10", "ranks": 2 ** (4 + k % 5)})
                client.simulate({"ranks": 64})
                reported = client.metrics()

                # Re-fold from scratch via the supervisor's internal
                # scrapes; with traffic quiet this must match exactly.
                folded = {}
                for handle in svc.supervisor.handles:
                    payload = svc.supervisor.scrape(handle)
                    assert payload is not None
                    folded = merge_snapshots(folded, payload["metrics"])
                assert folded == reported["metrics"]
                assert reported["retired_metrics"] == {}

                # Per-shard requests_served sums to the aggregate.
                assert reported["requests_served"] == sum(
                    info["requests_served"]
                    for info in reported["shards"].values()
                )

    def test_scraping_is_invisible_to_shard_accounting(self):
        with ShardedPlanningService(shards=2, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                client.plan({"ranks": 64})
                first = client.metrics()
                second = client.metrics()
                assert first["metrics"] == second["metrics"]
                assert (
                    first["requests_served"] == second["requests_served"]
                )

    def test_healthz_reflects_fleet(self):
        with ShardedPlanningService(shards=2, warm=False) as svc:
            with ServiceClient(svc.url) as client:
                health = client.healthz().json
                assert health["status"] == "ok"
                assert health["warmed"] is False
                m = client.metrics()
                assert set(m["shards"]) == {"shard-0", "shard-1"}
                assert all(info["up"] for info in m["shards"].values())
                assert m["router"]["live_shards"] == ["shard-0", "shard-1"]
