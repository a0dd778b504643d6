"""End-to-end HTTP tests: every endpoint, every structured error path.

Drives a real :class:`PlanningServer` on an ephemeral loopback port
through the stdlib client, asserting happy paths, the full catalogue of
400-level error codes, and that an unexpected handler crash surfaces as
a structured ``500 internal-error`` body — never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.service import MAX_BODY_BYTES, SCHEMA_VERSION
from repro.service.schemas import (
    HealthResponse,
    PlanResponse,
    RecommendResponse,
    SimulateResponse,
    VerifyResponse,
    parse_payload,
)


class TestHappyPaths:
    def test_healthz(self, client):
        reply = client.healthz()
        assert reply.status == 200
        health = parse_payload(HealthResponse, reply.json)
        assert health.status == "ok"
        assert health.schema_version == SCHEMA_VERSION

    def test_metrics_exposes_caches_and_registry(self, client):
        client.simulate({"ranks": 64})
        payload = client.metrics()
        assert set(payload["caches"]) == {"plan", "placement", "route"}
        assert "service.simulate.requests" in payload["metrics"]

    def test_recommend(self, client):
        reply = client.recommend({"config": "table2", "max_ranks": 256})
        assert reply.status == 200
        assert reply.headers["X-Repro-Coalesced"] == "0"
        resp = parse_payload(RecommendResponse, reply.json)
        assert resp.options
        assert resp.fastest in resp.options

    def test_recommend_defaults_on_empty_body(self, client):
        reply = client.recommend({})
        assert reply.status == 200
        resp = parse_payload(RecommendResponse, reply.json)
        assert resp.config == "table2"

    def test_simulate(self, client):
        reply = client.simulate({"ranks": 128, "config": "fig2"})
        assert reply.status == 200
        resp = parse_payload(SimulateResponse, reply.json)
        assert resp.ranks == 128
        assert resp.sequential.total_time > 0

    def test_verify(self, client):
        reply = client.verify({"budget": 3, "seed": 5})
        assert reply.status == 200
        resp = parse_payload(VerifyResponse, reply.json)
        assert resp.ok is True
        assert resp.scenarios_run == 3

    def test_plan(self, client):
        reply = client.plan({"config": "fig10", "ranks": 128})
        assert reply.status == 200
        resp = parse_payload(PlanResponse, reply.json)
        assert resp.ranks == 128
        assert resp.strategy == "parallel"
        assert resp.grid_px * resp.grid_py == 128
        assert resp.assignments
        # Parallel plans partition all ranks across the sibling nests.
        assert sum(a.processors for a in resp.assignments) == 128
        assert len(resp.ratios) == len(resp.assignments)

    def test_plan_sequential_strategy(self, client):
        reply = client.plan({"config": "fig10", "ranks": 64,
                             "strategy": "sequential"})
        assert reply.status == 200
        resp = parse_payload(PlanResponse, reply.json)
        assert resp.strategy == "sequential"
        assert resp.concurrent is False
        # Sequential runs every nest over the full grid, one at a time.
        assert all(a.processors == 64 for a in resp.assignments)
        assert resp.ratios == ()

    def test_plan_defaults_on_empty_body(self, client):
        reply = client.plan({})
        assert reply.status == 200
        resp = parse_payload(PlanResponse, reply.json)
        assert resp.config == "table2"
        assert resp.ranks == 256

    def test_plan_rejects_bad_strategy(self, client):
        reply = client.plan({"strategy": "diagonal"})
        assert reply.status == 400
        assert reply.json["error"] == "invalid-choice"

    def test_plan_is_byte_identical_across_calls(self, client):
        payload = {"config": "fig2", "ranks": 256}
        assert client.plan(payload).body == client.plan(payload).body

    def test_responses_are_byte_identical_across_calls(self, client):
        payload = {"config": "fig2", "max_ranks": 256}
        first = client.recommend(payload)
        second = client.recommend(payload)
        assert first.body == second.body

    def test_health_request_counter_advances(self, client):
        before = client.healthz().json["requests_served"]
        client.simulate({"ranks": 64})
        after = client.healthz().json["requests_served"]
        assert after > before


class TestErrorPaths:
    def _assert_error(self, reply, status, code):
        assert reply.status == status
        body = reply.json
        assert body["error"] == code
        assert body["message"]
        assert "Traceback" not in reply.body.decode("utf-8")

    def test_unknown_route_404(self, client):
        self._assert_error(client.get("/nope"), 404, "not-found")

    def test_wrong_method_405(self, client):
        self._assert_error(client.get("/recommend"), 405, "method-not-allowed")
        self._assert_error(client.post("/healthz", {}), 405, "method-not-allowed")

    def test_invalid_json_400(self, client):
        for raw in (
            b"{nope",
            b'{"config": "\xff"}',  # not UTF-8
            b"\xff\xfe{",  # a UTF-16 byte-order mark, then not UTF-16
            b"[" * 100_000 + b"]" * 100_000,  # past the decoder's depth limit
        ):
            reply = client.post("/recommend", raw=raw)
            self._assert_error(reply, 400, "invalid-json")

    def test_schema_violations_carry_their_codes(self, client):
        cases = [
            ({"config": "mars"}, "invalid-choice"),
            ({"bogus": 1}, "unknown-field"),
            ({"max_ranks": "many"}, "invalid-type"),
            ({"max_ranks": 0}, "out-of-range"),
            ({"min_ranks": 512, "max_ranks": 64}, "invalid-value"),
            ({"schema_version": 999}, "unsupported-schema-version"),
        ]
        for payload, code in cases:
            self._assert_error(client.recommend(payload), 400, code)

    def test_integer_too_large_for_a_float_400(self, client):
        raw = b'{"efficiency_floor":1' + b"0" * 400 + b"}"
        reply = client.post("/recommend", raw=raw)
        self._assert_error(reply, 400, "invalid-value")
        assert reply.json["message"] == "field 'efficiency_floor' must be finite"

    def test_non_object_payload_400(self, client):
        reply = client.post("/simulate", raw=b"[1,2,3]")
        self._assert_error(reply, 400, "invalid-payload")

    def test_unknown_oracle_maps_to_invalid_request(self, client):
        reply = client.verify({"oracles": ["nonsense"]})
        self._assert_error(reply, 400, "invalid-request")
        assert "unknown oracle" in reply.json["message"]

    def test_oversized_body_413(self, client):
        big = b'{"pad":"' + b"x" * MAX_BODY_BYTES + b'"}'
        reply = client.post("/recommend", raw=big)
        self._assert_error(reply, 413, "payload-too-large")

    def test_internal_error_is_structured_500(self, server, client, monkeypatch):
        def explode(req):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(server.state, "simulate", explode)
        reply = client.simulate({"ranks": 64})
        self._assert_error(reply, 500, "internal-error")
        assert reply.json["message"] == "wires crossed"

    def test_errors_count_into_service_errors_metric(self, client):
        snap = client.metrics()["metrics"]
        before = snap.get("service.errors", {}).get("value", 0)
        client.get("/nope")
        after = client.metrics()["metrics"]["service.errors"]["value"]
        assert after >= before + 1


class TestServerLifecycle:
    def test_context_manager_binds_ephemeral_port(self, fresh_caches):
        from repro.service import PlanningServer, ServiceClient

        with PlanningServer() as srv:
            assert srv.port > 0
            assert ServiceClient(srv.url).healthz().status == 200
        # Socket is released: a new server can bind the same port.
        from socket import AF_INET, SOCK_STREAM, socket

        with socket(AF_INET, SOCK_STREAM) as sock:
            sock.bind(("127.0.0.1", srv.port))

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_metrics_body_is_canonical_json(self, client):
        raw = client.get("/metrics").body.decode("utf-8")
        payload = json.loads(raw)
        recoded = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        assert raw == recoded
