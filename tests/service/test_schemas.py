"""Schema round-trips and strict-parsing guarantees.

Two contracts, both load-bearing for the service:

* serialize → parse → serialize is **byte-stable** for every
  request/response schema (canonical JSON is the coalescing key and the
  determinism suite compares raw bodies);
* malformed payloads always raise :class:`SchemaError` with a stable
  code — never a ``KeyError``/``TypeError``/traceback.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import MAPPINGS
from repro.service.schemas import (
    ALL_SCHEMAS,
    CONFIG_NAMES,
    IO_NAMES,
    MACHINE_NAMES,
    MAPPING_NAMES,
    MAX_RANKS,
    SCHEMA_VERSION,
    STRATEGY_NAMES,
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
from repro.topology.machines import MACHINES

# ----------------------------------------------------------------------
# Instance strategies, one per schema
# ----------------------------------------------------------------------
# Safe alphabet: no ", " / ": " so the minimal-separator assertion on
# canonical JSON can't be tripped by payload *content*.
_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=20
)
_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
_frac = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def recommend_requests(draw):
    lo, hi = sorted(
        draw(st.tuples(st.integers(1, MAX_RANKS), st.integers(1, MAX_RANKS)))
    )
    return RecommendRequest(
        config=draw(st.sampled_from(CONFIG_NAMES)),
        machine=draw(st.sampled_from(MACHINE_NAMES)),
        min_ranks=lo,
        max_ranks=hi,
        efficiency_floor=draw(
            st.floats(min_value=0.001, max_value=1.0, allow_nan=False)
        ),
        mapping=draw(st.sampled_from(MAPPING_NAMES)),
        io=draw(st.sampled_from(IO_NAMES)),
    )


@st.composite
def simulate_requests(draw):
    return SimulateRequest(
        config=draw(st.sampled_from(CONFIG_NAMES)),
        machine=draw(st.sampled_from(MACHINE_NAMES)),
        ranks=draw(st.integers(1, MAX_RANKS)),
        mapping=draw(st.sampled_from(MAPPING_NAMES)),
        io=draw(st.sampled_from(IO_NAMES)),
    )


@st.composite
def plan_requests(draw):
    return PlanRequest(
        config=draw(st.sampled_from(CONFIG_NAMES)),
        machine=draw(st.sampled_from(MACHINE_NAMES)),
        ranks=draw(st.integers(1, MAX_RANKS)),
        strategy=draw(st.sampled_from(STRATEGY_NAMES)),
    )


@st.composite
def plan_assignments(draw):
    return PlanAssignmentPayload(
        domain=draw(_name),
        nx=draw(st.integers(1, 10**4)),
        ny=draw(st.integers(1, 10**4)),
        x0=draw(st.integers(0, 100)),
        y0=draw(st.integers(0, 100)),
        width=draw(st.integers(1, 100)),
        height=draw(st.integers(1, 100)),
        processors=draw(st.integers(1, MAX_RANKS)),
    )


@st.composite
def plan_responses(draw):
    return PlanResponse(
        config=draw(st.sampled_from(CONFIG_NAMES)),
        machine=draw(st.sampled_from(MACHINE_NAMES)),
        ranks=draw(st.integers(1, MAX_RANKS)),
        strategy=draw(st.sampled_from(STRATEGY_NAMES)),
        grid_px=draw(st.integers(1, 64)),
        grid_py=draw(st.integers(1, 64)),
        concurrent=draw(st.booleans()),
        parent_nx=draw(st.integers(1, 10**4)),
        parent_ny=draw(st.integers(1, 10**4)),
        assignments=tuple(
            draw(st.lists(plan_assignments(), min_size=1, max_size=4))
        ),
        ratios=tuple(draw(st.lists(_frac, max_size=4))),
    )


@st.composite
def verify_requests(draw):
    return VerifyRequest(
        budget=draw(st.integers(1, 500)),
        seed=draw(st.integers(0, 2**31 - 1)),
        oracles=tuple(draw(st.lists(_name, max_size=3))),
    )


@st.composite
def plan_options(draw):
    return PlanOptionPayload(
        ranks=draw(st.integers(1, MAX_RANKS)),
        strategy=draw(st.sampled_from(("sequential", "parallel"))),
        mapping=draw(st.sampled_from(MAPPING_NAMES)),
        time_per_iteration=draw(_time),
        core_seconds=draw(_time),
        efficiency=draw(_frac),
    )


@st.composite
def recommend_responses(draw):
    options = tuple(draw(st.lists(plan_options(), min_size=1, max_size=4)))
    return RecommendResponse(
        config=draw(st.sampled_from(CONFIG_NAMES)),
        machine=draw(st.sampled_from(MACHINE_NAMES)),
        efficiency_floor=draw(_frac),
        options=options,
        fastest=options[0],
        recommended=options[-1],
    )


@st.composite
def iteration_payloads(draw):
    return IterationPayload(
        total_time=draw(_time),
        integration_time=draw(_time),
        io_time=draw(_time),
        mpi_wait=draw(_time),
        average_hops=draw(_time),
    )


@st.composite
def simulate_responses(draw):
    return SimulateResponse(
        config=draw(st.sampled_from(CONFIG_NAMES)),
        machine=draw(st.sampled_from(MACHINE_NAMES)),
        ranks=draw(st.integers(1, MAX_RANKS)),
        mapping=draw(st.sampled_from(MAPPING_NAMES)),
        io=draw(st.sampled_from(IO_NAMES)),
        sequential=draw(iteration_payloads()),
        parallel=draw(iteration_payloads()),
        improvement_percent=draw(
            st.floats(min_value=-1e3, max_value=100.0, allow_nan=False)
        ),
    )


_params = st.dictionaries(
    st.sampled_from(("machine", "ranks", "mapping", "sibling_seed", "io")),
    st.one_of(st.integers(-10, 2**31), _name, st.booleans()),
    max_size=5,
)


@st.composite
def verify_failures(draw):
    return VerifyFailurePayload(
        oracle=draw(_name),
        message=draw(_name),
        scenario=draw(_params),
        minimized=draw(_params),
    )


@st.composite
def verify_responses(draw):
    failures = tuple(draw(st.lists(verify_failures(), max_size=2)))
    return VerifyResponse(
        ok=not failures,
        budget=draw(st.integers(1, 500)),
        seed=draw(st.integers(0, 2**31 - 1)),
        scenarios_run=draw(st.integers(0, 500)),
        infeasible_skips=draw(st.integers(0, 100)),
        oracles=tuple(draw(st.lists(_name, max_size=3))),
        failures=failures,
    )


@st.composite
def health_responses(draw):
    return HealthResponse(
        status="ok",
        uptime_s=draw(_time),
        requests_served=draw(st.integers(0, 10**9)),
        warmed=draw(st.booleans()),
    )


@st.composite
def error_responses(draw):
    return ErrorResponse(error=draw(_name), message=draw(_name))


INSTANCES = st.one_of(
    recommend_requests(), simulate_requests(), verify_requests(),
    plan_requests(), plan_assignments(), plan_responses(),
    plan_options(), recommend_responses(), iteration_payloads(),
    simulate_responses(), verify_failures(), verify_responses(),
    health_responses(), error_responses(),
)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(INSTANCES)
    def test_serialize_parse_serialize_is_byte_stable(self, obj):
        wire = dump_bytes(obj)
        parsed = parse_payload(type(obj), json.loads(wire))
        assert parsed == obj
        assert dump_bytes(parsed) == wire

    @settings(max_examples=50, deadline=None)
    @given(INSTANCES)
    def test_canonical_bytes_are_sorted_and_minimal(self, obj):
        wire = dump_bytes(obj).decode("utf-8")
        assert ": " not in wire and ", " not in wire
        payload = json.loads(wire)
        assert list(payload) == sorted(payload)

    def test_every_schema_embeds_or_accepts_version(self):
        # Requests and top-level responses carry schema_version; nested
        # payloads (options, iterations, failures) ride inside one.
        versioned = [s for s in ALL_SCHEMAS if "schema_version" in s._SPEC]
        assert {s.__name__ for s in versioned} >= {
            "RecommendRequest", "SimulateRequest", "VerifyRequest",
            "PlanRequest", "PlanResponse",
            "RecommendResponse", "SimulateResponse", "VerifyResponse",
            "HealthResponse", "ErrorResponse",
        }
        for cls in versioned:
            obj = parse_payload(cls, json.loads(_minimal_payload(cls)))
            assert obj.schema_version == SCHEMA_VERSION


def _minimal_payload(cls) -> bytes:
    """A smallest valid payload for *cls* (defaults where possible)."""
    samples = {
        "RecommendRequest": RecommendRequest(),
        "SimulateRequest": SimulateRequest(),
        "VerifyRequest": VerifyRequest(),
        "PlanRequest": PlanRequest(),
        "PlanAssignmentPayload": _ASSIGNMENT,
        "PlanResponse": PlanResponse(
            config="table2", machine="bgl", ranks=64, strategy="parallel",
            grid_px=8, grid_py=8, concurrent=True, parent_nx=100,
            parent_ny=100, assignments=(_ASSIGNMENT,), ratios=(0.5, 0.5),
        ),
        "PlanOptionPayload": _OPTION,
        "RecommendResponse": RecommendResponse(
            config="table2", machine="bgl", efficiency_floor=0.5,
            options=(_OPTION,), fastest=_OPTION, recommended=_OPTION,
        ),
        "IterationPayload": _ITER,
        "SimulateResponse": SimulateResponse(
            config="table2", machine="bgl", ranks=64, mapping="oblivious",
            io="none", sequential=_ITER, parallel=_ITER,
            improvement_percent=10.0,
        ),
        "VerifyFailurePayload": VerifyFailurePayload(
            oracle="x", message="m", scenario={}, minimized={},
        ),
        "VerifyResponse": VerifyResponse(
            ok=True, budget=1, seed=7, scenarios_run=1, infeasible_skips=0,
            oracles=(), failures=(),
        ),
        "HealthResponse": HealthResponse(
            status="ok", uptime_s=0.0, requests_served=0, warmed=False,
        ),
        "ErrorResponse": ErrorResponse(error="x", message="m"),
    }
    return dump_bytes(samples[cls.__name__])


_OPTION = PlanOptionPayload(
    ranks=64, strategy="parallel", mapping="multilevel",
    time_per_iteration=1.0, core_seconds=64.0, efficiency=1.0,
)
_ASSIGNMENT = PlanAssignmentPayload(
    domain="d1", nx=100, ny=100, x0=0, y0=0, width=10, height=10,
    processors=16,
)
_ITER = IterationPayload(
    total_time=1.0, integration_time=0.9, io_time=0.1, mpi_wait=0.2,
    average_hops=3.0,
)


# ----------------------------------------------------------------------
# Strict parsing: structured errors, never tracebacks
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=10)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=10,
)


class TestStrictParsing:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_SCHEMAS), _JSON)
    def test_arbitrary_payloads_never_leak_raw_exceptions(self, cls, payload):
        try:
            parse_payload(cls, payload)
        except SchemaError as exc:
            assert exc.code
            assert str(exc)

    @pytest.mark.parametrize(
        "payload, code, field",
        [
            ([1, 2], "invalid-payload", None),
            ({"bogus": 1}, "unknown-field", "bogus"),
            ({"config": "antarctica"}, "invalid-choice", "config"),
            ({"config": 7}, "invalid-type", "config"),
            ({"max_ranks": True}, "invalid-type", "max_ranks"),
            ({"max_ranks": 0}, "out-of-range", "max_ranks"),
            ({"max_ranks": MAX_RANKS + 1}, "out-of-range", "max_ranks"),
            ({"efficiency_floor": 1.5}, "out-of-range", "efficiency_floor"),
            ({"efficiency_floor": 0.0}, "out-of-range", "efficiency_floor"),
            ({"min_ranks": 512, "max_ranks": 64}, "invalid-value", "max_ranks"),
            ({"schema_version": 99}, "unsupported-schema-version",
             "schema_version"),
        ],
    )
    def test_recommend_request_error_codes(self, payload, code, field):
        with pytest.raises(SchemaError) as err:
            parse_payload(RecommendRequest, payload)
        assert err.value.code == code
        assert err.value.field == field

    def test_missing_required_field(self):
        payload = to_payload(_OPTION)
        del payload["ranks"]
        with pytest.raises(SchemaError) as err:
            parse_payload(PlanOptionPayload, payload)
        assert err.value.code == "missing-field"
        assert err.value.field == "ranks"

    def test_nonfinite_floats_rejected(self):
        payload = to_payload(_ITER)
        payload["total_time"] = float("inf")
        with pytest.raises(SchemaError) as err:
            parse_payload(IterationPayload, payload)
        assert err.value.code == "invalid-value"

    def test_nested_tuple_elements_validated(self):
        payload = json.loads(_minimal_payload(RecommendResponse))
        payload["options"][0]["efficiency"] = 2.0
        with pytest.raises(SchemaError) as err:
            parse_payload(RecommendResponse, payload)
        assert err.value.code == "out-of-range"
        assert "options[0]" in err.value.field

    def test_params_dict_rejects_non_scalars(self):
        payload = {
            "oracle": "x", "message": "m",
            "scenario": {"nested": {"deep": 1}}, "minimized": {},
        }
        with pytest.raises(SchemaError) as err:
            parse_payload(VerifyFailurePayload, payload)
        assert err.value.code == "invalid-type"

    def test_defaults_fill_optional_request_fields(self):
        req = parse_payload(RecommendRequest, {})
        assert req == RecommendRequest()
        assert req.schema_version == SCHEMA_VERSION

    def test_wire_names_are_the_lookup_tables_keys(self):
        # The schema declares the names; the service looks them up.
        assert (MACHINE_NAMES, MAPPING_NAMES) == (
            tuple(sorted(MACHINES)), tuple(sorted(MAPPINGS)),
        )
