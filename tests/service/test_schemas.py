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
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        versioned = [s for s in ALL_SCHEMAS if "schema_version" in _names(s)]
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


# ----------------------------------------------------------------------
# Wire catalogue: one fixed instance of every schema with its canonical
# bytes, and the exact (code, field, message) of every error its
# declared kinds, defaults, bounds and choices produce.
# ----------------------------------------------------------------------
def _names(cls):
    return [f.name for f in fields(cls)]


_FAST = PlanOptionPayload(
    ranks=1024, strategy="parallel", mapping="multilevel",
    time_per_iteration=0.1, core_seconds=102.4, efficiency=0.625,
)
_SLOW = PlanOptionPayload(
    ranks=512, strategy="sequential", mapping="multilevel",
    time_per_iteration=0.125, core_seconds=64.0, efficiency=1.0,
)
_D02 = PlanAssignmentPayload(
    domain="d02", nx=394, ny=418, x0=0, y0=0, width=12, height=32,
    processors=384,
)
_D03 = PlanAssignmentPayload(
    domain="d03", nx=556, ny=460, x0=12, y0=0, width=20, height=32,
    processors=640,
)
_SEQ = IterationPayload(
    total_time=2.5, integration_time=2.25, io_time=0.25, mpi_wait=0.5,
    average_hops=3.1875,
)
_PAR = IterationPayload(
    total_time=2.0, integration_time=1.875, io_time=0.125, mpi_wait=0.0,
    average_hops=1.5,
)
_FAILURE = VerifyFailurePayload(
    oracle="conservation", message="lost 2 ranks",
    scenario={"machine": "bgl", "ranks": 256, "io": "none"},
    minimized={"ranks": 64, "flag": True, "share": 0.5},
)

#: (instance, its canonical wire bytes), one per schema.
CATALOGUE = (
    (RecommendRequest(config="fig10", machine="bgp", min_ranks=128,
                      max_ranks=4096, efficiency_floor=0.75,
                      mapping="partition", io="split"),
     b'{"config":"fig10","efficiency_floor":0.75,"io":"split",'
     b'"machine":"bgp","mapping":"partition","max_ranks":4096,'
     b'"min_ranks":128,"schema_version":1}'),
    (SimulateRequest(config="fig15", machine="bgp", ranks=2048,
                     mapping="txyz", io="pnetcdf"),
     b'{"config":"fig15","io":"pnetcdf","machine":"bgp","mapping":"txyz",'
     b'"ranks":2048,"schema_version":1}'),
    (VerifyRequest(budget=50, seed=11,
                   oracles=("conservation", "mapping-bijectivity")),
     b'{"budget":50,"oracles":["conservation","mapping-bijectivity"],'
     b'"schema_version":1,"seed":11}'),
    (PlanRequest(config="fig2", machine="bgl", ranks=512,
                 strategy="sequential"),
     b'{"config":"fig2","machine":"bgl","ranks":512,"schema_version":1,'
     b'"strategy":"sequential"}'),
    (_FAST,
     b'{"core_seconds":102.4,"efficiency":0.625,"mapping":"multilevel",'
     b'"ranks":1024,"strategy":"parallel","time_per_iteration":0.1}'),
    (_D02,
     b'{"domain":"d02","height":32,"nx":394,"ny":418,"processors":384,'
     b'"width":12,"x0":0,"y0":0}'),
    (PlanResponse(config="table2", machine="bgl", ranks=1024,
                  strategy="parallel", grid_px=32, grid_py=32,
                  concurrent=True, parent_nx=286, parent_ny=307,
                  assignments=(_D02, _D03), ratios=(0.375, 0.625)),
     b'{"assignments":[{"domain":"d02","height":32,"nx":394,"ny":418,'
     b'"processors":384,"width":12,"x0":0,"y0":0},{"domain":"d03",'
     b'"height":32,"nx":556,"ny":460,"processors":640,"width":20,"x0":12,'
     b'"y0":0}],"concurrent":true,"config":"table2","grid_px":32,'
     b'"grid_py":32,"machine":"bgl","parent_nx":286,"parent_ny":307,'
     b'"ranks":1024,"ratios":[0.375,0.625],"schema_version":1,'
     b'"strategy":"parallel"}'),
    (RecommendResponse(config="table2", machine="bgp", efficiency_floor=0.5,
                       options=(_FAST, _SLOW), fastest=_FAST,
                       recommended=_SLOW),
     b'{"config":"table2","efficiency_floor":0.5,"fastest":'
     b'{"core_seconds":102.4,"efficiency":0.625,"mapping":"multilevel",'
     b'"ranks":1024,"strategy":"parallel","time_per_iteration":0.1},'
     b'"machine":"bgp","options":[{"core_seconds":102.4,"efficiency":0.625,'
     b'"mapping":"multilevel","ranks":1024,"strategy":"parallel",'
     b'"time_per_iteration":0.1},{"core_seconds":64.0,"efficiency":1.0,'
     b'"mapping":"multilevel","ranks":512,"strategy":"sequential",'
     b'"time_per_iteration":0.125}],"recommended":{"core_seconds":64.0,'
     b'"efficiency":1.0,"mapping":"multilevel","ranks":512,'
     b'"strategy":"sequential","time_per_iteration":0.125},'
     b'"schema_version":1}'),
    (_SEQ,
     b'{"average_hops":3.1875,"integration_time":2.25,"io_time":0.25,'
     b'"mpi_wait":0.5,"total_time":2.5}'),
    (SimulateResponse(config="fig2", machine="bgl", ranks=64,
                      mapping="oblivious", io="none", sequential=_SEQ,
                      parallel=_PAR, improvement_percent=20.0),
     b'{"config":"fig2","improvement_percent":20.0,"io":"none",'
     b'"machine":"bgl","mapping":"oblivious","parallel":{"average_hops":1.5,'
     b'"integration_time":1.875,"io_time":0.125,"mpi_wait":0.0,'
     b'"total_time":2.0},"ranks":64,"schema_version":1,"sequential":'
     b'{"average_hops":3.1875,"integration_time":2.25,"io_time":0.25,'
     b'"mpi_wait":0.5,"total_time":2.5}}'),
    (_FAILURE,
     b'{"message":"lost 2 ranks","minimized":{"flag":true,"ranks":64,'
     b'"share":0.5},"oracle":"conservation","scenario":{"io":"none",'
     b'"machine":"bgl","ranks":256}}'),
    (VerifyResponse(ok=False, budget=3, seed=5, scenarios_run=3,
                    infeasible_skips=1, oracles=("conservation",),
                    failures=(_FAILURE,)),
     b'{"budget":3,"failures":[{"message":"lost 2 ranks","minimized":'
     b'{"flag":true,"ranks":64,"share":0.5},"oracle":"conservation",'
     b'"scenario":{"io":"none","machine":"bgl","ranks":256}}],'
     b'"infeasible_skips":1,"ok":false,"oracles":["conservation"],'
     b'"scenarios_run":3,"schema_version":1,"seed":5}'),
    (HealthResponse(status="ok", uptime_s=12.5, requests_served=42,
                    warmed=True),
     b'{"requests_served":42,"schema_version":1,"status":"ok",'
     b'"uptime_s":12.5,"warmed":true}'),
    (ErrorResponse(error="not-found", message="no route for /café"),
     b'{"error":"not-found","message":"no route for /caf\\u00e9",'
     b'"schema_version":1}'),
)

_BY_SCHEMA = {type(obj): (obj, wire) for obj, wire in CATALOGUE}
_VERSIONED = [cls for cls in ALL_SCHEMAS if "schema_version" in _names(cls)]

#: The largest float below 0.0 and the smallest above 1.0.
_BELOW_ZERO = -5e-324
_ABOVE_ONE = 1.0000000000000002
_CONFIGS = "['fig10', 'fig15', 'fig2', 'table2']"
_MACHINES = "['bgl', 'bgp']"
_MAPPINGS = "['multilevel', 'oblivious', 'partition', 'txyz']"
_IOS = "['none', 'pnetcdf', 'split']"
_STRATEGIES = "['parallel', 'sequential']"


def _choice(cls, name, value, allowed):
    message = f"field {name!r} must be one of {allowed}, got {value!r}"
    return pytest.param(cls, name, value, "invalid-choice", name, message,
                        id=f"{cls.__name__}.{name}={value!r}")


def _past(cls, name, value, bound, field=None):
    field = field or name
    op = ">=" if value < bound else "<="
    shown = float(value) if isinstance(bound, float) else value
    message = f"field {field!r} must be {op} {bound!r}, got {shown!r}"
    return pytest.param(cls, name, value, "out-of-range", field, message,
                        id=f"{cls.__name__}.{field}={value!r}")


_RANKS_HI = MAX_RANKS + 1

#: A value just past each bound, and one outside each choice set, of
#: every schema: (schema, key, value, code, field, message).
BOUND_AND_CHOICE_CASES = [
    _choice(RecommendRequest, "config", "mars", _CONFIGS),
    _choice(RecommendRequest, "machine", "bgq", _MACHINES),
    _past(RecommendRequest, "min_ranks", 0, 1),
    _past(RecommendRequest, "min_ranks", _RANKS_HI, MAX_RANKS),
    _past(RecommendRequest, "max_ranks", 0, 1),
    _past(RecommendRequest, "max_ranks", _RANKS_HI, MAX_RANKS),
    _past(RecommendRequest, "efficiency_floor", _BELOW_ZERO, 0.0),
    _past(RecommendRequest, "efficiency_floor", _ABOVE_ONE, 1.0),
    _choice(RecommendRequest, "mapping", "hilbert", _MAPPINGS),
    _choice(RecommendRequest, "io", "hdf5", _IOS),
    _choice(SimulateRequest, "config", "mars", _CONFIGS),
    _choice(SimulateRequest, "machine", "bgq", _MACHINES),
    _past(SimulateRequest, "ranks", 0, 1),
    _past(SimulateRequest, "ranks", _RANKS_HI, MAX_RANKS),
    _choice(SimulateRequest, "mapping", "hilbert", _MAPPINGS),
    _choice(SimulateRequest, "io", "hdf5", _IOS),
    _past(VerifyRequest, "budget", 0, 1),
    _past(VerifyRequest, "budget", 501, 500),
    _past(VerifyRequest, "seed", -1, 0),
    _past(VerifyRequest, "seed", 2**31, 2**31 - 1),
    _choice(PlanRequest, "config", "mars", _CONFIGS),
    _choice(PlanRequest, "machine", "bgq", _MACHINES),
    _past(PlanRequest, "ranks", 0, 1),
    _past(PlanRequest, "ranks", _RANKS_HI, MAX_RANKS),
    _choice(PlanRequest, "strategy", "diagonal", _STRATEGIES),
    _past(PlanOptionPayload, "ranks", 0, 1),
    _choice(PlanOptionPayload, "strategy", "diagonal", _STRATEGIES),
    _past(PlanOptionPayload, "time_per_iteration", _BELOW_ZERO, 0.0),
    _past(PlanOptionPayload, "core_seconds", _BELOW_ZERO, 0.0),
    _past(PlanOptionPayload, "efficiency", _BELOW_ZERO, 0.0),
    _past(PlanOptionPayload, "efficiency", _ABOVE_ONE, 1.0),
    _past(RecommendResponse, "efficiency_floor", _BELOW_ZERO, 0.0),
    _past(RecommendResponse, "efficiency_floor", _ABOVE_ONE, 1.0),
    _past(IterationPayload, "total_time", _BELOW_ZERO, 0.0),
    _past(IterationPayload, "total_time", -1, 0.0),
    _past(IterationPayload, "integration_time", _BELOW_ZERO, 0.0),
    _past(IterationPayload, "io_time", _BELOW_ZERO, 0.0),
    _past(IterationPayload, "mpi_wait", _BELOW_ZERO, 0.0),
    _past(IterationPayload, "average_hops", _BELOW_ZERO, 0.0),
    _past(SimulateResponse, "ranks", 0, 1),
    _past(PlanAssignmentPayload, "nx", 0, 1),
    _past(PlanAssignmentPayload, "ny", 0, 1),
    _past(PlanAssignmentPayload, "x0", -1, 0),
    _past(PlanAssignmentPayload, "y0", -1, 0),
    _past(PlanAssignmentPayload, "width", 0, 1),
    _past(PlanAssignmentPayload, "height", 0, 1),
    _past(PlanAssignmentPayload, "processors", 0, 1),
    _past(PlanResponse, "ranks", 0, 1),
    _choice(PlanResponse, "strategy", "diagonal", _STRATEGIES),
    _past(PlanResponse, "grid_px", 0, 1),
    _past(PlanResponse, "grid_py", 0, 1),
    _past(PlanResponse, "parent_nx", 0, 1),
    _past(PlanResponse, "parent_ny", 0, 1),
    pytest.param(
        PlanResponse, "ratios", [0.375, _BELOW_ZERO], "out-of-range",
        "ratios[1]", "field 'ratios[1]' must be >= 0.0, got -5e-324",
        id="PlanResponse.ratios[1]=-5e-324",
    ),
    _past(VerifyResponse, "budget", 0, 1),
    _past(VerifyResponse, "seed", -1, 0),
    _past(VerifyResponse, "scenarios_run", -1, 0),
    _past(VerifyResponse, "infeasible_skips", -1, 0),
    _choice(HealthResponse, "status", "degraded", "['ok']"),
    _past(HealthResponse, "uptime_s", _BELOW_ZERO, 0.0),
    _past(HealthResponse, "requests_served", -1, 0),
    # An integer too large for a float is as non-finite as inf.
    pytest.param(
        RecommendRequest, "efficiency_floor", 10**400, "invalid-value",
        "efficiency_floor", "field 'efficiency_floor' must be finite",
        id="RecommendRequest.efficiency_floor=10**400",
    ),
    pytest.param(
        PlanResponse, "ratios", [-(10**400)], "invalid-value", "ratios[0]",
        "field 'ratios[0]' must be finite", id="PlanResponse.ratios[0]=-10**400",
    ),
]

#: The wire value of every field that has a default; every other field
#: is required.
DEFAULTS = {
    RecommendRequest: {
        "config": "table2", "machine": "bgl", "min_ranks": 64,
        "max_ranks": 1024, "efficiency_floor": 0.5, "mapping": "multilevel",
        "io": "none", "schema_version": 1,
    },
    SimulateRequest: {
        "config": "table2", "machine": "bgl", "ranks": 256,
        "mapping": "oblivious", "io": "none", "schema_version": 1,
    },
    VerifyRequest: {"budget": 25, "seed": 7, "oracles": [], "schema_version": 1},
    PlanRequest: {
        "config": "table2", "machine": "bgl", "ranks": 256,
        "strategy": "parallel", "schema_version": 1,
    },
    PlanResponse: {"ratios": [], "schema_version": 1},
    RecommendResponse: {"schema_version": 1},
    SimulateResponse: {"schema_version": 1},
    VerifyResponse: {"schema_version": 1},
    HealthResponse: {"schema_version": 1},
    ErrorResponse: {"schema_version": 1},
}

#: The phrase naming each Python type's wire kind in ``invalid-type``.
_KIND_WORDS = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    tuple: "an array", dict: "an object",
}


def _kind_word(value):
    return _KIND_WORDS.get(type(value), "an object")


def _reject(cls, payload):
    with pytest.raises(SchemaError) as err:
        parse_payload(cls, payload)
    return err.value.code, err.value.field, str(err.value)


def _base(cls):
    return json.loads(_BY_SCHEMA[cls][1])


class TestWireCatalogue:
    def test_catalogue_covers_every_schema(self):
        assert len(CATALOGUE) == len(ALL_SCHEMAS) == 14
        assert set(_BY_SCHEMA) == set(ALL_SCHEMAS)

    @pytest.mark.parametrize(
        "obj, wire", CATALOGUE, ids=[type(o).__name__ for o, _ in CATALOGUE]
    )
    def test_canonical_bytes(self, obj, wire):
        assert dump_bytes(obj) == wire
        assert parse_payload(type(obj), json.loads(wire)) == obj

    @pytest.mark.parametrize(
        "cls, key, value, code, field, message", BOUND_AND_CHOICE_CASES
    )
    def test_bound_and_choice_errors(self, cls, key, value, code, field,
                                     message):
        payload = _base(cls)
        payload[key] = value
        assert _reject(cls, payload) == (code, field, message)

    @pytest.mark.parametrize("cls", ALL_SCHEMAS, ids=lambda c: c.__name__)
    def test_fields_are_checked_in_declaration_order(self, cls):
        # Nulling every field from the k-th on reports the k-th, naming
        # its kind: this pins the order and the kind of every field.
        obj, _ = _BY_SCHEMA[cls]
        names = _names(cls)
        for k, name in enumerate(names):
            payload = _base(cls)
            payload.update(dict.fromkeys(names[k:]))
            word = _kind_word(getattr(obj, name))
            assert _reject(cls, payload) == (
                "invalid-type", name,
                f"field {name!r} must be {word}, got NoneType",
            )

    @pytest.mark.parametrize("cls", ALL_SCHEMAS, ids=lambda c: c.__name__)
    def test_absent_fields_are_required_or_defaulted(self, cls):
        defaults = DEFAULTS.get(cls, {})
        for name in _names(cls):
            payload = _base(cls)
            del payload[name]
            if name in defaults:
                parsed = to_payload(parse_payload(cls, payload))
                assert parsed == {**_base(cls), name: defaults[name]}
            else:
                assert _reject(cls, payload) == (
                    "missing-field", name,
                    f"{cls.__name__} requires field {name!r}",
                )

    @pytest.mark.parametrize("cls", ALL_SCHEMAS, ids=lambda c: c.__name__)
    def test_object_errors(self, cls):
        name = cls.__name__
        assert _reject(cls, []) == (
            "invalid-payload", None,
            f"{name} payload must be a JSON object, got list",
        )
        assert _reject(cls, {**_base(cls), "bogus": 1}) == (
            "unknown-field", "bogus", f"{name} does not accept field 'bogus'",
        )

    @pytest.mark.parametrize("cls", _VERSIONED, ids=lambda c: c.__name__)
    def test_unsupported_schema_version(self, cls):
        assert _reject(cls, {**_base(cls), "schema_version": 2}) == (
            "unsupported-schema-version", "schema_version",
            f"this server speaks schema_version {SCHEMA_VERSION}, got 2",
        )
