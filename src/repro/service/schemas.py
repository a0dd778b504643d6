"""Versioned request/response schemas for the planning service.

Every payload that crosses the HTTP boundary is a **frozen dataclass**
with a declarative field spec (``_SPEC``) and strict JSON
(de)serialization:

* :func:`parse_payload` rejects unknown fields, wrong types (``bool``
  is never accepted where a number is expected), out-of-range values,
  and unsupported schema versions — each with a stable kebab-case
  error code carried on :class:`SchemaError`, never a traceback;
* :func:`to_payload` / :func:`dump_bytes` emit **canonical JSON**
  (sorted keys, minimal separators, ``allow_nan=False``), so
  serialize → parse → serialize is byte-stable and identical requests
  hash to identical coalescing keys.

``schema_version`` is embedded in every request and response; bumping
:data:`SCHEMA_VERSION` is a wire-format change and parsers reject
versions they do not speak (``unsupported-schema-version``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from math import isfinite
from typing import Any, Dict, Mapping, Optional, Tuple, Type, Union

from repro.errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "parse_payload",
    "to_payload",
    "dump_bytes",
    "canonical_json",
    "CONFIG_NAMES",
    "MACHINE_NAMES",
    "MAPPING_NAMES",
    "IO_NAMES",
    "STRATEGY_NAMES",
    "RecommendRequest",
    "SimulateRequest",
    "VerifyRequest",
    "PlanRequest",
    "PlanAssignmentPayload",
    "PlanResponse",
    "PlanOptionPayload",
    "RecommendResponse",
    "IterationPayload",
    "SimulateResponse",
    "VerifyFailurePayload",
    "VerifyResponse",
    "HealthResponse",
    "ErrorResponse",
    "REQUEST_SCHEMAS",
    "RESPONSE_SCHEMAS",
    "ALL_SCHEMAS",
]

#: Wire-format version embedded in every request and response.
SCHEMA_VERSION = 1

#: Built-in paper configurations the service can plan: the keys of
#: :data:`repro.workloads.paper_configs.CONFIGS`, which the CLI's
#: ``--config`` offers too.
CONFIG_NAMES: Tuple[str, ...] = ("fig2", "fig10", "fig15", "table2")
MACHINE_NAMES: Tuple[str, ...] = ("bgl", "bgp")
MAPPING_NAMES: Tuple[str, ...] = ("multilevel", "oblivious", "partition", "txyz")
IO_NAMES: Tuple[str, ...] = ("none", "pnetcdf", "split")
STRATEGY_NAMES: Tuple[str, ...] = ("sequential", "parallel")

#: Hard cap on ranks accepted over the wire (well past the 131k
#: strong-scaling ceiling; anything larger is a client bug, not a plan).
MAX_RANKS = 1 << 22
#: Hard cap on the fuzz budget a single /verify request may spend.
MAX_VERIFY_BUDGET = 500


class SchemaError(ReproError):
    """A payload violated a schema; carries a stable error code.

    ``code`` is one of: ``invalid-payload``, ``unknown-field``,
    ``missing-field``, ``invalid-type``, ``invalid-choice``,
    ``out-of-range``, ``invalid-value``, ``unsupported-schema-version``.
    """

    def __init__(self, code: str, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.field = field


_MISSING = object()


@dataclass(frozen=True)
class _Field:
    """Declarative spec of one schema field.

    ``kind`` is ``"int"``/``"float"``/``"str"``/``"bool"``, a schema
    dataclass (nested object), ``("tuple", kind)`` (homogeneous array),
    or ``"params"`` (a flat string-keyed dict of JSON scalars — the
    scenario repro-dict shape).
    """

    kind: Any
    default: Any = _MISSING
    choices: Optional[Tuple[Any, ...]] = None
    lo: Optional[float] = None
    hi: Optional[float] = None


def _type_error(name: str, expected: str, value: Any) -> SchemaError:
    return SchemaError(
        "invalid-type",
        f"field {name!r} must be {expected}, got {type(value).__name__}",
        field=name,
    )


def _parse_value(spec: _Field, name: str, value: Any) -> Any:
    kind = spec.kind
    if isinstance(kind, tuple) and kind[0] == "tuple":
        if not isinstance(value, (list, tuple)):
            raise _type_error(name, "an array", value)
        sub = _Field(kind[1], choices=spec.choices, lo=spec.lo, hi=spec.hi)
        return tuple(
            _parse_value(sub, f"{name}[{i}]", v) for i, v in enumerate(value)
        )
    if isinstance(kind, type) and hasattr(kind, "_SPEC"):
        if not isinstance(value, Mapping):
            raise _type_error(name, "an object", value)
        try:
            return parse_payload(kind, value)
        except SchemaError as exc:
            # Prefix the nested path so clients see e.g. "options[0].efficiency".
            path = f"{name}.{exc.field}" if exc.field else name
            raise SchemaError(exc.code, str(exc), field=path) from None
    if kind == "params":
        if not isinstance(value, Mapping):
            raise _type_error(name, "an object", value)
        out: Dict[str, Any] = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise _type_error(name, "string-keyed", k)
            if isinstance(v, float) and not isfinite(v):
                raise SchemaError(
                    "invalid-value", f"field {name}.{k} must be finite", field=name
                )
            if not isinstance(v, (str, bool, int, float)):
                raise _type_error(f"{name}.{k}", "a JSON scalar", v)
            out[k] = v
        return out
    if kind == "bool":
        if not isinstance(value, bool):
            raise _type_error(name, "a boolean", value)
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise _type_error(name, "an integer", value)
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _type_error(name, "a number", value)
        value = float(value)
        if not isfinite(value):
            raise SchemaError(
                "invalid-value", f"field {name!r} must be finite", field=name
            )
    elif kind == "str":
        if not isinstance(value, str):
            raise _type_error(name, "a string", value)
    else:  # pragma: no cover - spec bug, not reachable from payloads
        raise AssertionError(f"unknown field kind {kind!r}")
    if spec.choices is not None and value not in spec.choices:
        raise SchemaError(
            "invalid-choice",
            f"field {name!r} must be one of {sorted(spec.choices)}, "
            f"got {value!r}",
            field=name,
        )
    if spec.lo is not None and value < spec.lo:
        raise SchemaError(
            "out-of-range",
            f"field {name!r} must be >= {spec.lo}, got {value!r}",
            field=name,
        )
    if spec.hi is not None and value > spec.hi:
        raise SchemaError(
            "out-of-range",
            f"field {name!r} must be <= {spec.hi}, got {value!r}",
            field=name,
        )
    return value


def parse_payload(cls: Type[Any], payload: Any) -> Any:
    """Strictly parse *payload* into schema dataclass *cls*.

    Raises :class:`SchemaError` (with a stable ``code``) on any
    violation; never lets a stray ``KeyError``/``TypeError`` escape.
    """
    spec: Dict[str, _Field] = cls._SPEC
    if not isinstance(payload, Mapping):
        raise SchemaError(
            "invalid-payload",
            f"{cls.__name__} payload must be a JSON object, "
            f"got {type(payload).__name__}",
        )
    for key in payload:
        if not isinstance(key, str) or key not in spec:
            raise SchemaError(
                "unknown-field",
                f"{cls.__name__} does not accept field {key!r}",
                field=str(key),
            )
    kwargs: Dict[str, Any] = {}
    for name, field_spec in spec.items():
        if name in payload:
            value = _parse_value(field_spec, name, payload[name])
        elif field_spec.default is not _MISSING:
            value = field_spec.default
        else:
            raise SchemaError(
                "missing-field",
                f"{cls.__name__} requires field {name!r}",
                field=name,
            )
        if name == "schema_version" and value != SCHEMA_VERSION:
            raise SchemaError(
                "unsupported-schema-version",
                f"this server speaks schema_version {SCHEMA_VERSION}, "
                f"got {value!r}",
                field=name,
            )
        kwargs[name] = value
    obj = cls(**kwargs)
    validate = getattr(obj, "validate", None)
    if validate is not None:
        validate()
    return obj


def _value_payload(value: Any) -> Any:
    if hasattr(type(value), "_SPEC"):
        return to_payload(value)
    if isinstance(value, tuple):
        return [_value_payload(v) for v in value]
    if isinstance(value, dict):
        return {k: _value_payload(v) for k, v in value.items()}
    return value


def to_payload(obj: Any) -> Dict[str, Any]:
    """The JSON-able dict form of a schema dataclass (tuples -> lists)."""
    return {f.name: _value_payload(getattr(obj, f.name)) for f in fields(obj)}


def canonical_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, minimal separators, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def dump_bytes(obj: Any) -> bytes:
    """The canonical UTF-8 wire form of a schema dataclass."""
    return canonical_json(to_payload(obj)).encode("utf-8")


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecommendRequest:
    """``POST /recommend`` — wrap :func:`repro.analysis.planner.recommend`."""

    config: str = "table2"
    machine: str = "bgl"
    min_ranks: int = 64
    max_ranks: int = 1024
    efficiency_floor: float = 0.5
    mapping: str = "multilevel"
    io: str = "none"
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "config": _Field("str", default="table2", choices=CONFIG_NAMES),
        "machine": _Field("str", default="bgl", choices=MACHINE_NAMES),
        "min_ranks": _Field("int", default=64, lo=1, hi=MAX_RANKS),
        "max_ranks": _Field("int", default=1024, lo=1, hi=MAX_RANKS),
        "efficiency_floor": _Field("float", default=0.5, lo=0.0, hi=1.0),
        "mapping": _Field("str", default="multilevel", choices=MAPPING_NAMES),
        "io": _Field("str", default="none", choices=IO_NAMES),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }

    def validate(self) -> None:
        if self.max_ranks < self.min_ranks:
            raise SchemaError(
                "invalid-value",
                f"max_ranks ({self.max_ranks}) must be >= min_ranks "
                f"({self.min_ranks})",
                field="max_ranks",
            )
        if self.efficiency_floor <= 0.0:
            raise SchemaError(
                "out-of-range",
                "efficiency_floor must be in (0, 1]",
                field="efficiency_floor",
            )


@dataclass(frozen=True)
class SimulateRequest:
    """``POST /simulate`` — price one iteration under both strategies."""

    config: str = "table2"
    machine: str = "bgl"
    ranks: int = 256
    mapping: str = "oblivious"
    io: str = "none"
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "config": _Field("str", default="table2", choices=CONFIG_NAMES),
        "machine": _Field("str", default="bgl", choices=MACHINE_NAMES),
        "ranks": _Field("int", default=256, lo=1, hi=MAX_RANKS),
        "mapping": _Field("str", default="oblivious", choices=MAPPING_NAMES),
        "io": _Field("str", default="none", choices=IO_NAMES),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class VerifyRequest:
    """``POST /verify`` — run the invariant oracles over fuzzed scenarios."""

    budget: int = 25
    seed: int = 7
    oracles: Tuple[str, ...] = ()
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "budget": _Field("int", default=25, lo=1, hi=MAX_VERIFY_BUDGET),
        "seed": _Field("int", default=7, lo=0, hi=2**31 - 1),
        "oracles": _Field(("tuple", "str"), default=()),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class PlanRequest:
    """``POST /plan`` — the raw execution plan for one configuration.

    The cheapest cacheable request the service answers: one plan-cache
    lookup (no simulation, no sweep), which makes it the natural probe
    for shard cache affinity in the sharded router.
    """

    config: str = "table2"
    machine: str = "bgl"
    ranks: int = 256
    strategy: str = "parallel"
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "config": _Field("str", default="table2", choices=CONFIG_NAMES),
        "machine": _Field("str", default="bgl", choices=MACHINE_NAMES),
        "ranks": _Field("int", default=256, lo=1, hi=MAX_RANKS),
        "strategy": _Field(
            "str", default="parallel", choices=STRATEGY_NAMES
        ),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanOptionPayload:
    """One evaluated (ranks, strategy, mapping) combination."""

    ranks: int
    strategy: str
    mapping: str
    time_per_iteration: float
    core_seconds: float
    efficiency: float

    _SPEC = {
        "ranks": _Field("int", lo=1),
        "strategy": _Field("str", choices=("sequential", "parallel")),
        "mapping": _Field("str"),
        "time_per_iteration": _Field("float", lo=0.0),
        "core_seconds": _Field("float", lo=0.0),
        "efficiency": _Field("float", lo=0.0, hi=1.0),
    }


@dataclass(frozen=True)
class RecommendResponse:
    """Ranked sweep results, fastest first."""

    config: str
    machine: str
    efficiency_floor: float
    options: Tuple[PlanOptionPayload, ...]
    fastest: PlanOptionPayload
    recommended: PlanOptionPayload
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "config": _Field("str"),
        "machine": _Field("str"),
        "efficiency_floor": _Field("float", lo=0.0, hi=1.0),
        "options": _Field(("tuple", PlanOptionPayload)),
        "fastest": _Field(PlanOptionPayload),
        "recommended": _Field(PlanOptionPayload),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class IterationPayload:
    """One simulated iteration, the fields clients plot."""

    total_time: float
    integration_time: float
    io_time: float
    mpi_wait: float
    average_hops: float

    _SPEC = {
        "total_time": _Field("float", lo=0.0),
        "integration_time": _Field("float", lo=0.0),
        "io_time": _Field("float", lo=0.0),
        "mpi_wait": _Field("float", lo=0.0),
        "average_hops": _Field("float", lo=0.0),
    }


@dataclass(frozen=True)
class SimulateResponse:
    """Both strategies priced on one configuration and rank count."""

    config: str
    machine: str
    ranks: int
    mapping: str
    io: str
    sequential: IterationPayload
    parallel: IterationPayload
    #: ``100 * (1 - parallel/sequential)`` on total time (may be < 0).
    improvement_percent: float
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "config": _Field("str"),
        "machine": _Field("str"),
        "ranks": _Field("int", lo=1),
        "mapping": _Field("str"),
        "io": _Field("str"),
        "sequential": _Field(IterationPayload),
        "parallel": _Field(IterationPayload),
        "improvement_percent": _Field("float"),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class PlanAssignmentPayload:
    """One sibling nest and the processor rectangle it runs on."""

    domain: str
    nx: int
    ny: int
    x0: int
    y0: int
    width: int
    height: int
    processors: int

    _SPEC = {
        "domain": _Field("str"),
        "nx": _Field("int", lo=1),
        "ny": _Field("int", lo=1),
        "x0": _Field("int", lo=0),
        "y0": _Field("int", lo=0),
        "width": _Field("int", lo=1),
        "height": _Field("int", lo=1),
        "processors": _Field("int", lo=1),
    }


@dataclass(frozen=True)
class PlanResponse:
    """The raw execution plan: grid, parent, per-sibling rectangles."""

    config: str
    machine: str
    ranks: int
    strategy: str
    grid_px: int
    grid_py: int
    concurrent: bool
    parent_nx: int
    parent_ny: int
    assignments: Tuple[PlanAssignmentPayload, ...]
    #: Predicted execution-time ratios that drove the allocation
    #: (empty for the sequential strategy).
    ratios: Tuple[float, ...] = ()
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "config": _Field("str"),
        "machine": _Field("str"),
        "ranks": _Field("int", lo=1),
        "strategy": _Field("str", choices=STRATEGY_NAMES),
        "grid_px": _Field("int", lo=1),
        "grid_py": _Field("int", lo=1),
        "concurrent": _Field("bool"),
        "parent_nx": _Field("int", lo=1),
        "parent_ny": _Field("int", lo=1),
        "assignments": _Field(("tuple", PlanAssignmentPayload)),
        "ratios": _Field(("tuple", "float"), default=(), lo=0.0),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class VerifyFailurePayload:
    """One minimized oracle failure."""

    oracle: str
    message: str
    scenario: Dict[str, Any]
    minimized: Dict[str, Any]

    _SPEC = {
        "oracle": _Field("str"),
        "message": _Field("str"),
        "scenario": _Field("params"),
        "minimized": _Field("params"),
    }


@dataclass(frozen=True)
class VerifyResponse:
    """Outcome of one oracle run over fuzzed scenarios."""

    ok: bool
    budget: int
    seed: int
    scenarios_run: int
    infeasible_skips: int
    oracles: Tuple[str, ...]
    failures: Tuple[VerifyFailurePayload, ...]
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "ok": _Field("bool"),
        "budget": _Field("int", lo=1),
        "seed": _Field("int", lo=0),
        "scenarios_run": _Field("int", lo=0),
        "infeasible_skips": _Field("int", lo=0),
        "oracles": _Field(("tuple", "str")),
        "failures": _Field(("tuple", VerifyFailurePayload)),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class HealthResponse:
    """``GET /healthz`` — liveness plus coarse service counters."""

    status: str
    uptime_s: float
    requests_served: int
    warmed: bool
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "status": _Field("str", choices=("ok",)),
        "uptime_s": _Field("float", lo=0.0),
        "requests_served": _Field("int", lo=0),
        "warmed": _Field("bool"),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


@dataclass(frozen=True)
class ErrorResponse:
    """Structured error body; ``error`` is a stable kebab-case code."""

    error: str
    message: str
    schema_version: int = SCHEMA_VERSION

    _SPEC = {
        "error": _Field("str"),
        "message": _Field("str"),
        "schema_version": _Field("int", default=SCHEMA_VERSION),
    }


REQUEST_SCHEMAS: Tuple[type, ...] = (
    RecommendRequest,
    SimulateRequest,
    VerifyRequest,
    PlanRequest,
)
RESPONSE_SCHEMAS: Tuple[type, ...] = (
    PlanOptionPayload,
    PlanAssignmentPayload,
    PlanResponse,
    RecommendResponse,
    IterationPayload,
    SimulateResponse,
    VerifyFailurePayload,
    VerifyResponse,
    HealthResponse,
    ErrorResponse,
)
ALL_SCHEMAS: Tuple[type, ...] = REQUEST_SCHEMAS + RESPONSE_SCHEMAS
