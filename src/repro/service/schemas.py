"""Versioned request/response schemas for the planning service.

Every payload that crosses the HTTP boundary is a **frozen dataclass**
declared with :func:`schema`, and each of its wire fields is declared
once, as a dataclass field: the annotation gives its kind (``int``,
``float``, ``str``, ``bool``, a nested schema, ``Tuple[X, ...]`` for an
array, ``Dict[str, Any]`` for a flat params object), the dataclass
default is its wire default, and :func:`wire` adds the bounds and
choices the parser enforces. :func:`schema` builds each class's field
list once, and both directions walk it:

* :func:`parse_payload` rejects unknown fields, wrong types (``bool``
  is never accepted where a number is expected), out-of-range values,
  non-finite numbers (including integers too large for a float), and
  unsupported schema versions — each with a stable kebab-case error
  code carried on :class:`SchemaError`, never a traceback;
* :func:`to_payload` / :func:`dump_bytes` emit **canonical JSON**
  (sorted keys, minimal separators, ``allow_nan=False``), so
  serialize → parse → serialize is byte-stable and identical requests
  hash to identical coalescing keys.

The choice tuples come from the tables the service looks names up in
(:data:`CONFIGS`, :data:`MACHINES`, :data:`MAPPINGS`, the I/O models).
``schema_version`` is embedded in every request and response; bumping
:data:`SCHEMA_VERSION` is a wire-format change and parsers reject
versions they do not speak (``unsupported-schema-version``).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, dataclass, field, fields
from math import inf, isfinite
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.mapping import MAPPINGS
from repro.errors import ReproError
from repro.iosim.model import IO_NAMES
from repro.topology.machines import MACHINES
from repro.workloads.paper_configs import CONFIGS

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

#: The names the service looks up: the keys of the paper configurations
#: (in their declaration order, as the CLI's ``--config`` offers them),
#: of the machines and of the mapping heuristics.
CONFIG_NAMES: Tuple[str, ...] = tuple(CONFIGS)
MACHINE_NAMES: Tuple[str, ...] = tuple(sorted(MACHINES))
MAPPING_NAMES: Tuple[str, ...] = tuple(sorted(MAPPINGS))
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


def wire(
    default: Any = MISSING,
    *,
    choices: Optional[Tuple[Any, ...]] = None,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> Any:
    """A schema field: its default, and the choices and bounds it accepts.

    An array's choices and bounds apply to each of its items.
    """
    return field(default=default, metadata={"choices": choices, "lo": lo, "hi": hi})


class _WireField(NamedTuple):
    """One wire field, as :func:`schema` reads it from its declaration."""

    #: ``int``/``float``/``str``/``bool``, ``tuple`` (an array of
    #: ``item``), ``dict`` (a flat params object) or a schema class.
    kind: Any
    item: Any
    default: Any
    choices: Optional[Tuple[Any, ...]]
    lo: Optional[float]
    hi: Optional[float]
    #: Value -> JSON form; ``None`` where the value is its own JSON form.
    dump: Optional[Callable[[Any], Any]]


_SCALARS = (int, float, str, bool)


def schema(cls: type) -> type:
    """Make *cls* a frozen dataclass and build its wire field list once."""
    cls = dataclass(frozen=True)(cls)
    hints = get_type_hints(cls)
    cls._WIRE = {f.name: _wire_field(f, hints[f.name]) for f in fields(cls)}
    return cls


def _wire_field(f: Field, hint: Any) -> _WireField:
    kind, item = get_origin(hint) or hint, None
    if kind is tuple:
        item = get_args(hint)[0]
        dump = list if item in _SCALARS else _dump_each
    elif kind is dict:
        dump = dict
    elif kind in _SCALARS:
        dump = None
    else:  # a nested schema
        dump = to_payload
    meta = f.metadata
    return _WireField(
        kind, item, f.default, meta.get("choices"), meta.get("lo"),
        meta.get("hi"), dump,
    )


def _type_error(name: str, expected: str, value: Any) -> SchemaError:
    return SchemaError(
        "invalid-type",
        f"field {name!r} must be {expected}, got {type(value).__name__}",
        field=name,
    )


def _parse_value(spec: _WireField, kind: Any, name: str, value: Any) -> Any:
    """*value* read as *kind* (the field's own, or its items') under *spec*."""
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _type_error(name, "an integer", value)
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _type_error(name, "a number", value)
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = inf
        if not isfinite(value):
            raise SchemaError(
                "invalid-value", f"field {name!r} must be finite", field=name
            )
    elif kind is str:
        if not isinstance(value, str):
            raise _type_error(name, "a string", value)
    elif kind is bool:
        if not isinstance(value, bool):
            raise _type_error(name, "a boolean", value)
        return value
    elif kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise _type_error(name, "an array", value)
        return tuple(
            _parse_value(spec, spec.item, f"{name}[{i}]", v)
            for i, v in enumerate(value)
        )
    elif kind is dict:
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
    else:  # a nested schema
        if not isinstance(value, Mapping):
            raise _type_error(name, "an object", value)
        try:
            return parse_payload(kind, value)
        except SchemaError as exc:
            # Prefix the nested path so clients see e.g. "options[0].efficiency".
            path = f"{name}.{exc.field}" if exc.field else name
            raise SchemaError(exc.code, str(exc), field=path) from None
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

    Fields are checked in declaration order, so the first error is
    always the same one. Raises :class:`SchemaError` (with a stable
    ``code``) on any violation; never lets a stray
    ``KeyError``/``TypeError`` escape.
    """
    spec: Dict[str, _WireField] = cls._WIRE
    if not isinstance(payload, Mapping):
        raise SchemaError(
            "invalid-payload",
            f"{cls.__name__} payload must be a JSON object, "
            f"got {type(payload).__name__}",
        )
    for key in payload:
        if key not in spec:
            raise SchemaError(
                "unknown-field",
                f"{cls.__name__} does not accept field {key!r}",
                field=str(key),
            )
    kwargs: Dict[str, Any] = {}
    for name, field_spec in spec.items():
        if name in payload:
            value = _parse_value(field_spec, field_spec.kind, name, payload[name])
        elif field_spec.default is not MISSING:
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


def to_payload(obj: Any) -> Dict[str, Any]:
    """The JSON-able dict form of a schema dataclass (tuples -> lists)."""
    payload = {}
    for name, spec in type(obj)._WIRE.items():
        value = getattr(obj, name)
        payload[name] = value if spec.dump is None else spec.dump(value)
    return payload


def _dump_each(values: Tuple[Any, ...]) -> list:
    return [to_payload(v) for v in values]


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
@schema
class RecommendRequest:
    """``POST /recommend`` — wrap :func:`repro.analysis.planner.recommend`."""

    config: str = wire("table2", choices=CONFIG_NAMES)
    machine: str = wire("bgl", choices=MACHINE_NAMES)
    min_ranks: int = wire(64, lo=1, hi=MAX_RANKS)
    max_ranks: int = wire(1024, lo=1, hi=MAX_RANKS)
    efficiency_floor: float = wire(0.5, lo=0.0, hi=1.0)
    mapping: str = wire("multilevel", choices=MAPPING_NAMES)
    io: str = wire("none", choices=IO_NAMES)
    schema_version: int = SCHEMA_VERSION

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


@schema
class SimulateRequest:
    """``POST /simulate`` — price one iteration under both strategies."""

    config: str = wire("table2", choices=CONFIG_NAMES)
    machine: str = wire("bgl", choices=MACHINE_NAMES)
    ranks: int = wire(256, lo=1, hi=MAX_RANKS)
    mapping: str = wire("oblivious", choices=MAPPING_NAMES)
    io: str = wire("none", choices=IO_NAMES)
    schema_version: int = SCHEMA_VERSION


@schema
class VerifyRequest:
    """``POST /verify`` — run the invariant oracles over fuzzed scenarios."""

    budget: int = wire(25, lo=1, hi=MAX_VERIFY_BUDGET)
    seed: int = wire(7, lo=0, hi=2**31 - 1)
    oracles: Tuple[str, ...] = ()
    schema_version: int = SCHEMA_VERSION


@schema
class PlanRequest:
    """``POST /plan`` — the raw execution plan for one configuration.

    The cheapest cacheable request the service answers: one plan-cache
    lookup (no simulation, no sweep), which makes it the natural probe
    for shard cache affinity in the sharded router.
    """

    config: str = wire("table2", choices=CONFIG_NAMES)
    machine: str = wire("bgl", choices=MACHINE_NAMES)
    ranks: int = wire(256, lo=1, hi=MAX_RANKS)
    strategy: str = wire("parallel", choices=STRATEGY_NAMES)
    schema_version: int = SCHEMA_VERSION


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@schema
class PlanOptionPayload:
    """One evaluated (ranks, strategy, mapping) combination."""

    ranks: int = wire(lo=1)
    strategy: str = wire(choices=STRATEGY_NAMES)
    mapping: str
    time_per_iteration: float = wire(lo=0.0)
    core_seconds: float = wire(lo=0.0)
    efficiency: float = wire(lo=0.0, hi=1.0)


@schema
class RecommendResponse:
    """Ranked sweep results, fastest first."""

    config: str
    machine: str
    efficiency_floor: float = wire(lo=0.0, hi=1.0)
    options: Tuple[PlanOptionPayload, ...]
    fastest: PlanOptionPayload
    recommended: PlanOptionPayload
    schema_version: int = SCHEMA_VERSION


@schema
class IterationPayload:
    """One simulated iteration, the fields clients plot."""

    total_time: float = wire(lo=0.0)
    integration_time: float = wire(lo=0.0)
    io_time: float = wire(lo=0.0)
    mpi_wait: float = wire(lo=0.0)
    average_hops: float = wire(lo=0.0)


@schema
class SimulateResponse:
    """Both strategies priced on one configuration and rank count."""

    config: str
    machine: str
    ranks: int = wire(lo=1)
    mapping: str
    io: str
    sequential: IterationPayload
    parallel: IterationPayload
    #: ``100 * (1 - parallel/sequential)`` on total time (may be < 0).
    improvement_percent: float
    schema_version: int = SCHEMA_VERSION


@schema
class PlanAssignmentPayload:
    """One sibling nest and the processor rectangle it runs on."""

    domain: str
    nx: int = wire(lo=1)
    ny: int = wire(lo=1)
    x0: int = wire(lo=0)
    y0: int = wire(lo=0)
    width: int = wire(lo=1)
    height: int = wire(lo=1)
    processors: int = wire(lo=1)


@schema
class PlanResponse:
    """The raw execution plan: grid, parent, per-sibling rectangles."""

    config: str
    machine: str
    ranks: int = wire(lo=1)
    strategy: str = wire(choices=STRATEGY_NAMES)
    grid_px: int = wire(lo=1)
    grid_py: int = wire(lo=1)
    concurrent: bool
    parent_nx: int = wire(lo=1)
    parent_ny: int = wire(lo=1)
    assignments: Tuple[PlanAssignmentPayload, ...]
    #: Predicted execution-time ratios that drove the allocation
    #: (empty for the sequential strategy).
    ratios: Tuple[float, ...] = wire((), lo=0.0)
    schema_version: int = SCHEMA_VERSION


@schema
class VerifyFailurePayload:
    """One minimized oracle failure."""

    oracle: str
    message: str
    scenario: Dict[str, Any]
    minimized: Dict[str, Any]


@schema
class VerifyResponse:
    """Outcome of one oracle run over fuzzed scenarios."""

    ok: bool
    budget: int = wire(lo=1)
    seed: int = wire(lo=0)
    scenarios_run: int = wire(lo=0)
    infeasible_skips: int = wire(lo=0)
    oracles: Tuple[str, ...]
    failures: Tuple[VerifyFailurePayload, ...]
    schema_version: int = SCHEMA_VERSION


@schema
class HealthResponse:
    """``GET /healthz`` — liveness plus coarse service counters."""

    status: str = wire(choices=("ok",))
    uptime_s: float = wire(lo=0.0)
    requests_served: int = wire(lo=0)
    warmed: bool
    schema_version: int = SCHEMA_VERSION


@schema
class ErrorResponse:
    """Structured error body; ``error`` is a stable kebab-case code."""

    error: str
    message: str
    schema_version: int = SCHEMA_VERSION


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
