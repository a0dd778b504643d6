"""Zero-dependency structured tracer.

Spans (``with tracer.span("netsim.exchange")``) measure *wall-clock* time
with a monotonic nanosecond clock and carry nesting information (span id,
parent id, depth); instant events and model-time *phase* samples ride on
the same stream. Every record is a plain dict, emitted in completion
order to a pluggable sink — an in-memory :class:`TraceBuffer` or an
append-only JSONL file via :class:`JsonlSink`.

Overhead policy
---------------
Tracing is **off by default** and the disabled path allocates nothing:
``Tracer.span`` returns the shared :data:`NULL_SPAN` singleton and
``event``/``phase`` return immediately. Call sites that must build an
attribute dict guard it behind ``tracer.enabled`` so a disabled tracer
costs one attribute read per call. Record emission happens on span
*exit*, so the timed region pays only two clock reads and two list
operations. An enabled span reads the thread-local stack once, and a
record inside a span takes its thread id from that span (only root
records ask the interpreter).

Concurrency
-----------
Span stacks are thread-local (nesting is per thread), span ids come from
a shared atomic counter, and sink writes are serialised by a lock, so
threads can trace concurrently into one sink.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from itertools import count
from threading import get_ident
from typing import Any, Callable, Dict, IO, Iterator, List, Optional

__all__ = [
    "NULL_SPAN",
    "TraceBuffer",
    "JsonlSink",
    "Tracer",
    "tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing",
    "read_jsonl",
]


class _NullSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span: identity-comparable in tests, never allocated
#: per call.
NULL_SPAN = _NullSpan()


class TraceBuffer:
    """In-memory sink: record dicts in completion order."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def __call__(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        del self.records[:]


class JsonlSink:
    """Append-only JSONL sink over an open text file handle.

    One record per line, compact separators; flushed per record so a
    crash mid-run leaves every completed span on disk (the point of an
    append-only trace).
    """

    __slots__ = ("_fh",)

    def __init__(self, fh: IO[str]) -> None:
        self._fh = fh

    def __call__(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Load a JSONL trace file back into record dicts."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class _Span:
    """A live span; emits its record on exit."""

    __slots__ = (
        "_tracer", "_stack", "name", "attrs", "span_id", "parent_id",
        "depth", "tid", "t0",
    )

    def __init__(self, tr: "Tracer", name: str, attrs: Optional[Dict[str, Any]]):
        self._tracer = tr
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tr = self._tracer
        stack = self._stack = tr._stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.tid = parent.tid
        else:
            self.parent_id = 0
            self.tid = get_ident()
        self.depth = len(stack)
        self.span_id = next(tr._ids)
        stack.append(self)
        self.t0 = tr._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = self._tracer._clock()
        self._stack.pop()
        record: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "tid": self.tid,
            "ts": self.t0,
            "dur": t1 - self.t0,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self._tracer._emit(record)
        return False


class Tracer:
    """A structured tracer bound to one sink and one monotonic clock.

    Parameters
    ----------
    sink:
        Callable receiving each record dict (default: a fresh
        :class:`TraceBuffer`).
    clock:
        Monotonic nanosecond clock (default ``time.perf_counter_ns``);
        injectable for deterministic tests.
    """

    def __init__(
        self,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        # Explicit None checks: an *empty* TraceBuffer is falsy (__len__).
        self._sink: Callable[[Dict[str, Any]], None] = (
            TraceBuffer() if sink is None else sink
        )
        self._clock = clock
        # ``next`` on itertools.count is atomic under the GIL.
        self._ids = count(1)
        self._local = threading.local()
        self._emit_lock = threading.Lock()
        self.enabled = False

    # ------------------------------------------------------------ internals
    def _stack(self) -> List[_Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _origin(self) -> tuple:
        """``(parent id, depth, thread id)`` of a record emitted here."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            return top.span_id, len(stack), top.tid
        return 0, 0, get_ident()

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._emit_lock:
            self._sink(record)

    # ------------------------------------------------------------- recording
    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        """A wall-clock span context manager (no-op singleton when disabled).

        *attrs* is a plain dict, not ``**kwargs``: the disabled fast path
        must not build a dict per call. Sites with attributes should
        guard their dict literal behind ``tracer.enabled``.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def event(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """An instant event at the current nesting position."""
        if not self.enabled:
            return
        parent, depth, tid = self._origin()
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "id": next(self._ids),
            "parent": parent,
            "depth": depth,
            "tid": tid,
            "ts": self._clock(),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def phase(
        self, phase: str, model_time: float, attrs: Optional[Dict[str, Any]] = None
    ) -> None:
        """A model-time phase sample (simulated seconds, not wall time).

        Phase records are what the profile report aggregates into the
        paper-style per-phase/per-sibling breakdown; ``parent`` links the
        sample to the enclosing span (e.g. one ``simulate_iteration``).
        """
        if not self.enabled:
            return
        parent, depth, tid = self._origin()
        record: Dict[str, Any] = {
            "type": "phase",
            "phase": phase,
            "model_time": float(model_time),
            "id": next(self._ids),
            "parent": parent,
            "depth": depth,
            "tid": tid,
            "ts": self._clock(),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    # ------------------------------------------------------------- plumbing
    def current_depth(self) -> int:
        """Nesting depth of the calling thread (0 outside any span)."""
        return len(self._stack())

    def configure(
        self, sink: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> None:
        """Swap the sink (a fresh buffer when *sink* is None)."""
        self._sink = TraceBuffer() if sink is None else sink


#: The process-global tracer every instrumented subsystem publishes to.
#: Reconfigured in place so module-level references stay valid.
_TRACER = Tracer()


def tracer() -> Tracer:
    """The global tracer (disabled until :func:`enable_tracing`)."""
    return _TRACER


def enable_tracing(
    sink: Optional[Callable[[Dict[str, Any]], None]] = None
) -> Tracer:
    """Point the global tracer at *sink* and switch it on."""
    _TRACER.configure(sink)
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> None:
    """Switch the global tracer off (its sink is left in place)."""
    _TRACER.enabled = False


@contextmanager
def tracing(
    sink: Optional[Callable[[Dict[str, Any]], None]] = None
) -> Iterator[Any]:
    """Enable the global tracer for a ``with`` block.

    Yields the sink (a fresh :class:`TraceBuffer` when none is given) and
    restores the previous sink and enabled state on exit.
    """
    previous_sink = _TRACER._sink
    previous_enabled = _TRACER.enabled
    active = TraceBuffer() if sink is None else sink
    enable_tracing(active)
    try:
        yield active
    finally:
        _TRACER.enabled = previous_enabled
        _TRACER._sink = previous_sink
