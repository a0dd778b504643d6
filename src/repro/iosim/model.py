"""High-level I/O model used by the performance simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.iosim.pnetcdf import pnetcdf_write_time
from repro.iosim.split_io import split_write_time
from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import histogram as _obs_histogram
from repro.topology.machines import Machine

__all__ = ["IO_NAMES", "IoCost", "IoModel", "io_model"]

#: Every I/O model name: ``"none"`` prices no history output, and each
#: other name is an :class:`IoModel` method.
IO_NAMES: Tuple[str, ...] = ("none", "pnetcdf", "split")

# Observability: one event counter, one byte counter, and a model-time
# histogram (simulated seconds, decade buckets from 1 ms to 10^4 s) per
# history-write event. Bound once; registry resets zero them in place.
_IO_EVENTS = _obs_counter("iosim.events")
_IO_BYTES = _obs_counter("iosim.bytes")
_IO_EVENT_TIME = _obs_histogram(
    "iosim.event_time_s", [10.0 ** k for k in range(-3, 5)]
)


@dataclass(frozen=True)
class IoCost:
    """I/O cost of one history-write event."""

    #: Wall time of the whole event.
    time: float
    #: Per-file times in domain order (parent first).
    per_file: tuple[float, ...]


class IoModel:
    """History-output cost for a nested run.

    Parameters
    ----------
    method:
        ``"pnetcdf"`` (collective, the BG/P runs) or ``"split"``
        (file-per-rank, the BG/L runs).
    """

    def __init__(self, method: Literal["pnetcdf", "split"] = "pnetcdf"):
        if method == "none" or method not in IO_NAMES:
            raise ConfigurationError(f"unknown I/O method {method!r}")
        self.method = method

    def _write(self, writers: int, nbytes: float, machine: Machine) -> float:
        if self.method == "pnetcdf":
            return pnetcdf_write_time(writers, nbytes, machine)
        return split_write_time(writers, nbytes, machine)

    # ------------------------------------------------------------------
    def event_cost(
        self,
        file_bytes: Sequence[float],
        file_writers: Sequence[int],
        *,
        concurrent: bool,
        machine: Machine,
    ) -> IoCost:
        """Cost of writing one history file per domain.

        Under the sequential strategy every file is written by the full
        rank set one after another (times add). Under the parallel
        strategy each sibling's file is written by its own sub-communicator
        concurrently (times max), except the parent file which always
        involves everyone and is serialised before the sibling writes.
        """
        if len(file_bytes) != len(file_writers):
            raise ConfigurationError(
                f"{len(file_bytes)} byte counts vs {len(file_writers)} writer counts"
            )
        per_file = tuple(
            self._write(w, b, machine) for b, w in zip(file_bytes, file_writers)
        )
        if concurrent:
            parent = per_file[0] if per_file else 0.0
            siblings = per_file[1:]
            total = parent + (max(siblings) if siblings else 0.0)
        else:
            total = sum(per_file)
        _IO_EVENTS.inc()
        _IO_BYTES.inc(int(sum(file_bytes)))
        _IO_EVENT_TIME.observe(total)
        return IoCost(time=total, per_file=per_file)


def io_model(name: str) -> Optional[IoModel]:
    """The I/O model named *name*, or ``None`` for ``"none"``."""
    return None if name == "none" else IoModel(name)
