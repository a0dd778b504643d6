"""Contention-aware communication time estimates.

Model: the messages of one exchange round are in flight simultaneously.
A directed link delivering ``L`` bytes of round traffic needs ``L / bw``
seconds, so a message completes no sooner than the busiest link on its
route allows. Message time:

.. math::

    t_{msg} = t_{sw} + hops \\cdot t_{hop} + \\max_{l \\in route}(L_l) / bw

and the round completes at the max over messages — the value the
bulk-synchronous halo exchange waits for. Intra-node messages cost the
software latency only (memory copies are folded into the compute term).

:meth:`repro.netsim.engine.VectorBackend.round_estimate` evaluates the
model over whole message columns; the message-by-message form is the
oracle :func:`repro.verify.reference.netsim.round_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CommEstimate"]


@dataclass(frozen=True)
class CommEstimate:
    """The cost breakdown of one exchange round."""

    #: Wall time of the round (slowest message).
    time: float
    #: Round time in a contention- and hop-free network (latency + own
    #: bytes at full bandwidth) — the lower bound actual waits compare to.
    ideal_time: float
    #: Mean hops over the round's messages.
    average_hops: float
    #: Max bytes accumulated on any one link.
    max_link_bytes: int

    @property
    def contention_excess(self) -> float:
        """Time lost to sharing links and hop latency (``time - ideal``)."""
        return max(0.0, self.time - self.ideal_time)
