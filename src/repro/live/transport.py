"""Loopback transport: asyncio inboxes with FaultPlan network weather.

The live cluster's nodes exchange :class:`~repro.live.envelope.Envelope`s
through one shared :class:`LoopbackTransport`. Each registered node owns
an unbounded ``asyncio.Queue`` inbox; a send consults the same
:class:`~repro.net.faults.FaultPlan` the simulator uses —

* an active :class:`~repro.net.faults.RingPartition` whose window covers
  the transport's *elapsed wall-clock seconds* blocks the send outright
  (so scripted partitions affect live traffic and the stabilizer's
  synchronous rounds identically);
* the per-link loss probability (:meth:`FaultPlan.hop_loss`) drops the
  envelope, sampled from the transport's own seeded generator;
* surviving envelopes are delivered after a small seeded delay via
  ``loop.call_later`` — senders never block on delivery.

Sends to unregistered destinations (crashed or never-started nodes) are
silently dropped, exactly like a datagram to a dead host; every drop is
counted by cause in the telemetry registry.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.live.envelope import Envelope
from repro.net.faults import FaultPlan
from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.rng import as_generator

__all__ = ["TransportStats", "LoopbackTransport"]


@dataclass
class TransportStats(Stats):
    """Envelopes one :class:`LoopbackTransport` handled, by fate (``transport.*``)."""

    sent: int = stat("envelopes handed to the fabric")
    delivered: int = stat("envelopes enqueued at a destination inbox")
    dropped_loss: int = stat("envelopes dropped by link loss")
    dropped_partition: int = stat("envelopes blocked by an active partition")
    dropped_unregistered: int = stat("envelopes to crashed/absent nodes")


class LoopbackTransport:
    """In-process datagram fabric for one live cluster."""

    def __init__(
        self,
        ids: "np.ndarray | None" = None,
        faults: "FaultPlan | None" = None,
        seed=None,
        registry=None,
    ):
        #: ring identifiers indexed by node id (partition side lookups);
        #: ``None`` disables partition checks even if the plan has windows.
        self.ids = ids
        self.faults = faults if faults is not None else FaultPlan.none()
        self._rng = as_generator(seed)
        self._inboxes: dict[int, asyncio.Queue] = {}
        self._t0: "float | None" = None
        #: ``(lo, hi)`` bounds of the uniform per-send delay; ``None`` = none.
        self._delay: "tuple[float, float] | None" = None
        #: optional :class:`~repro.live.tracing.LiveTracer`; when set,
        #: every dropped *traced* envelope is annotated with its cause.
        self.tracer = None
        self.stats = TransportStats()
        (registry if registry is not None else get_registry()).attach("transport", self.stats)

    # -- clock ---------------------------------------------------------------

    def start_clock(self) -> None:
        """Pin elapsed-time zero; partition windows are relative to this."""
        self._t0 = asyncio.get_running_loop().time()

    def now(self) -> float:
        """Elapsed event-loop seconds since :meth:`start_clock` (0 before).

        This is the cluster's one shared time axis: partition windows,
        span timestamps, and flight-recorder events all read it, so a
        post-mortem can line the three up without clock skew.
        """
        if self._t0 is None:
            return 0.0
        return asyncio.get_running_loop().time() - self._t0

    # -- membership of the fabric ---------------------------------------------

    def register(self, node_id: int) -> asyncio.Queue:
        """Attach ``node_id`` and return its (fresh) inbox queue."""
        queue: asyncio.Queue = asyncio.Queue()
        self._inboxes[node_id] = queue
        return queue

    def unregister(self, node_id: int) -> None:
        """Detach ``node_id``; in-flight envelopes to it are dropped."""
        self._inboxes.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        return node_id in self._inboxes

    # -- sending ----------------------------------------------------------------

    def send(self, env: Envelope) -> bool:
        """Fire one envelope into the fabric; True if it will be delivered.

        The boolean is *transport-local* knowledge (loss/partition/dead
        destination sampled now); real senders must not branch on it for
        anything but tests — the protocol's acks are the only evidence a
        node is allowed to act on.
        """
        stats = self.stats
        stats.sent += 1
        inbox = self._inboxes.get(env.dst)
        if inbox is None:
            stats.dropped_unregistered += 1
            self._trace_drop(env, "crashed_dst")
            return False
        if self.ids is not None and self.faults.cuts(env.src, env.dst, self.ids, self.now()):
            stats.dropped_partition += 1
            self._trace_drop(env, "partition")
            return False
        p = self.faults.hop_loss(env.src, env.dst)
        if p > 0.0 and self._rng.random() < p:
            stats.dropped_loss += 1
            self._trace_drop(env, "loss")
            return False
        delay = self._sample_delay()
        loop = asyncio.get_running_loop()
        if delay <= 0.0:
            self._deliver(env.dst, inbox, env)
        else:
            loop.call_later(delay, self._deliver, env.dst, inbox, env)
        return True

    def _deliver(self, dst: int, inbox: asyncio.Queue, env: Envelope) -> None:
        # Re-check registration at delivery time: the destination may have
        # crashed while the envelope was in flight.
        if self._inboxes.get(dst) is not inbox:
            self.stats.dropped_unregistered += 1
            self._trace_drop(env, "inflight_crash")
            return
        inbox.put_nowait(env)
        self.stats.delivered += 1

    def _trace_drop(self, env: Envelope, cause: str) -> None:
        """Annotate a traced envelope's chain with the drop cause."""
        if self.tracer is not None and env.trace is not None:
            self.tracer.drop(env, cause)

    def _sample_delay(self) -> float:
        """Seconds until delivery: one seeded draw per send once a delay is set."""
        if self._delay is None:
            return 0.0
        lo, hi = self._delay
        return float(lo + (hi - lo) * self._rng.random())

    def configure_delay(self, mean: float, jitter: float) -> None:
        """Install a seeded uniform delay model ``mean ± jitter`` seconds."""
        if mean <= 0.0 and jitter <= 0.0:
            self._delay = None
        else:
            self._delay = (max(0.0, mean - jitter), mean + jitter)
