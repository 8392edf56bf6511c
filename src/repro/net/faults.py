"""Seeded fault injection over the overlay network.

The rest of :mod:`repro.net` models the environment the paper's testbed
*provided*; this module models what a real deployment must *survive*:

* **lossy links** — every overlay-hop transmission is dropped with a
  per-link probability; senders retransmit within a bounded budget;
* **noisy pings** — liveness probes suffer false negatives (a live peer
  looks down: congestion, NAT timeout) and false positives (a dead peer
  looks up: a zombie middlebox answers); :class:`PingService` wraps the
  probes with timeouts, exponential backoff, and a suspicion counter so a
  single bad sample cannot trigger §III-F evictions;
* **crash vs. graceful departure** — a gracefully departing peer notifies
  its contacts (its death is confirmed on the first probe); a crashed
  peer can only be detected through repeated timeouts;
* **ring partitions** — time-windowed cuts of the identifier ring: peers
  on opposite arcs cannot exchange messages while the partition is
  active, no matter how many retransmissions they spend.

Everything is driven by one seeded generator inside :class:`FaultPlan`,
so a fault scenario is exactly reproducible. ``FaultPlan.none()`` is the
contractual no-fault plan: it never touches the generator and every
consumer short-circuits on :attr:`FaultPlan.is_null`, keeping the
default (fault-free) code paths bit-identical to a run without a plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.exceptions import ConfigurationError, FaultInjectionError, PartitionError
from repro.util.rng import as_generator

__all__ = [
    "RingPartition",
    "FaultStats",
    "FaultPlan",
    "PathOutcome",
    "PingResult",
    "PingStats",
    "PingService",
]


@dataclass(frozen=True)
class RingPartition:
    """A time-windowed cut of the unit identifier ring.

    ``cut`` names two points on the ring; the arc ``[cut[0], cut[1])``
    (wrapping through 1.0 when ``cut[0] > cut[1]``) forms one side of the
    partition, everything else the other. While ``start <= t < end``,
    peers whose identifiers fall on opposite sides cannot communicate.
    """

    cut: tuple[float, float]
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self):
        a, b = self.cut
        if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
            raise PartitionError(f"cut points must lie on the unit ring [0, 1), got {self.cut}")
        if a == b:
            raise PartitionError(f"cut points must be distinct, got {self.cut}")
        if not (self.end > self.start >= 0.0):
            raise PartitionError(
                f"partition window must be non-empty and non-negative, "
                f"got [{self.start}, {self.end})"
            )

    def active(self, t: float) -> bool:
        """Whether the partition is in effect at time ``t``."""
        return self.start <= t < self.end

    def side(self, identifier: float) -> int:
        """Which side of the cut (0 or 1) ``identifier`` falls on."""
        a, b = self.cut
        if a < b:
            return 0 if a <= identifier < b else 1
        return 0 if (identifier >= a or identifier < b) else 1

    def separates(self, id_u: float, id_v: float, t: float) -> bool:
        """True when the partition blocks a ``u -> v`` transmission at ``t``."""
        return self.active(t) and self.side(id_u) != self.side(id_v)


@dataclass
class FaultStats(Stats):
    """Counters accumulated by one :class:`FaultPlan` across a run (``faults.*``)."""

    messages: int = stat("end-to-end deliveries attempted")
    drops: int = stat("deliveries abandoned")
    retransmissions: int = stat("hop transmissions lost and retried")
    partition_blocks: int = stat("transmissions refused across a partition")
    pings: int = stat("liveness probe attempts")
    ping_retries: int = stat("probe backoff retries")
    ping_false_negatives: int = stat("live contacts that looked down")
    ping_false_positives: int = stat("dead contacts that looked up")
    ping_wait_ms: float = stat("virtual milliseconds spent on probe timeouts", 0.0)

    def mean_retries(self) -> float:
        """Retransmissions per attempted end-to-end delivery."""
        return self.retransmissions / self.messages if self.messages else 0.0


@dataclass
class PingStats(Stats):
    """The prober's experience, kept by one :class:`PingService` (``ping.*``).

    Attempts spent are the plan's ``faults.pings``.
    """

    probe_timeouts: int = stat("probes that exhausted every attempt unanswered")
    confirmed_down: int = stat("probe failures confirmed past the suspicion threshold")


@dataclass(frozen=True)
class PathOutcome:
    """Result of pushing one message along one overlay path."""

    delivered: bool
    retries: int
    lost_at: "int | None" = None  # path index of the hop that failed
    partition_blocked: bool = False


class FaultPlan:
    """A seeded, reproducible description of what goes wrong and when.

    Parameters
    ----------
    loss_rate:
        Baseline probability that one hop transmission is lost.
    link_loss:
        Optional per-link overrides: ``{(u, v): probability}``; keys are
        unordered (the loss applies in both directions).
    retry_budget:
        Retransmissions a sender may spend per hop before giving up.
    ping_false_negative, ping_false_positive:
        Per-attempt probability that a liveness probe of a live contact
        times out / of a dead contact gets answered.
    ping_attempts:
        Probe attempts (with exponential backoff) before a contact is
        reported unresponsive.
    suspicion_threshold:
        Consecutive unresponsive *probes* (maintenance ticks) before a
        contact's failure is treated as confirmed.
    graceful_fraction:
        Fraction of peers whose departures are announced to their
        contacts (detected on the first probe, no noise); the rest crash
        silently and must be discovered through timeouts.
    partitions:
        :class:`RingPartition` instances to inject.
    """

    def __init__(
        self,
        loss_rate: float = 0.0,
        link_loss: "dict[tuple[int, int], float] | None" = None,
        retry_budget: int = 2,
        ping_false_negative: float = 0.0,
        ping_false_positive: float = 0.0,
        ping_attempts: int = 3,
        suspicion_threshold: int = 2,
        graceful_fraction: float = 0.0,
        partitions: "tuple[RingPartition, ...] | list[RingPartition]" = (),
        seed=None,
        registry=None,
    ):
        for name, p in (
            ("loss_rate", loss_rate),
            ("ping_false_negative", ping_false_negative),
            ("ping_false_positive", ping_false_positive),
            ("graceful_fraction", graceful_fraction),
        ):
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        if retry_budget < 0:
            raise ConfigurationError(f"retry_budget must be non-negative, got {retry_budget}")
        if ping_attempts < 1:
            raise ConfigurationError(f"ping_attempts must be >= 1, got {ping_attempts}")
        if suspicion_threshold < 1:
            raise ConfigurationError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold}"
            )
        self.loss_rate = float(loss_rate)
        self.link_loss = {
            (min(u, v), max(u, v)): float(p) for (u, v), p in (link_loss or {}).items()
        }
        for (u, v), p in self.link_loss.items():
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"link_loss[{(u, v)}] must be in [0, 1], got {p}")
        self.retry_budget = int(retry_budget)
        self.ping_false_negative = float(ping_false_negative)
        self.ping_false_positive = float(ping_false_positive)
        self.ping_attempts = int(ping_attempts)
        self.suspicion_threshold = int(suspicion_threshold)
        self.graceful_fraction = float(graceful_fraction)
        self.partitions = tuple(partitions)
        # Overlapping windows would make "which side is peer X on?"
        # ambiguous mid-simulation; refuse them up front. Touching
        # windows (prev.end == next.start) are fine: windows are
        # half-open, so no instant belongs to both.
        by_start = sorted(self.partitions, key=lambda p: (p.start, p.end))
        for prev, nxt in zip(by_start, by_start[1:]):
            if nxt.start < prev.end:
                raise PartitionError(
                    "partition windows overlap: "
                    f"[{prev.start}, {prev.end}) and [{nxt.start}, {nxt.end})"
                )
        self.stats = FaultStats()
        self._rng = as_generator(seed)
        self._graceful: dict[int, bool] = {}
        (registry if registry is not None else get_registry()).attach("faults", self.stats)

    @classmethod
    def none(cls) -> "FaultPlan":
        """The no-fault plan: every consumer short-circuits on it."""
        return cls()

    @property
    def is_null(self) -> bool:
        """True when the plan can never alter behaviour (fast-path check)."""
        return (
            self.loss_rate == 0.0
            and not self.link_loss
            and self.ping_false_negative == 0.0
            and self.ping_false_positive == 0.0
            and self.graceful_fraction == 0.0
            and not self.partitions
        )

    # -- per-peer departure style -------------------------------------------

    def departs_gracefully(self, peer: int) -> bool:
        """Whether ``peer`` announces its departures (sampled once, cached)."""
        if self.graceful_fraction == 0.0:
            return False
        if self.graceful_fraction == 1.0:
            return True
        known = self._graceful.get(peer)
        if known is None:
            known = self._graceful[peer] = bool(self._rng.random() < self.graceful_fraction)
        return known

    # -- message-level faults -------------------------------------------------

    def hop_loss(self, u: int, v: int) -> float:
        """Loss probability of the ``u <-> v`` link."""
        return self.link_loss.get((min(u, v), max(u, v)), self.loss_rate)

    def partition_blocks_link(self, id_u: float, id_v: float, time: float) -> bool:
        """Whether any active partition separates the two identifiers."""
        return any(p.separates(id_u, id_v, time) for p in self.partitions)

    def _transmit_hop(self, u: int, v: int) -> "tuple[bool, int]":
        """One hop ``u -> v`` through the lossy link; ``(delivered, retries)``."""
        p = self.hop_loss(u, v)
        if p <= 0.0:
            return True, 0
        retries = 0
        for attempt in range(1 + self.retry_budget):
            if self._rng.random() >= p:
                return True, retries
            if attempt < self.retry_budget:
                retries += 1
                self.stats.retransmissions += 1
        return False, retries

    def transmit(
        self, u: int, v: int, id_u: float = 0.0, id_v: float = 0.0, time: float = 0.0
    ) -> "tuple[bool, int]":
        """One hop ``u -> v`` with retransmissions; ``(delivered, retries)``."""
        if self.partition_blocks_link(id_u, id_v, time):
            self.stats.partition_blocks += 1
            return False, 0
        return self._transmit_hop(u, v)

    def transmit_path(
        self,
        path: "list[int]",
        ids: "np.ndarray | None" = None,
        time: float = 0.0,
        edge_cache: "dict | None" = None,
    ) -> PathOutcome:
        """Push one message along ``path`` hop by hop.

        ``ids`` (peer identifiers) are required when partitions are
        configured. ``edge_cache`` deduplicates transmissions: paths merged
        into one dissemination tree share prefixes, and a shared hop is
        transmitted (and can be lost) only once — pass the same dict for
        every path of one publish event.
        """
        self.stats.messages += 1
        if self.partitions and ids is None:
            raise FaultInjectionError("transmit_path needs peer ids when partitions are set")
        retries = 0
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            key = (u, v)
            if edge_cache is not None and key in edge_cache:
                ok, r, blocked = edge_cache[key]
            else:
                id_u = float(ids[u]) if ids is not None else 0.0
                id_v = float(ids[v]) if ids is not None else 0.0
                blocked = self.partition_blocks_link(id_u, id_v, time)
                if blocked:
                    self.stats.partition_blocks += 1
                    ok, r = False, 0
                else:
                    ok, r = self._transmit_hop(u, v)
                if edge_cache is not None:
                    edge_cache[key] = (ok, r, blocked)
            retries += r
            if not ok:
                self.stats.drops += 1
                return PathOutcome(False, retries, lost_at=i + 1, partition_blocked=blocked)
        return PathOutcome(True, retries)

    # -- ping-level faults -----------------------------------------------------

    def ping_drops_response(self) -> bool:
        """Sample one false negative (live contact looks down)."""
        return self.ping_false_negative > 0.0 and bool(
            self._rng.random() < self.ping_false_negative
        )

    def ping_fakes_response(self) -> bool:
        """Sample one false positive (dead contact looks up)."""
        return self.ping_false_positive > 0.0 and bool(
            self._rng.random() < self.ping_false_positive
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(loss={self.loss_rate}, fn={self.ping_false_negative}, "
            f"fp={self.ping_false_positive}, retries={self.retry_budget}, "
            f"partitions={len(self.partitions)})"
        )


@dataclass(frozen=True)
class PingResult:
    """Outcome of one :meth:`PingService.probe`."""

    #: the contact answered within the timeout budget.
    responded: bool
    #: probe attempts spent (1 on a clean first response).
    attempts: int
    #: virtual milliseconds spent waiting on timeouts.
    waited_ms: float
    #: the failure cleared the suspicion threshold: safe to act on.
    confirmed_down: bool


class PingService:
    """Liveness probing with timeouts, exponential backoff, and suspicion.

    Each maintenance tick, :meth:`set_ground_truth` installs the tick's
    actual liveness; :meth:`probe` then answers *as the network would*:
    through the :class:`FaultPlan`'s false-negative/false-positive noise,
    retrying with exponentially backed-off timeouts, and only confirming
    a failure after ``suspicion_threshold`` consecutive unresponsive
    probes of the same contact. With a null plan the service degenerates
    to the oracle the seed reproduction used: one attempt, truthful
    answer, failure confirmed immediately.
    """

    def __init__(
        self,
        faults: "FaultPlan | None" = None,
        base_timeout_ms: float = 200.0,
        backoff: float = 2.0,
        registry=None,
    ):
        # Strict range checks: ``base_timeout_ms`` is *milliseconds* — a
        # caller passing seconds (0.2) or a junk NaN/inf would silently
        # skew every timeout-derived stat, so reject non-finite values
        # and anything outside sane probing ranges outright.
        if not math.isfinite(base_timeout_ms) or base_timeout_ms <= 0:
            raise ConfigurationError(
                f"base_timeout_ms must be a positive finite number of "
                f"milliseconds, got {base_timeout_ms}"
            )
        if not math.isfinite(backoff) or backoff < 1.0:
            raise ConfigurationError(f"backoff must be finite and >= 1, got {backoff}")
        self.faults = faults if faults is not None else FaultPlan.none()
        self.base_timeout_ms = float(base_timeout_ms)
        self.backoff = float(backoff)
        self._online: "np.ndarray | None" = None
        #: ``{contact: {observer: consecutive unresponsive probes}}`` — keyed
        #: by contact because an answer touches every observer of it.
        self._suspicion: dict[int, dict[int, int]] = {}
        self.stats = PingStats()
        registry = registry if registry is not None else get_registry()
        registry.attach("ping", self.stats)
        self._h_probe_wait_ms = registry.histogram(
            "ping.probe_wait_ms",
            (0.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0),
            "virtual milliseconds spent waiting per probe",
        )

    # -- effective policy (oracle when the plan is null) -----------------------

    @property
    def max_attempts(self) -> int:
        """Probe attempts per contact (1 under a null plan: no noise to beat)."""
        return 1 if self.faults.is_null else self.faults.ping_attempts

    @property
    def suspicion_threshold(self) -> int:
        """Consecutive failures before a failure is confirmed (1 under null)."""
        return 1 if self.faults.is_null else self.faults.suspicion_threshold

    # -- ground truth ---------------------------------------------------------

    def set_ground_truth(self, online: np.ndarray) -> None:
        """Install this tick's actual liveness vector."""
        self._online = online

    def ground_truth(self) -> np.ndarray:
        """The installed liveness vector (simulation-side bookkeeping only)."""
        if self._online is None:
            raise FaultInjectionError("set_ground_truth() must be called before probing")
        return self._online

    def truth(self, peer: int) -> bool:
        """Actual liveness of ``peer`` (simulation-side bookkeeping only)."""
        return bool(self.ground_truth()[peer])

    # -- probing ----------------------------------------------------------------

    def _exchange(self, contact: int) -> "tuple[bool, int, float]":
        """One probe exchange: ``(responded, attempts, waited_ms)``."""
        truth = self.truth(contact)
        faults = self.faults
        stats = faults.stats
        # A null plan runs this same path: one attempt, and no draw (every
        # probability and the graceful fraction are 0).
        if not truth and faults.departs_gracefully(contact):
            # Graceful departure: the contact said goodbye; no probing noise
            # and no timeout — the "no" is an answer, not silence.
            stats.pings += 1
            self._h_probe_wait_ms.observe(0.0)
            return False, 1, 0.0
        timeout = self.base_timeout_ms
        waited = 0.0
        for attempt in range(1, self.max_attempts + 1):
            stats.pings += 1
            if attempt > 1:
                stats.ping_retries += 1
            if truth:
                if not faults.ping_drops_response():
                    self._h_probe_wait_ms.observe(waited)
                    return True, attempt, waited
                stats.ping_false_negatives += 1
            else:
                if faults.ping_fakes_response():
                    stats.ping_false_positives += 1
                    self._h_probe_wait_ms.observe(waited)
                    return True, attempt, waited
            # Timed out: wait, back off, retry.
            waited += timeout
            stats.ping_wait_ms += timeout
            timeout *= self.backoff
        self.stats.probe_timeouts += 1
        self._h_probe_wait_ms.observe(waited)
        return False, self.max_attempts, waited

    def check(self, observer: int, contact: int) -> bool:
        """Perceived liveness of ``contact`` (no suspicion *accrual*).

        Used for side-questions like "is this replacement candidate up?"
        where an occasional wrong answer self-corrects on later ticks.
        A response does clear any accumulated suspicion: a confirmed-live
        contact is no longer suspect, so a flapping link stops marching
        toward eviction the moment it answers anything. An unresponsive
        check never increments suspicion — only :meth:`probe` does.
        """
        responded, _, _ = self._exchange(contact)
        if responded:
            self._answered(observer, contact)
        return responded

    def probe(self, observer: int, contact: int) -> PingResult:
        """Full probe for the §III-F maintenance decision.

        Tracks per-``(observer, contact)`` suspicion: an unresponsive
        probe increments it, a response clears it, and ``confirmed_down``
        is only raised once ``suspicion_threshold`` consecutive probes
        failed — so one noisy sample can never trigger an eviction.
        """
        responded, attempts, waited = self._exchange(contact)
        if responded:
            self._answered(observer, contact)
            return PingResult(True, attempts, waited, False)
        count = self.suspicion(observer, contact) + 1
        if not self.truth(contact) and self.faults.departs_gracefully(contact):
            # An announced departure is trusted immediately.
            count = self.suspicion_threshold
        self._suspicion.setdefault(contact, {})[observer] = count
        confirmed = count >= self.suspicion_threshold
        if confirmed:
            self.stats.confirmed_down += 1
        return PingResult(False, attempts, waited, confirmed)

    def _answered(self, observer: int, contact: int) -> None:
        """``contact`` answered ``observer``: clear the pair, decay the rest.

        A peer that recovers while unobserved used to stay suspect
        forever in the eyes of observers that stopped probing it — after
        an outage heals, stale counters would put recovered peers one
        noisy sample away from eviction. Any confirmed response is
        evidence the contact is back, so every other observer's counter
        steps down by one (never below zero), in no particular order.
        """
        observers = self._suspicion.pop(contact, None)
        if not observers:
            return
        observers.pop(observer, None)
        remaining = {o: n - 1 for o, n in observers.items() if n > 1}
        if remaining:
            self._suspicion[contact] = remaining

    def forget(self, observer: int, contact: int) -> None:
        """Clear suspicion state after the observer dropped the contact."""
        self._suspicion.get(contact, {}).pop(observer, None)

    def suspicion(self, observer: int, contact: int) -> int:
        """Current consecutive-failure count for the pair."""
        return self._suspicion.get(contact, {}).get(observer, 0)
