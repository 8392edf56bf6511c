"""Self-healing ring maintenance: successor lists, stabilization, catch-up.

The seed reproduction repaired the ring with an oracle (re-sort the live
population's identifiers), which is fine when liveness is
perfectly observable but silently wrong under the fault layer: a healed
:class:`~repro.net.faults.RingPartition` leaves two internally consistent
rings that the oracle never sees, and correlated crashes can cut a peer
off from its only short-range contact. This module adds the standard
DHT answer (Chord/Symphony successor lists plus periodic stabilization),
adapted to SELECT:

* every peer keeps ``r`` successors (:attr:`RoutingTable.successors`);
  the backups are maintenance state only and never alter fault-free
  routing;
* :class:`Stabilizer` runs periodic stabilization rounds through the
  noisy :class:`~repro.net.faults.PingService`: promote the first live
  backup when the successor is unreachable, *rectify* toward any known
  peer that lies strictly between us and our successor, *notify* the
  successor so its predecessor pointer tracks us, and refresh the
  successor list wholesale through the (new) successor;
* the rectify candidate set is where SELECT earns its keep: besides the
  textbook ``successor.predecessor`` walk, a peer proposes everything it
  learned through gossip (:meth:`~repro.core.peer.PeerState.merge_candidates`).
  Identifiers are socially clustered, so after a partition heals a
  boundary peer usually *knows* its true cross-cut neighbor and the two
  rings zip back together in a few rounds instead of a ring walk;
* :class:`CatchUpStore` adds store-and-forward catch-up: notifications
  that could not be delivered are buffered at the subscriber's ring
  neighbors (bounded buffer, oldest evicted first) and handed over as
  anti-entropy digests on later stabilization rounds, so availability
  degrades gracefully instead of dropping.

Null-plan contract: the simulation wiring only engages the stabilizer
when the fault plan can actually do damage (``not plan.is_null``); under
``FaultPlan.none()`` the oracle repair path runs unchanged and results
stay bit-identical to the seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import CATCHUP_CAPACITY, SUCCESSOR_LIST_LENGTH
from repro.net.faults import FaultPlan, PingService
from repro.overlay.base import OverlayNetwork
from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.exceptions import ConfigurationError

__all__ = ["StabilizeStats", "Stabilizer", "CatchUpStats", "CatchUpStore"]


def _between(ids: np.ndarray, a: int, x, b: int):
    """Whether ``x`` — a node, or an array of nodes — lies strictly inside
    the clockwise arc ``(a, b)``.

    Uses the same ``(id, index)`` total order as
    :class:`~repro.overlay.ring.RingIndex` so stabilization converges to
    exactly the ring the oracle would compute.
    """
    ia, ix, ib = ids[a], ids[x], ids[b]
    after_a = (ix > ia) | ((ix == ia) & (x > a))
    before_b = (ix < ib) | ((ix == ib) & (x < b))
    return after_a & before_b if (ia, a) < (ib, b) else after_a | before_b


def _closer_successor(node: int, successor: int, candidates, ids, reachable) -> "int | None":
    """Chord-style rectify: the best reachable candidate between us and successor.

    Returns the candidate strictly inside the clockwise arc
    ``(node, successor)`` that is closest to ``node`` and answers
    ``reachable``, or ``None`` when no candidate improves on the current
    successor. ``reachable`` is only consulted for candidates that lie in
    the arc, closest first, so probing stops at the first live improvement.
    """
    cands = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
    kn = (ids[node], node)
    # Closest to node first: candidates after us in clockwise order sort
    # ahead of the ones that wrapped past the origin.
    in_arc = sorted(
        ((ids[c], c) for c in cands[_between(ids, node, cands, successor)].tolist()),
        key=lambda kc: (kc < kn, kc),
    )
    for _, cand in in_arc:
        if reachable(cand):
            return cand
    return None


@dataclass
class StabilizeStats(Stats):
    """Counters accumulated by one :class:`Stabilizer` across a run."""

    rounds: int = stat("stabilization rounds run")
    promotions: int = stat("successor pointers promoted from the backup list")
    rectifications: int = stat("successor pointers tightened to a closer peer")
    notifies: int = stat("predecessor pointers fixed via notify")
    isolated: int = stat("peers that found no live successor in a round")


class Stabilizer:
    """Periodic Chord-style stabilization over a built overlay.

    Works on any :class:`~repro.overlay.base.OverlayNetwork`; when the
    overlay exposes SELECT's gossip state (``overlay.peers``), the
    rectify step additionally proposes every gossip-learned friend,
    which is what makes partition merges fast on SELECT.
    """

    def __init__(
        self,
        overlay: OverlayNetwork,
        ping_service: "PingService | None" = None,
        list_length: int = SUCCESSOR_LIST_LENGTH,
        registry=None,
    ):
        overlay._check_built()
        self.overlay = overlay
        self.pings = ping_service if ping_service is not None else PingService()
        if list_length < 1:
            raise ConfigurationError(f"list_length must be >= 1, got {list_length}")
        self.list_length = int(list_length)
        self.stats = StabilizeStats()
        registry = registry if registry is not None else get_registry()
        self._round_timer = registry.timer("stabilize.round")
        registry.attach("stabilize", self.stats)
        self.seed_lists()

    def seed_lists(self) -> None:
        """Bootstrap successor lists on overlays that never populated them.

        SELECT fills the lists during construction; Symphony-style
        baselines only keep one successor, so their lists are seeded here
        from the built identifier order (the knowledge each peer would
        have copied from its successor at join time).
        """
        ov = self.overlay
        n = ov.graph.num_nodes
        depth = min(self.list_length, n - 1)
        lists = None
        for v in range(n):
            if len(ov.tables[v].successors) >= depth:
                continue
            if lists is None:
                lists = ov._ring_index.successor_matrix(self.list_length).tolist()
            ov.tables[v].successors = lists[v]

    # -- one stabilization round ------------------------------------------------

    def round(self, online: np.ndarray, time: float = 0.0) -> None:
        """Run one stabilization round over the live peers.

        Peers act in clockwise identifier order (the deterministic
        analogue of "everyone stabilizes once per period"). All liveness
        knowledge flows through the ping service — one perceived-liveness
        sample per contact per round — and active partitions block both
        probes and pointer exchanges across the cut.
        """
        ov = self.overlay
        ids = ov.ids
        n = ov.graph.num_nodes
        pings = self.pings
        pings.set_ground_truth(online)
        faults = pings.faults
        order = np.lexsort((np.arange(n), ids))
        live = [int(v) for v in order if online[v]]
        if len(live) < 2:
            return
        with self._round_timer:
            self._run_round(live, ids, pings, faults, time)

    def _run_round(self, live, ids, pings, faults, time) -> None:
        ov = self.overlay
        self.stats.rounds += 1
        perceived: dict[int, bool] = {}

        def reachable(observer: int, contact: int) -> bool:
            if contact == observer:
                return False
            if faults.cuts(observer, contact, ids, time):
                return False
            alive = perceived.get(contact)
            if alive is None:
                alive = perceived[contact] = pings.check(observer, contact)
            return alive

        peers = getattr(ov, "peers", None)
        for v in live:
            table = ov.tables[v]
            succ = self._first_live_successor(v, table, reachable)
            if succ is None:
                self.stats.isolated += 1
                continue
            if succ != table.successor:
                self.stats.promotions += 1
                table.successor = succ
            succ = self._rectify(v, succ, table, peers, reachable)
            self._notify(v, succ, reachable)
            self._refresh_list(v, succ, table)

    def _first_live_successor(self, v: int, table, reachable) -> "int | None":
        """First reachable entry of successor ++ backups, else nearest known."""
        candidates: list[int] = []
        if table.successor is not None:
            candidates.append(table.successor)
        for w in table.successors:
            if w not in candidates:
                candidates.append(w)
        for w in candidates:
            if reachable(v, w):
                return w
        # The whole list is dead (f >= r, or a partition cut us off from
        # every listed peer): fall back to everything this peer knows,
        # nearest clockwise first.
        ov = self.overlay
        fallback = set(table.long_links)
        if table.predecessor is not None:
            fallback.add(table.predecessor)
        peers = getattr(ov, "peers", None)
        if peers is not None:
            fallback |= peers[v].merge_candidates()
        fallback.discard(v)
        fallback -= set(candidates)
        ids = ov.ids
        ordered = sorted(
            fallback, key=lambda w: (((float(ids[w]) - float(ids[v])) % 1.0) or 1.0, w)
        )
        for w in ordered:
            if reachable(v, w):
                return w
        return None

    def _rectify(self, v: int, succ: int, table, peers, reachable) -> int:
        """Adopt the closest known live peer strictly between us and succ."""
        ov = self.overlay
        candidates: set[int] = set(table.successors)
        candidates.update(table.long_links)
        if table.predecessor is not None:
            candidates.add(table.predecessor)
        succ_pred = ov.tables[succ].predecessor
        if succ_pred is not None:
            candidates.add(succ_pred)
        if peers is not None:
            candidates |= peers[v].merge_candidates()
        better = _closer_successor(v, succ, candidates, ov.ids, lambda w: reachable(v, w))
        if better is None:
            return succ
        self.stats.rectifications += 1
        table.successor = better
        return better

    def _notify(self, v: int, succ: int, reachable) -> None:
        """Tell succ about us; it adopts us as predecessor when we're closer."""
        ov = self.overlay
        succ_table = ov.tables[succ]
        pred = succ_table.predecessor
        if pred == v:
            return
        if (
            pred is None
            or pred == succ
            or not reachable(succ, pred)
            or _between(ov.ids, pred, v, succ)
        ):
            succ_table.predecessor = v
            self.stats.notifies += 1

    def _refresh_list(self, v: int, succ: int, table) -> None:
        """Wholesale list copy through the successor (textbook Chord)."""
        merged = [succ]
        for w in self.overlay.tables[succ].successors:
            if w != v and w != succ and w not in merged:
                merged.append(w)
        table.successors = merged[: self.list_length]


@dataclass
class CatchUpStats(Stats):
    """Counters accumulated by one :class:`CatchUpStore` across a run."""

    deposited: int = stat("missed notifications handed to the store")
    evictions: int = stat("buffer entries lost to overflow")
    delivered: int = stat("buffer entries handed over in digests")
    recovered: int = stat("counted notifications recovered by catch-up")
    duplicates: int = stat("digest deliveries suppressed as duplicates")


class CatchUpStore:
    """Store-and-forward buffers for notifications that missed a subscriber.

    A missed notification is deposited at up to two of the subscriber's
    ring neighbors (the peers that will meet it again first when it comes
    back / the cut heals). When no holder is reachable — the subscriber's
    whole neighborhood is behind an active partition — the publisher
    itself buffers the notification and retries from the source. Buffers
    are bounded FIFO per holder; overflow evicts the oldest entry and is
    counted, so experiments can see what a too-small buffer costs.

    Delivery is anti-entropy: each stabilization round, every live holder
    offers its buffered entries to the subscribers that are now reachable
    (a digest per (holder, subscriber) pair). A seen-set per subscriber
    deduplicates entries buffered at both neighbors.
    """

    def __init__(
        self,
        overlay: OverlayNetwork,
        capacity: int = CATCHUP_CAPACITY,
        faults: "FaultPlan | None" = None,
        registry=None,
    ):
        overlay._check_built()
        self.overlay = overlay
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.faults = faults
        #: per-holder FIFO of (seq, subscriber, counted) entries.
        self.buffers: dict[int, deque] = {}
        #: per-subscriber set of sequence numbers already handed over.
        self._seen: dict[int, set[int]] = {}
        self._next_seq = 0
        self.stats = CatchUpStats()
        registry = registry if registry is not None else get_registry()
        self._deliver_timer = registry.timer("catchup.deliver")
        registry.attach("catchup", self.stats)
        registry.gauge(
            "catchup.pending", "entries currently buffered across all holders"
        ).set_function(self.pending)

    def new_notification(self) -> int:
        """Sequence number identifying one publish event's notification."""
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def pending(self) -> int:
        """Entries currently buffered across all holders."""
        return sum(len(buf) for buf in self.buffers.values())

    def deposit(
        self,
        seq: int,
        publisher: int,
        subscriber: int,
        counted: bool,
        online: "np.ndarray | None" = None,
        time: float = 0.0,
    ) -> None:
        """Buffer one missed notification at the subscriber's ring neighbors.

        ``counted`` marks whether the miss counts against availability:
        True for a subscriber that was online at publish time but not
        reached (link fault / partition); False for a subscriber that was
        simply offline (the seed's availability metric never counted it,
        catch-up delivers it as a bonus without inflating the ratio).
        """
        table = self.overlay.tables[subscriber]
        candidates: list[int] = []
        for w in (table.predecessor, table.successor, *table.successors):
            if w is None or w == subscriber or w == publisher or w in candidates:
                continue
            candidates.append(w)
        holders: list[int] = []
        for w in candidates:
            if len(holders) >= 2:
                break
            if online is not None and not online[w]:
                continue
            if self.faults is not None and self.faults.cuts(publisher, w, self.overlay.ids, time):
                continue
            holders.append(w)
        if not holders:
            # Every ring neighbor is down or behind the cut: the publisher
            # keeps the notification and retries from the source.
            holders = [publisher]
        for holder in holders:
            buf = self.buffers.setdefault(holder, deque())
            buf.append((seq, subscriber, counted))
            if len(buf) > self.capacity:
                buf.popleft()
                self.stats.evictions += 1
        self.stats.deposited += 1

    def deliver(self, online: "np.ndarray | None" = None, time: float = 0.0) -> int:
        """One anti-entropy pass: hand buffered entries to reachable subscribers.

        Returns how many *counted* notifications were recovered by this
        pass (first delivery to a subscriber that was online at publish
        time). Entries whose subscriber is still unreachable stay
        buffered; digests are assumed retried until acknowledged, so link
        loss only delays a handover, it cannot lose the buffered copy.
        """
        recovered_now = 0
        faults, ids = self.faults, self.overlay.ids
        with self._deliver_timer:
            for holder in sorted(self.buffers):
                if online is not None and not online[holder]:
                    continue
                buf = self.buffers[holder]
                if not buf:
                    continue
                keep: deque = deque()
                for seq, subscriber, counted in buf:
                    sub_alive = online is None or bool(online[subscriber])
                    if not sub_alive or (
                        faults is not None and faults.cuts(holder, subscriber, ids, time)
                    ):
                        keep.append((seq, subscriber, counted))
                        continue
                    self.stats.delivered += 1
                    seen = self._seen.setdefault(subscriber, set())
                    if seq in seen:
                        self.stats.duplicates += 1
                        continue
                    seen.add(seq)
                    if counted:
                        self.stats.recovered += 1
                        recovered_now += 1
                self.buffers[holder] = keep
        return recovered_now
