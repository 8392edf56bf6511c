"""Recovery mechanism under churn (paper Section III-F).

Peers periodically ping their routing-table contacts and fold the results
into each contact's Cumulative Moving Average. On an unresponsive contact:

* **high CMA** — the user is normally online; keep the connection (tearing
  it down would trigger a chain of reassignments for nothing);
* **low CMA** — the user is mostly offline; replace it with another peer
  from the *same LSH bucket* (a peer with a similar friendship bitmap
  covers the same zone of the neighborhood).

All liveness knowledge flows through a :class:`~repro.net.faults.PingService`:
under a null fault plan it behaves as the oracle ping the paper's testbed
effectively had, and under an active plan probes suffer false
negatives/positives, retry with exponential backoff, and must clear a
suspicion threshold before the keep/replace decision may fire.

Ring (short-range) links are re-stitched over the live population, which
is the standard DHT stabilization every ring overlay performs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.select import SelectOverlay
from repro.net.faults import PingService
from repro.telemetry.registry import Stats, get_registry, stat

__all__ = ["RecoveryStats", "RecoveryManager"]


@dataclass
class RecoveryStats(Stats):
    """Counters accumulated by one :class:`RecoveryManager` across a run."""

    replacements: int = stat("dead long links swapped for live candidates")
    kept_unresponsive: int = stat("unresponsive contacts kept (high CMA / suspicion)")
    false_evictions: int = stat("evicted contacts that were actually online")
    failed_replacements: int = stat("replacement attempts without a usable candidate")
    reprieves: int = stat("evictions cancelled by the last-chance probe")


class RecoveryManager:
    """Drives SELECT's §III-F maintenance for one churn tick.

    The counters live in :attr:`stats` (exported as ``recovery.*``) and
    read as attributes of the manager: ``manager.replacements``.
    """

    replacements = property(lambda self: self.stats.replacements)
    kept_unresponsive = property(lambda self: self.stats.kept_unresponsive)
    false_evictions = property(lambda self: self.stats.false_evictions)
    failed_replacements = property(lambda self: self.stats.failed_replacements)
    reprieves = property(lambda self: self.stats.reprieves)

    def __init__(
        self,
        overlay: SelectOverlay,
        ping_service: "PingService | None" = None,
        stabilizer=None,
        registry=None,
    ):
        self.overlay = overlay
        self.pings = ping_service if ping_service is not None else PingService()
        #: optional :class:`~repro.core.stabilize.Stabilizer`. When set and
        #: the fault plan can actually do damage, ring repair runs through
        #: it (local successor-list stabilization) instead of the oracle
        #: re-stitch; under a null plan the oracle path is kept so default
        #: results stay bit-identical to the seed.
        self.stabilizer = stabilizer
        #: simulation clock of the current tick (drives partition windows).
        self.now = 0.0
        self.stats = RecoveryStats()
        registry = registry if registry is not None else get_registry()
        self._tick_timer = registry.timer("recovery.tick")
        registry.attach("recovery", self.stats)

    def tick(self, online: np.ndarray, time: "float | None" = None) -> None:
        """One maintenance period: probe contacts, repair links and ring."""
        with self._tick_timer:
            self._tick(online, time)

    def _tick(self, online: np.ndarray, time: "float | None") -> None:
        if time is not None:
            self.now = float(time)
        self.pings.set_ground_truth(online)
        ov = self.overlay
        for v in range(ov.graph.num_nodes):
            if not self.pings.truth(v):  # a peer knows its own liveness
                continue
            peer = ov.peers[v]
            # Sorted, not set order: probe order decides how the fault
            # plan's RNG stream is consumed, and set iteration order
            # depends on insertion history a snapshot restore cannot
            # reproduce. A total order keeps resumed runs bit-identical.
            for contact in sorted(peer.table.long_links):
                result = self.pings.probe(v, contact)
                peer.behavior.observe(contact, result.responded)
                if result.responded:
                    continue
                if not result.confirmed_down:
                    # Under suspicion but not yet confirmed: never act on a
                    # single noisy sample.
                    self.stats.kept_unresponsive += 1
                    continue
                if peer.behavior.should_replace(contact):
                    self._replace(v, contact)
                else:
                    # Temporary failure: keep the link (avoids reassignment
                    # chains at the peers connected to us).
                    self.stats.kept_unresponsive += 1
        if self.stabilizer is not None and not self.pings.faults.is_null:
            self.stabilizer.round(online, time=self.now)
        else:
            # The oracle re-stitch: the overlay's ring over the live peers.
            ov._refresh_ring(online)

    # -- link replacement -----------------------------------------------------------

    def _replace(self, v: int, dead: int) -> None:
        """Swap ``dead`` for a live same-bucket peer (similar bitmap).

        The dead link is only released once a replacement is actually
        wired in: giving up the slot with no candidate (or a failed
        connect) would permanently under-link the peer, so on failure the
        slot is kept and the swap retried on the next tick.
        """
        ov = self.overlay
        peer = ov.peers[v]
        if not self.pings.faults.is_null and self.pings.check(v, dead):
            # Last-chance confirmation probe before an eviction fires: a
            # flapping contact that answers anything is live after all —
            # keep it (the response also cleared its suspicion counter).
            self.stats.reprieves += 1
            self.stats.kept_unresponsive += 1
            return
        struck: set[int] = set()
        while True:
            candidate = self._same_bucket_candidate(peer, v, dead, struck)
            if candidate is None:
                candidate = self._most_similar_candidate(peer, v, dead, struck)
            if candidate is None:
                self.stats.failed_replacements += 1
                return
            if ov._try_connect_recovery(v, candidate):
                break
            # Admission refused — the candidate's incoming slots are full.
            # Strike it and fall through to the next-best candidate rather
            # than abandoning the whole tick: at steady state most peers
            # run at the cap, so the first choice being full is the common
            # case, not the exception.
            struck.add(candidate)
        if self.pings.truth(dead):
            self.stats.false_evictions += 1
        peer.table.long_links.discard(dead)
        ov._disconnect(v, dead)
        peer.forget_peer(dead)
        self.pings.forget(v, dead)
        peer.table.long_links.add(candidate)
        self.stats.replacements += 1

    def _same_bucket_candidate(
        self, peer, v: int, dead: int, struck: "set[int] | None" = None
    ) -> "int | None":
        """A live, unlinked known friend sharing the dead peer's LSH bucket."""
        if dead not in peer.known_bitmap:
            return None
        dead_bucket = peer.bucket_of(dead)
        best = None
        for friend in peer.known_bitmap:
            if friend == dead or friend in peer.table.long_links:
                continue
            if struck and friend in struck:
                continue
            if peer.bucket_of(friend) == dead_bucket and self.pings.check(v, friend):
                if best is None or friend < best:
                    best = friend
        return best

    def _most_similar_candidate(
        self, peer, v: int, dead: int, struck: "set[int] | None" = None
    ) -> "int | None":
        """Fallback: live known friend with the closest bitmap (Hamming)."""
        dead_bitmap = peer.known_bitmap.get(dead)
        best = None
        best_dist = None
        for friend, bitmap in peer.known_bitmap.items():
            if friend == dead or friend in peer.table.long_links:
                continue
            if struck and friend in struck:
                continue
            if not self.pings.check(v, friend):
                continue
            if dead_bitmap is None:
                dist = 0
            else:
                dist = (dead_bitmap ^ bitmap).bit_count()
            if best_dist is None or dist < best_dist or (dist == best_dist and friend < best):
                best = friend
                best_dist = dist
        return best
