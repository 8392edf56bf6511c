"""Identifier reassignment (paper Algorithm 2).

Each round a peer relocates to the "centroid" of its two strongest social
friends — the midpoint of the shorter ring arc between their identifiers.
The paper motivates the two-friend centroid over the all-friends centroid:
for high-degree users, friends with very different strength may sit in
totally different ID regions, and averaging them all would park the peer
in no-man's-land.

A build does not call this module: it proposes every peer's position in one
:func:`repro.core.vectorized.evaluate_positions` call a round. This is the
per-peer reference that kernel is tested against
(``tests/test_vectorized_kernels.py``).
"""

from __future__ import annotations

from repro.core.config import MERGE_RADIUS, MOVEMENT_TOLERANCE
from repro.core.peer import PeerState
from repro.idspace.space import ring_distance, ring_midpoint

__all__ = ["evaluate_position", "apply_reassignment"]


def evaluate_position(peer: PeerState, ids, eligible=None) -> float:
    """Algorithm 2's ``evaluatePosition`` — the proposed new identifier.

    Uses the strengths the peer has *learned through gossip* (Eq. 2 with
    ``known_mutual``). With two known friends the candidate is their ring
    midpoint; with exactly one it moves next to that friend; with none the
    peer stays put.

    Three guards keep the dynamic stable (the literal Algorithm 2, applied
    unconditionally by every peer every round, is a consensus iteration
    that contracts the whole connected network onto one point, destroying
    the ring — the opposite of Figure 8's clustered-but-spread layout):

    * **cluster guard** — with two anchors, relocate only when the anchors
      are within ``MERGE_RADIUS`` of each other, i.e. when the midpoint
      is inside a genuine social cluster rather than in the no-man's land
      between two distant regions;
    * **stale-target gate** — a peer re-evaluates a previously used anchor
      pair only after the pair's midpoint has drifted beyond half the
      merge radius since its last move. (A strict once-per-anchor-pair
      rule froze clusters half-formed: once gossip has spread, every peer
      locks onto its final strongest pair within a round or two, moves
      once, and then ignores its anchors converging further. The drift
      threshold admits only macroscopic anchor movement — micro-drift
      inside an already-tight cluster stays blocked, so the gate cannot
      feed the chase dynamic that contracts dense networks onto a point.)
    * **improvement gate** — relocate only when the move shrinks the worst
      anchor distance by more than ``MOVEMENT_TOLERANCE``, so every move
      is strictly productive.

    Both constants are :mod:`repro.core.config`'s.
    """
    top = peer.strongest_known(k=2, among=eligible)
    if not top:
        return peer.identifier
    pair = tuple(sorted(top))
    anchors = [float(ids[f]) for f in top]
    if len(anchors) == 1:
        # Only a degree-1 user trusts a single anchor; for everyone else
        # one gossiped friend is too little information to relocate on.
        if len(peer.neighborhood) != 1:
            return peer.identifier
        candidate = ring_midpoint(peer.identifier, anchors[0])
    elif ring_distance(anchors[0], anchors[1]) > MERGE_RADIUS:
        # Anchors live in different ID regions; the midpoint is no-man's
        # land and chasing either one lets clusters drift into each other.
        return peer.identifier
    else:
        candidate = ring_midpoint(anchors[0], anchors[1])
    reopen = max(MOVEMENT_TOLERANCE, MERGE_RADIUS / 2.0)
    if pair == peer.last_anchor_pair and not (
        ring_distance(candidate, peer.last_anchor_target) > reopen
    ):
        return peer.identifier
    current_obj = max(ring_distance(peer.identifier, a) for a in anchors)
    candidate_obj = max(ring_distance(candidate, a) for a in anchors)
    if candidate_obj + MOVEMENT_TOLERANCE < current_obj:
        peer.last_anchor_pair = pair
        peer.last_anchor_target = float(candidate)
        return float(candidate)
    return peer.identifier


def apply_reassignment(peer: PeerState, new_id: float) -> bool:
    """Commit a proposed identifier; True when it counts as a move."""
    moved = ring_distance(peer.identifier, new_id) > MOVEMENT_TOLERANCE
    peer.identifier = float(new_id)
    return moved
