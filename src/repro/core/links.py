"""Link establishment and reassignment (paper Algorithm 5).

``createLinks`` buckets the friendship bitmaps the peer has learned about
its social neighborhood into ``|H| = K`` LSH buckets, then establishes one
long-range link per non-empty bucket (chosen by Algorithm 6's picker) and
drops already-established links that landed in the same bucket as the
chosen peer — they cover the same zone of the neighborhood and are
therefore redundant.

A bucket is hashed once, when the peer learns the bitmap, and cached in
the peer's edge-column slot, so a plan is a grouping pass over the peer's
row with no hashing. Every caller runs Algorithm 5 the same way:
:func:`plan_links` computes the net link diff against the admission
ledger without side effects, and :func:`apply_plan` applies it.
:func:`repro.core.vectorized.plan_round` is the same plan for a round's
whole gate and is tested against :func:`plan_links`.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.core.peer import PeerState
from repro.core.picker import KEY_FIELD, picker

__all__ = ["create_links", "plan_links", "apply_plan", "random_links"]


def create_links(peer: PeerState, ledger, hysteresis: int = 2) -> bool:
    """Run Algorithm 5 for one peer; True when the link set changed.

    It plans against the live ledger (:func:`plan_links`), then applies
    the plan (:func:`apply_plan`). ``ledger`` is the
    :class:`~repro.core.select.SelectOverlay` whose admission ledger caps
    incoming links. A plan never drops and re-takes a link it keeps, so a
    bandwidth eviction queued against that link for the round barrier
    cannot strand a slot the peer took back.
    """
    plan = plan_links(peer, ledger, hysteresis)
    return plan is not None and apply_plan(ledger, peer.node, *plan)


def plan_links(peer: PeerState, ledger, hysteresis: int = 2) -> "tuple[tuple, tuple] | None":
    """Algorithm 5's net link diff for one peer, computed without
    touching any shared state.

    Returns ``(drops, adds)`` — sorted tuples taking the current long
    links to the planned set — or ``None`` when the peer has no gossip
    knowledge yet or the plan equals the current set. The pass reads the
    peer's edge-column row, whose packed keys are Algorithm 6's order
    (coverage desc, id asc). With ``ledger.upload_mbps`` set, each bucket
    is picked by the picker's bandwidth rule. A friend is added only when
    ``ledger.admits`` it. A current link stays admissible after the pass
    drops it: taking it back only keeps it, and nothing is charged.

    ``hysteresis`` biases the bucket choice toward an *already
    established* link: a challenger replaces it only when its bitmap
    covers at least that many more of the neighborhood. Without it the
    bucket argmax flips whenever gossip refreshes a bitmap and the
    network never quiesces.
    """
    edges, row = peer.edge_row()
    keys = edges.key[row]
    at = np.flatnonzero(keys >= 0)
    if not len(at):
        return None
    keys, friends, buckets = keys[at], peer.neighborhood[at], edges.bucket[row][at]
    for i in np.flatnonzero(buckets < 0).tolist():
        buckets[i] = peer.bucket_of(int(friends[i]))
    table, upload = peer.table, ledger.upload_mbps
    current = set(table.long_links)
    admissible = current.union(friends[ledger.admits(peer.node, friends)].tolist())
    virtual = set(current)
    order = np.lexsort((keys, buckets))
    coverage = (KEY_FIELD - (keys[order] >> 31)).tolist()
    for _, cell in groupby(zip(buckets[order].tolist(), friends[order].tolist(), coverage), itemgetter(0)):
        cov = {f: c for _, f, c in cell}
        members = list(cov)
        chosen = members[0] if upload is None else picker(members, cov, upload)
        if chosen not in virtual and hysteresis > 0:
            # Keep the bucket's best established link unless clearly beaten.
            held = next((m for m in members if m in virtual), chosen)
            if cov[chosen] - cov[held] < hysteresis:
                chosen = held
        if chosen not in virtual:
            if len(virtual) >= table.max_long:
                virtual.difference_update(members)  # make room: the bucket's links go first
            if len(virtual) < table.max_long and chosen in admissible:
                virtual.add(chosen)
        # Lines 12-16: drop established links that share the bucket.
        virtual.difference_update([m for m in members if m != chosen])
    need = ledger.k_links - len(virtual)
    if need > 0:
        # Budget fill. Early bitmaps are near-empty and collide into one
        # bucket, so leftover budget goes to the friends that extend 2-hop
        # coverage (§III-A): the cover is the OR of the planned links'
        # bitmaps, and a covered flag above the packed key ranks uncovered
        # friends first, richer bitmaps first among them.
        friends = friends.tolist()
        cover = 0
        for f, bitmap in zip(friends, edges.bitmap[row][at].tolist()):
            if f in virtual:
                cover |= bitmap
        fill = sorted(
            key | (cover >> i & 1) << 62
            for key, f, i in zip(keys.tolist(), friends, at.tolist())
            if f in admissible and f not in virtual
        )
        virtual.update(key & KEY_FIELD for key in fill[:need])
    if virtual == current:
        return None
    return (
        tuple(sorted(w for w in current if w not in virtual)),
        tuple(sorted(w for w in virtual if w not in current)),
    )


def apply_plan(ledger, node: int, drops, adds) -> bool:
    """Apply one vertex's net link diff to its table; True when it changed.

    Slots are freed first, then the planned ones claimed. Adds go through
    ``ledger._try_connect`` so the K-incoming cap is re-enforced against
    the live ledger: a plan made against round-start state can lose a
    slot to an earlier vertex, and a vertex whose drops are empty and
    whose adds are all refused did not change.
    """
    table = ledger.tables[node]
    changed = bool(drops)
    for w in drops:
        table.drop_long(w)
        ledger.release_incoming(node, w)
    for w in adds:
        if ledger._try_connect(node, w):
            table.add_long(w)
            changed = True
    return changed


def random_links(peer: PeerState, ledger, rng: np.random.Generator) -> bool:
    """Ablation variant: long links sampled uniformly from known friends.

    Replaces the LSH bucketing so experiments can isolate its effect. The
    plan is the admissible prefix of one permutation of the known friends
    (in learn order) that fills the budget, applied by :func:`apply_plan`.
    """
    known = list(peer.known_bitmap)
    if not known:
        return False
    links = peer.table.long_links
    candidates = rng.permutation(known)
    room = max(min(ledger.k_links, len(known)) - len(links), 0)
    admitted = ledger.admits(peer.node, candidates).tolist()
    adds = [c for c, ok in zip(candidates.tolist(), admitted) if ok and c not in links]
    return apply_plan(ledger, peer.node, (), adds[:room])
