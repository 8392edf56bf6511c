"""Link establishment and reassignment (paper Algorithm 5).

``createLinks`` buckets the friendship bitmaps the peer has learned about
its social neighborhood into ``|H| = K`` LSH buckets, then establishes one
long-range link per non-empty bucket (chosen by Algorithm 6's picker) and
drops already-established links that landed in the same bucket as the
chosen peer — they cover the same zone of the neighborhood and are
therefore redundant.

A bucket is hashed once, when the peer learns the bitmap, and cached in
the peer's edge-column slot, so one round of ``createLinks`` is a
grouping pass with no hashing. These per-peer passes are the reference
:func:`repro.core.vectorized.plan_round` is tested against and a build's
re-plan for the few peers the live ledger outdated.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Callable

import numpy as np

from repro.core.peer import PeerState
from repro.core.picker import KEY_FIELD, picker

__all__ = ["create_links", "plan_links", "apply_plan", "random_links"]


def create_links(
    peer: PeerState,
    k_links: int,
    try_connect: Callable[[int, int], bool],
    disconnect: Callable[[int, int], None],
    upload_mbps: "np.ndarray | None" = None,
    hysteresis: int = 2,
    incoming_count: "np.ndarray | None" = None,
) -> bool:
    """Run Algorithm 5 for one peer; True when the link set changed.

    ``try_connect(p, u)`` must enforce the K-incoming cap on ``u`` and
    return whether the connection was accepted; ``disconnect(p, u)``
    releases one.

    ``hysteresis`` biases the bucket choice toward an *already
    established* link: a challenger replaces it only when its bitmap
    covers at least that many more of the neighborhood. Without it the
    bucket argmax flips whenever gossip refreshes a bitmap and the
    network never quiesces.

    ``incoming_count`` (optional) exposes the admission ledger behind
    ``try_connect`` as its per-target occupancy array. Without a
    bandwidth model an admission succeeds iff the target has a free
    incoming slot (or already holds one for us), so the whole
    reassignment can be *planned* against the ledger
    (:func:`plan_links`) and only the net difference applied
    (:func:`apply_plan`). Most rounds net to zero (drop-then-readd
    churn), so planning turns them into pure reads: no ledger traffic
    and no table write. Every net add was
    judged admissible against untouched ledger state and the net drops
    only free slots, so the applied ``try_connect`` calls cannot be
    refused and the final ledger/table state is bit-identical to what
    the mutating pass would leave. With a bandwidth model admissions can
    evict third parties mid-pass, so the mutating pass runs instead.
    """
    if upload_mbps is None and incoming_count is not None:
        plan = plan_links(peer, k_links, incoming_count, hysteresis)
        if plan is None:
            return False
        return apply_plan(peer.table, peer.node, *plan, try_connect, disconnect)

    rows, coverage, buckets = peer.known_rows()
    if not rows:
        return False
    changed = False
    table = peer.table
    for _, members in sorted(buckets.items()):
        chosen = picker(members, coverage, upload_mbps)
        chosen = _stability_bias(table.long_links, members, chosen, hysteresis, coverage)
        if chosen not in table.long_links:
            # Make room: the bucket's redundant links go first.
            if len(table.long_links) >= table.max_long:
                for other in [w for w in table.long_links if w != chosen and w in members]:
                    table.drop_long(other)
                    disconnect(peer.node, other)
            if len(table.long_links) < table.max_long and try_connect(peer.node, chosen):
                table.add_long(chosen)
                changed = True
        # Lines 12-16: drop established links that share the bucket.
        drops = [w for w in table.long_links if w != chosen and w in members]
        for other in drops:
            table.drop_long(other)
            disconnect(peer.node, other)
            changed = True
    if _fill_remaining_budget(peer, k_links, try_connect, rows):
        changed = True
    return changed


def plan_links(
    peer: PeerState,
    k_links: int,
    incoming_count: np.ndarray,
    hysteresis: int = 2,
) -> "tuple[tuple, tuple] | None":
    """Algorithm 5's net link diff for one peer, computed without
    touching any shared state.

    Returns ``(drops, adds)`` — sorted tuples taking the current long
    links to the planned set — or ``None`` when the peer has no gossip
    knowledge yet or the plan equals the current set. The pass simulates
    the mutating loop against a scratch copy of the link set (a link we
    virtually dropped stays admissible: our slot on it is still charged
    in the real ledger). This is the read-only half of the
    plan-then-apply split; :func:`apply_plan` is the other. A build plans
    a whole round in one batch (:func:`repro.core.vectorized.plan_round`):
    this is that kernel's per-peer reference, its scalar hand-off, and —
    through :func:`create_links` — the build's re-plan for a peer
    whose batch plan the live ledger outdated. Only valid without a
    bandwidth model (admission must be a pure predicate over the ledger).
    """
    rows, coverage, buckets = peer.known_rows()
    if not rows:
        return None
    table = peer.table
    current = set(table.long_links)
    virtual = set(current)
    for _, members in sorted(buckets.items()):
        chosen = picker(members, coverage)
        if chosen not in virtual and len(members) > 1:
            chosen = _stability_bias(virtual, members, chosen, hysteresis, coverage)
        if chosen not in virtual:
            if len(virtual) >= table.max_long:
                for w in [w for w in virtual if w != chosen and w in members]:
                    virtual.discard(w)
            if len(virtual) < table.max_long and (
                incoming_count[chosen] < k_links or chosen in current
            ):
                virtual.add(chosen)
        # The link set holds at most K + 1 entries; a bucket can hold many.
        for w in [w for w in virtual if w != chosen and w in members]:
            virtual.discard(w)
    need = k_links - len(virtual)
    if need > 0:
        # Budget fill, planned: every pre-filtered candidate is
        # admissible, so the pops of the mutating pass's heap reduce to
        # the ``need`` smallest keys (unique ints: a sorted slice).
        # Links virtually dropped above stay admissible even when the
        # target reads full: the ledger still charges our slot there.
        full = (incoming_count[list(coverage)] >= k_links).tolist()
        wanted = [not f_full or f in current for f, f_full in zip(coverage, full)]
        for key in sorted(_fill_keys(rows, virtual, wanted))[:need]:
            virtual.add(key & KEY_FIELD)
    if virtual == current:
        return None
    return (
        tuple(sorted(w for w in current if w not in virtual)),
        tuple(sorted(w for w in virtual if w not in current)),
    )


def apply_plan(table, node: int, drops, adds, try_connect, disconnect) -> bool:
    """Apply one vertex's net link diff to its table; True when it changed.

    Slots are freed first, then the planned ones claimed. Adds go
    through ``try_connect`` so the K-incoming cap is re-enforced against
    the live ledger: a plan made against round-start state can lose a
    slot to an earlier vertex, and a vertex whose drops are empty and
    whose adds are all refused did not change.
    """
    changed = bool(drops)
    for w in drops:
        table.drop_long(w)
        disconnect(node, w)
    for w in adds:
        if try_connect(node, w):
            table.add_long(w)
            changed = True
    return changed


def _stability_bias(long_links, members, chosen: int, hysteresis: int, coverage) -> int:
    """Prefer an established same-bucket link unless clearly beaten."""
    if chosen in long_links or hysteresis <= 0:
        return chosen
    best_existing = -1
    best_key = None
    for m in long_links:
        if m in members:
            key = (-coverage.get(m, 0), m)
            if best_key is None or key < best_key:
                best_existing, best_key = m, key
    if best_existing < 0:
        return chosen
    gain = coverage.get(chosen, 0) - coverage.get(best_existing, 0)
    return chosen if gain >= hysteresis else best_existing


def _fill_remaining_budget(peer: PeerState, k_links: int, try_connect, rows) -> bool:
    """Spend leftover link budget on friends not yet covered in <= 2 hops.

    Early in construction most friendship bitmaps are near-empty and
    collide into one LSH bucket, so the one-per-bucket rule alone would
    leave peers badly under-linked. SELECT's stated goal is to reach the
    *maximum number of the social neighborhood* with minimum hops
    (§III-A), so remaining budget goes to the friends that extend 2-hop
    coverage the most: uncovered friends first, richer bitmaps first.
    """
    table = peer.table
    if len(table.long_links) >= k_links:
        return False
    # Heap instead of a full sort: the remaining budget is usually a
    # handful of slots, so only the best few candidates are ever popped.
    node = peer.node
    heap = _fill_keys(rows, table.long_links)
    heapq.heapify(heap)
    changed = False
    while heap and len(table.long_links) < k_links:
        cand = heapq.heappop(heap) & KEY_FIELD
        if try_connect(node, cand):
            table.add_long(cand)
            changed = True
    return changed


def _fill_keys(rows, links, wanted=None) -> "list[int]":
    """Budget-fill sort keys of the ``known_rows`` outside ``links`` (and ``wanted``).

    The 2-hop cover is one int bitset — the OR of the links' friendship
    bitmaps — tested by bit position instead of decoding friend sets.
    Keys are the slots' Algorithm 6 packed ``(coverage desc, id asc)``
    ints with a *covered* flag above both fields, so uncovered friends
    sort first and richer bitmaps first among them.
    """
    cover = 0
    for _, f, _, bitmap in rows:
        if f in links:
            cover |= bitmap
    return [
        key | (cover >> i & 1) << 62
        for (key, f, i, _), want in zip(rows, wanted or repeat(True))
        if want and f not in links
    ]


def random_links(
    peer: PeerState,
    k_links: int,
    try_connect: Callable[[int, int], bool],
    rng: np.random.Generator,
) -> bool:
    """Ablation variant: long links sampled uniformly from known friends.

    Replaces the LSH bucketing so experiments can isolate its effect; the
    incoming cap and budget still apply.
    """
    # Learn order: the permutation below is drawn over it.
    known = list(peer.known_bitmap)
    if not known:
        return False
    changed = False
    table = peer.table
    want = min(k_links, len(known))
    candidates = list(rng.permutation(known))
    for cand in candidates:
        if len(table.long_links) >= want:
            break
        cand = int(cand)
        if cand in table.long_links:
            continue
        if try_connect(peer.node, cand):
            table.add_long(cand)
            changed = True
    return changed
