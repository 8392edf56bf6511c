"""Whole-network vectorized kernels for the SELECT gossip round.

The paper's deployment runs SELECT as a vertex-centric Flink/Gelly job:
each superstep applies the same small function to every vertex. In a
single-process reproduction the per-vertex Python loop *is* the cost, so
these kernels restate each phase of the round as numpy array programs over
the shared :class:`~repro.core.columns.PeerColumns` block and a CSR view
of the social graph:

* :func:`draw_partners` — Alg. 3 line 2 for all peers at once, bit-exact
  with per-peer ``rng.integers`` draws in vertex order.
* :class:`ExchangeKernel` — the passive-thread quantities of Algs. 3–4
  for a batch of exchanges: mutual counts from the lower-degree side's
  friends, friendship bitmaps from the partner's links (a routing table
  is far smaller than a hub's neighbourhood).
* :func:`evaluate_positions` — Alg. 2 for the whole network: top-2 anchor
  selection, cluster guard, once-per-anchor-pair gate, improvement gate.
* :func:`dedup_ids` — deterministic duplicate-identifier spreading for
  the end-of-round barrier.
* :func:`plan_round` — Algs. 5–6 for every gated peer at once: the net
  link diff :func:`repro.core.links.plan_links` would return for each,
  read off the edge-aligned knowledge columns.

Per-edge and per-pair arrays are made a run of :func:`~repro.core.columns.chunks`
at a time; each kernel is independent per pair or peer, so no cut moves an output.

Every kernel has a brute-force reference implementation in the property
tests (``tests/test_vectorized_kernels.py``) pinning elementwise equality,
including the float semantics: ring distances and midpoints reuse the
exact expressions of :mod:`repro.idspace.space`, so the kernels and the
per-peer references produce bitwise-identical identifiers.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.core.columns import chunks
from repro.core.config import MERGE_RADIUS, MOVEMENT_TOLERANCE
from repro.core.links import plan_links
from repro.core.picker import KEY_FIELD
from repro.idspace.space import normalize, ring_midpoint

__all__ = [
    "draw_partners",
    "ExchangeKernel",
    "evaluate_positions",
    "dedup_ids",
    "plan_round",
]


def _ring_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ring distance for in-range ``[0, 1)`` values.

    Bitwise-identical to the scalar ``ring_distance`` fast path:
    ``diff = abs(a - b) % 1.0; diff if diff <= 0.5 else 1.0 - diff``.
    """
    diff = np.mod(np.abs(a - b), 1.0)
    return np.minimum(diff, 1.0 - diff)


def draw_partners(
    neighbor_indptr: np.ndarray,
    neighbor_indices: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Alg. 3 line 2 for every peer in one batch.

    Returns ``(actives, partners)``: ``actives`` are the peers with at
    least one friend, in vertex order, and ``partners[i]`` is the friend
    ``actives[i]`` drew. The draws consume the generator in exactly the
    order the per-peer loop would (vertex order), so the per-peer
    reference (``select_gossip_partner``) sees the same stream.

    ``neighbor_indptr``/``neighbor_indices`` are the CSR adjacency in the
    same order as each peer's ``neighborhood`` array (the candidate order
    ``select_gossip_partner`` indexes into).
    """
    degs = neighbor_indptr[1:] - neighbor_indptr[:-1]
    actives = np.flatnonzero(degs > 0)
    draws = rng.integers(degs[actives])
    return actives, neighbor_indices[neighbor_indptr[actives] + draws]


def _expand(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten variable-length segments of one flat array.

    Returns ``(segment, index)``: for every element of every segment, the
    segment it belongs to and its index in the flat array.
    """
    segment = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    shift = starts - (np.cumsum(lengths) - lengths)
    return segment, np.arange(len(segment), dtype=np.int64) + shift[segment]


class ExchangeKernel:
    """Batch computation of the Alg. 3–4 passive-thread quantities.

    Holds the static CSR adjacency plus its *global sorted key table*
    (``friend_of * n + friend``), which turns "is c a friend of q" for a
    whole batch of (q, c) pairs into one ``searchsorted``. Mutual-friend
    counts and friendship-bitmap ints are computed per exchange pair in a
    handful of array passes instead of per-pair Python set algebra.

    Every friend list must be strictly ascending (a
    :class:`~repro.graphs.graph.SocialGraph` row is): the key table is
    then the CSR itself in key form, so a key's slot in the table minus
    its owner's ``indptr`` is the friend's position in ``C_owner`` — the
    bit :func:`~repro.social.bitmaps.encode` assigns it.
    """

    __slots__ = ("n", "indptr", "indices", "_adj_keys")

    def __init__(self, neighbor_indptr: np.ndarray, neighbor_indices: np.ndarray):
        self.indptr = np.asarray(neighbor_indptr, dtype=np.int64)
        self.indices = np.asarray(neighbor_indices, dtype=np.int64)
        self.n = len(self.indptr) - 1
        degs = self.indptr[1:] - self.indptr[:-1]
        keys = np.repeat(np.arange(self.n, dtype=np.int64), degs) * self.n + self.indices
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("ExchangeKernel needs strictly ascending friend lists")
        self._adj_keys = keys

    def _slots(self, owners: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot of each ``(owner, item)`` in the key table, and whether
        ``items[i] in neighborhood(owners[i])`` — one search for the batch."""
        table = self._adj_keys
        keys = owners * self.n + items
        if len(table) == 0:
            return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
        slots = np.searchsorted(table, keys)
        return slots, table[np.minimum(slots, len(table) - 1)] == keys

    def mutual_counts(self, pairs_p: np.ndarray, pairs_q: np.ndarray) -> np.ndarray:
        """``|C_p ∩ C_q|`` for each pair: count the friends of the pair's
        lower-degree side that are also the other side's."""
        indptr = self.indptr
        deg_p = indptr[pairs_p + 1] - indptr[pairs_p]
        deg_q = indptr[pairs_q + 1] - indptr[pairs_q]
        swap = deg_p > deg_q
        few, many = np.where(swap, pairs_q, pairs_p), np.where(swap, pairs_p, pairs_q)
        reach = np.minimum(deg_p, deg_q)
        counts = np.zeros(len(pairs_p), dtype=np.int64)
        for lo, hi in chunks(reach):
            rep, at = _expand(indptr[few[lo:hi]], reach[lo:hi])
            _, hits = self._slots(many[lo:hi][rep], self.indices[at])
            counts[lo:hi] = np.bincount(rep[hits], minlength=hi - lo)
        return counts

    def bitmap_ints(
        self,
        pairs_p: np.ndarray,
        partners: np.ndarray,
        link_indptr: np.ndarray,
        link_targets: np.ndarray,
        sample: "np.ndarray | None" = None,
    ):
        """Friendship bitmap of each pair's partner over ``C_p``, as ints.

        ``link_indptr`` / ``link_targets`` are link sets in CSR form
        (targets in any order, no repeats) and ``partners[i]`` is the row
        holding pair i's partner's links (the exchange passes the partner's
        row of the edge columns' link log). For pair i, bit j of the result
        is set iff ``neighborhood(pairs_p[i])[j]`` appears in that row. The
        work is per *link*, not per friend — a routing table holds at most
        K + 2 links, a hub's neighbourhood hundreds of friends: each link is
        looked up in the key table, and a hit's slot is its bit. The bytes
        of a run of pairs are written by one weighted ``np.bincount``, then
        sliced into ints — no per-pair numpy calls.

        With ``sample`` (``(m, s)`` bit positions per pair; ``-1`` reads a 0
        padding bit) it returns ``(ints, popcounts, sampled bits)`` too.
        """
        indptr = self.indptr
        nbytes = (indptr[pairs_p + 1] - indptr[pairs_p] + 7) // 8
        width = link_indptr[partners + 1] - link_indptr[partners]
        bare, sample = sample is None, np.zeros((len(pairs_p), 0), dtype=np.int64) if sample is None else sample
        ints, popcounts, bits = [], np.zeros(len(pairs_p), dtype=np.int64), np.zeros(sample.shape, dtype=np.uint8)
        for lo, hi in chunks(width + nbytes + sample.shape[1]):
            byte_off = np.concatenate(([0], np.cumsum(nbytes[lo:hi])))
            rep, at = _expand(link_indptr[partners[lo:hi]], width[lo:hi])
            owners = pairs_p[lo:hi][rep]
            slots, hits = self._slots(owners, link_targets[at])
            # Pair i's bytes start at byte_off[i]; its bits are distinct, so a
            # weighted count ORs them in. A -1 sample reads the pad byte.
            bit = byte_off[rep[hits]] * 8 + slots[hits] - indptr[owners[hits]]
            packed = np.bincount(bit >> 3, 1 << (bit & 7), int(byte_off[-1]) + 1).astype(np.uint8)
            raw, cuts = packed.tobytes(), byte_off.tolist()
            ints += [int.from_bytes(raw[a:b], "little") for a, b in zip(cuts, cuts[1:])]
            popcounts[lo:hi] = np.bincount(rep[hits], minlength=hi - lo)
            at = np.where(sample[lo:hi] >= 0, byte_off[:-1, None] * 8 + sample[lo:hi], byte_off[-1] * 8)
            bits[lo:hi] = packed[at >> 3] >> (at & 7) & 1
        return ints if bare else (ints, popcounts, bits)


def evaluate_positions(
    ids: np.ndarray,
    top2: np.ndarray,
    anchor_pair: np.ndarray,
    anchor_target: np.ndarray,
    eligible: np.ndarray,
    degs: np.ndarray,
) -> np.ndarray:
    """Alg. 2 (evaluatePosition) for the whole network in one pass.

    Parameters mirror the per-peer ``evaluate_position``: ``top2`` is the
    ``(n, 2)`` strongest-friend column (``-1`` = absent), ``anchor_pair``
    the ``(n, 2)`` last-moved-for pair column and ``anchor_target`` the
    midpoint last moved to (both mutated in place for the peers that
    decide to move), ``eligible`` masks peers allowed to relocate this
    round, ``degs`` is ``|C_p|`` (the degenerate single-anchor case only
    applies to degree-1 peers).

    Returns the proposed identifier per peer (current id when staying).
    All candidate arithmetic reuses :func:`repro.idspace.space.ring_midpoint`
    elementwise, so proposals are bitwise-identical to the scalar path.
    """
    n = len(ids)
    pending = ids.copy()
    if n == 0:
        return pending
    a = top2[:, 0]
    b = top2[:, 1]
    has1 = (a >= 0) & (b < 0)
    has2 = b >= 0
    consider = eligible & (a >= 0)
    if not consider.any():
        return pending
    safe_a = np.maximum(a, 0)
    safe_b = np.maximum(b, 0)
    ida = ids[safe_a]
    idb = ids[safe_b]
    # Single-anchor case: only a degree-1 peer relocates toward its sole
    # friend (anything else would be moving on one friend's say-so).
    one = consider & has1 & (degs == 1)
    # Two-anchor case: the cluster guard skips peers whose anchors sit in
    # different id clusters (distance beyond MERGE_RADIUS).
    two = consider & has2 & (_ring_distances(ida, idb) <= MERGE_RADIUS)
    active = one | two
    if not active.any():
        return pending
    cand = np.where(one, ring_midpoint(ids, ida), ring_midpoint(ida, idb))
    # Stale-target gate: a previously used anchor pair is re-evaluated
    # only after its midpoint drifted beyond half the merge radius since
    # the last move (NaN target = never moved = never blocked).
    reopen = max(MOVEMENT_TOLERANCE, MERGE_RADIUS / 2.0)
    pa = np.where(has2, np.minimum(a, b), a)
    pb = np.where(has2, np.maximum(a, b), -1)
    same_pair = (pa == anchor_pair[:, 0]) & (pb == anchor_pair[:, 1])
    with np.errstate(invalid="ignore"):
        stale = same_pair & ~(_ring_distances(cand, anchor_target) > reopen)
    active = active & ~stale
    if not active.any():
        return pending
    # Improvement gate: strictly better max-anchor-distance by > tolerance.
    cur = _ring_distances(ids, ida)
    new = _ring_distances(cand, ida)
    db_cur = _ring_distances(ids, idb)
    db_new = _ring_distances(cand, idb)
    cur = np.where(has2, np.maximum(cur, db_cur), cur)
    new = np.where(has2, np.maximum(new, db_new), new)
    move = active & (new + MOVEMENT_TOLERANCE < cur)
    pending[move] = cand[move]
    # The gate memory updates only for peers that moved, matching the
    # scalar path (the gate writes inside the improvement branch).
    anchor_pair[move, 0] = pa[move]
    anchor_pair[move, 1] = pb[move]
    anchor_target[move] = cand[move]
    return pending


def dedup_ids(pending: np.ndarray) -> np.ndarray:
    """Spread duplicate identifiers deterministically, preserving ring order.

    Nudging each later claimant upward by ``2^-40`` in a ``while new_id
    in taken`` loop is unbounded when the nudge lands on yet another taken
    value, and O(n) dict probes per duplicate. This kernel resolves all
    collisions in one sorted pass:

    * group equal values (ties broken by node index, the ring order),
    * within each run, offset claimant ``k`` by ``k * step`` where
      ``step = min(2^-40, gap_to_next_value / (run_len + 1))`` — so the
      spread can never leapfrog the next occupied identifier,
    * the lowest-index claimant keeps the exact original value.

    Returns the adjusted copy; all values are distinct and the relative
    clockwise order of (id, node-index) pairs is unchanged.

    Both promises assume each gap holds a representable double per
    claimant. A run whose gap is only a few ULPs wide spills into the
    next value's run and pushes it upward, first claimant included
    (``[0.0, 0.0, 5e-324]`` becomes ``[0.0, 5e-324, 1e-323]``): ring
    order survives, the exact value does not. Published identifiers do
    sit one ULP apart — an earlier barrier's repair put them there — so
    this is the behaviour real builds are pinned to.
    """
    n = len(pending)
    out = pending.copy()
    if n < 2:
        return out
    order = np.lexsort((np.arange(n), pending))
    sv = pending[order]
    if (sv[1:] != sv[:-1]).all():
        return out
    # Run-length encode the sorted values.
    run_start = np.concatenate(([True], sv[1:] != sv[:-1]))
    run_id = np.cumsum(run_start) - 1
    run_len = np.bincount(run_id)
    run_val = sv[run_start]
    # Clockwise gap from each run's value to the next distinct value
    # (wrapping); an all-equal ring leaves the full circle as the gap.
    next_val = np.roll(run_val, -1)
    gap = np.mod(next_val - run_val, 1.0)
    gap[gap <= 0.0] = 1.0
    step = np.minimum(2.0**-40, gap / (run_len + 1))
    within = np.arange(n) - np.concatenate(([0], np.cumsum(run_len)))[run_id]
    vals = sv + within * step[run_id]
    # The offsets are < gap by construction, but float rounding at tiny
    # gaps can still collapse adjacent values — repair the rare stragglers.
    # Values may pass 1.0 here; normalize wraps them while preserving
    # cyclic order (subtracting 1.0 is exact on [1, 2)).
    if (np.diff(vals) <= 0).any():
        for i in range(1, n):
            if vals[i] <= vals[i - 1]:
                vals[i] = np.nextafter(vals[i - 1], np.inf)
    out[order] = normalize(vals)
    # Saturated seam: duplicates of the largest doubles below 1.0 have no
    # representable space before the wrap, so the repaired values can land
    # on occupied identifiers near 0. Ring order cannot be preserved there
    # (there is literally nowhere to put them); distinctness still must
    # be. Walk each residual collision to the next free double.
    ascending = np.sort(out)
    if (ascending[1:] == ascending[:-1]).any():
        # Run firsts claim their exact value before any wrapped spread
        # value can squat on it.
        prio = np.ones(n, dtype=np.int64)
        prio[order[within == 0]] = 0
        used: set[float] = set()
        for i in sorted(range(n), key=lambda j: (prio[j], out[j], j)):
            v = float(out[i])
            while v in used:
                v = float(normalize(np.nextafter(v, np.inf)))
            used.add(v)
            out[i] = v
    return out


def plan_round(ov, gated, hysteresis: int = 2) -> "dict[int, tuple[tuple, tuple]]":
    """Algs. 5–6 for every peer in ``gated`` against the ledger as it stands.

    Returns ``{v: (drops, adds)}`` for the peers whose plan differs from
    their links: per peer exactly :func:`~repro.core.links.plan_links`, the
    reference the tests compare against (no bandwidth model). It reads the
    overlay's :class:`~repro.core.columns.EdgeColumns` and the current long
    links as a mask over the same CSR slots; scatter-maxima per ``(peer,
    bucket)`` cell pick each bucket's link, and as only the running link
    count couples a peer's buckets, Algorithm 5's pass is one vector step
    per bucket id. A peer that links outside its neighbourhood (no slot to
    mask) or knows a friend without a bucket (``plan_links`` hashes it on
    demand) is handed to ``plan_links`` itself.
    """
    plans, gated = {}, np.asarray(gated, dtype=np.int64)
    degree = ov._nbr_indptr[gated + 1] - ov._nbr_indptr[gated]
    for lo, hi in chunks(degree + ov.k_links):
        _plan_peers(ov, gated[lo:hi], hysteresis, plans)
    return plans


def _plan_peers(ov, gated: np.ndarray, hysteresis: int, plans: dict) -> None:
    """:func:`plan_round` for one run of peers, into ``plans``."""
    k, width = ov.k_links, len(gated)
    indptr, nbrs, incoming = ov._nbr_indptr, ov._nbr_indices, ov.incoming_count
    lo, degree = indptr[gated], indptr[gated + 1] - indptr[gated]
    owner, at = _expand(lo, degree)

    # Current links as a mask over the run's edge slots, searched in the run's
    # keys ``owner * n + friend`` (ascending, then a sentinel). ``count`` is the
    # number of long links: links to friends not learned about yet hold budget too.
    rows, n = ov.long_links[gated], len(indptr)
    held = rows >= 0
    count, link_owner = held.sum(axis=1), np.nonzero(held)[0]
    keys, wanted = np.append(owner * n + nbrs[at], width * n), link_owner * n + rows[held]
    slots = np.searchsorted(keys, wanted)
    inside = keys[slots] == wanted
    is_link = np.zeros(len(at), dtype=bool)
    is_link[slots[inside]] = True
    scalar = np.zeros(width, dtype=bool)
    scalar[link_owner[~inside]] = True

    known = ov.edge_columns.key[at] >= 0
    owner, at, is_link = owner[known], at[known], is_link[known]
    bucket = ov.edge_columns.bucket[at].astype(np.int64)
    scalar[owner[bucket < 0]] = True
    if scalar.any():
        for v in gated[scalar].tolist():
            plan = plan_links(ov.peers[v], ov, hysteresis)
            if plan is not None:
                plans[v] = plan
        keep = ~scalar[owner]
        owner, at, bucket, is_link = owner[keep], at[keep], bucket[keep], is_link[keep]
    if len(at) == 0:
        return
    coverage = KEY_FIELD - (ov.edge_columns.key[at] >> 31)
    friend = nbrs[at]
    position = at - lo[owner]

    # Algorithm 6's order as one number per edge, larger = better: coverage,
    # then the lower position — which is the lower id, friend lists ascend.
    # A scatter-max per (peer, bucket) cell finds the bucket's leader and the
    # best of the peer's existing links there (-1 = none).
    reach, buckets = int(position.max()) + 1, int(bucket.max()) + 1
    merit = coverage * reach + (reach - 1 - position)
    cell = owner * buckets + bucket
    leader = np.full(width * buckets, -1, dtype=np.int64)
    np.maximum.at(leader, cell, merit)
    best = np.full(width * buckets, -1, dtype=np.int64)
    np.maximum.at(best, cell[is_link], merit[is_link])
    existing = np.bincount(cell[is_link], minlength=width * buckets)
    # The leader takes the bucket unless an existing link is within the
    # hysteresis margin; a challenger is a chosen friend not linked yet.
    challenger = (leader > best) & ((best < 0) | (leader // reach - best // reach >= hysteresis))
    chosen = np.where(challenger, leader, best)
    # (An empty cell reads -1, is no challenger, and points at any slot.)
    slot = np.repeat(lo, buckets) + (reach - 1 - chosen % reach)
    admissible = incoming[nbrs[np.minimum(slot, len(nbrs) - 1)]] < k

    # Algorithm 5's pass, buckets in id order. A kept link costs the bucket
    # its other links; a challenger costs it all of them — before its own
    # admission when the peer is full, after it otherwise — and is added
    # if that leaves room and its target has a free incoming slot.
    lost = np.where(challenger, existing, np.maximum(existing - 1, 0)).reshape(width, buckets)
    added = (challenger & admissible).reshape(width, buckets)
    for b in range(buckets):
        added[:, b] &= count - lost[:, b] < k
        count += added[:, b] - lost[:, b]
    settled = ~challenger | added.reshape(-1)
    virtual = (merit == chosen[cell]) & settled[cell]

    # Budget fill: known friends outside the planned set whose target has a
    # free slot — or a link the pass just dropped, whose slot is still ours.
    need = k - count
    cand = (need[owner] > 0) & ~virtual & (is_link | (incoming[friend] < k))
    tight = np.bincount(owner[cand], minlength=width) > need
    take = cand & ~tight[owner]
    ranked = np.flatnonzero(cand & tight[owner])
    if len(ranked):
        # Uncovered friends first. A tight peer's 2-hop cover is the OR of
        # its planned links' bitmaps (Python ints); all of them become one
        # bit array, the inverse of ``bitmap_ints``' packing.
        tight_at = np.flatnonzero(tight)
        sel = virtual & tight[owner]
        sizes = np.bincount(owner[sel], minlength=width)[tight_at].tolist()
        nbytes = (degree[tight_at] + 7) // 8
        bitmaps = iter(ov.edge_columns.bitmap[at[sel]].tolist())
        blob = []
        for size, length in zip(sizes, nbytes.tolist()):
            cover = 0
            for bitmap in islice(bitmaps, size):
                cover |= bitmap
            blob.append(cover.to_bytes(length, "little"))
        bits = np.unpackbits(np.frombuffer(b"".join(blob), dtype=np.uint8), bitorder="little")
        bit_at = np.zeros(width, dtype=np.int64)
        bit_at[tight_at] = (np.cumsum(nbytes) - nbytes) * 8
        r_owner = owner[ranked]
        covered = bits[bit_at[r_owner] + position[ranked]]
        # One stable pass over (peer, covered, merit descending); lexsort
        # because ``dedup_ids`` already pages it in, where this would be
        # the build's only argsort (0.4 MiB of first-use code pages).
        top = int(merit.max()) + 1
        fill = np.lexsort(((r_owner * 2 + covered) * top + (top - 1 - merit[ranked]),))
        r_owner = r_owner[fill]
        rank = np.arange(len(fill)) - np.searchsorted(r_owner, r_owner)
        take[ranked[fill][rank < need[r_owner]]] = True

    # Edges are in CSR order, so each peer's drops and adds come out sorted.
    final = virtual | take
    drop, add = is_link & ~final, final & ~is_link
    n_drop = np.bincount(owner[drop], minlength=width)
    n_add = np.bincount(owner[add], minlength=width)
    drops, adds = iter(friend[drop].tolist()), iter(friend[add].tolist())
    hit = np.flatnonzero(n_drop + n_add)
    for v, d, a in zip(gated[hit].tolist(), n_drop[hit].tolist(), n_add[hit].tolist()):
        plans[v] = (tuple(islice(drops, d)), tuple(islice(adds, a)))
