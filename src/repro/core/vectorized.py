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

Every kernel has a brute-force reference implementation in the property
tests (``tests/test_vectorized_kernels.py``) pinning elementwise equality,
including the float semantics: ring distances and midpoints reuse the
exact expressions of :mod:`repro.idspace.space`, so the kernels and the
per-peer references produce bitwise-identical identifiers.
"""

from __future__ import annotations

import numpy as np

from repro.idspace.space import normalize, ring_midpoint

__all__ = [
    "draw_partners",
    "ExchangeKernel",
    "evaluate_positions",
    "dedup_ids",
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
    joined: np.ndarray,
    rng: np.random.Generator,
    exchanges_per_round: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Alg. 3 line 2 for every joined peer in one batch.

    Returns ``(actives, partners)``: ``actives`` are the peers that drew
    (joined, with at least one joined friend) in vertex order, and
    ``partners`` is ``(len(actives), exchanges_per_round)`` of drawn
    friend ids. The draws consume the generator in exactly the order the
    per-peer loop would (vertex order, then exchange index), so the
    per-peer reference (``select_gossip_partner``) sees the same stream.

    ``neighbor_indptr``/``neighbor_indices`` are the CSR adjacency in the
    same order as each peer's ``neighborhood`` array (the candidate order
    ``select_gossip_partner`` indexes into).
    """
    n = len(neighbor_indptr) - 1
    degs = neighbor_indptr[1:] - neighbor_indptr[:-1]
    if joined.all():
        eligible = degs > 0
        valid_degs = degs
    else:
        # Per-peer count of *joined* friends; partial-join rounds (growth
        # model) fall back to a masked candidate recount.
        joined_nbr = joined[neighbor_indices]
        cum = np.concatenate(([0], np.cumsum(joined_nbr)))
        valid_degs = cum[neighbor_indptr[1:]] - cum[neighbor_indptr[:-1]]
        eligible = joined & (valid_degs > 0)
    actives = np.flatnonzero(joined & (degs > 0) if joined.all() else eligible)
    if actives.size == 0:
        return actives, np.empty((0, exchanges_per_round), dtype=np.int64)
    d = valid_degs[actives]
    if exchanges_per_round == 1:
        draws = rng.integers(d)[:, None]
    else:
        draws = rng.integers(d[:, None], size=(actives.size, exchanges_per_round))
    if joined.all():
        partners = neighbor_indices[neighbor_indptr[actives][:, None] + draws]
    else:
        partners = np.empty_like(draws)
        for row, p in enumerate(actives):
            cands = neighbor_indices[neighbor_indptr[p] : neighbor_indptr[p + 1]]
            cands = cands[joined[cands]]
            partners[row] = cands[draws[row]]
    return actives, partners


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
    bit :class:`~repro.social.bitmaps.BitmapCodec` assigns it.
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
        rep, at = _expand(indptr[few], np.minimum(deg_p, deg_q))
        _, hits = self._slots(many[rep], self.indices[at])
        return np.bincount(rep[hits], minlength=len(pairs_p))

    def bitmap_ints(
        self,
        pairs_p: np.ndarray,
        partners: np.ndarray,
        link_indptr: np.ndarray,
        link_targets: np.ndarray,
    ) -> list[int]:
        """Friendship bitmap of each pair's partner over ``C_p``, as ints.

        ``link_indptr`` / ``link_targets`` are the round's outgoing links
        in CSR form (owner order; targets in any order). For pair i, bit j
        of the result is set iff ``neighborhood(pairs_p[i])[j]`` appears
        among ``partners[i]``'s links. The work is per *link*, not per
        friend — a routing table holds at most K + 2 links, a hub's
        neighbourhood hundreds of friends: each link is looked up in the
        key table, and a hit's slot is its bit. The bits are packed with
        one ``np.packbits`` over a byte-padded layout, then sliced into
        ints — no per-pair numpy calls.
        """
        if len(pairs_p) == 0:
            return []
        indptr = self.indptr
        nbytes = (indptr[pairs_p + 1] - indptr[pairs_p] + 7) // 8
        byte_off = np.concatenate(([0], np.cumsum(nbytes)))
        rep, at = _expand(link_indptr[partners], link_indptr[partners + 1] - link_indptr[partners])
        owners = pairs_p[rep]
        slots, hits = self._slots(owners, link_targets[at])
        # Per-pair bits at byte-aligned offsets so one packbits call
        # yields each pair's little-endian bytes contiguously.
        padded = np.zeros(int(byte_off[-1]) * 8, dtype=np.uint8)
        padded[byte_off[rep[hits]] * 8 + slots[hits] - indptr[owners[hits]]] = 1
        packed = np.packbits(padded, bitorder="little").tobytes()
        cuts = byte_off.tolist()
        return [int.from_bytes(packed[lo:hi], "little") for lo, hi in zip(cuts, cuts[1:])]


def evaluate_positions(
    ids: np.ndarray,
    top2: np.ndarray,
    anchor_pair: np.ndarray,
    anchor_target: np.ndarray,
    eligible: np.ndarray,
    degs: np.ndarray,
    tolerance: float = 1e-3,
    merge_radius: float = 0.05,
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
    # different id clusters (distance beyond merge_radius).
    two = consider & has2 & (_ring_distances(ida, idb) <= merge_radius)
    active = one | two
    if not active.any():
        return pending
    cand = np.where(one, ring_midpoint(ids, ida), ring_midpoint(ida, idb))
    # Stale-target gate: a previously used anchor pair is re-evaluated
    # only after its midpoint drifted beyond half the merge radius since
    # the last move (NaN target = never moved = never blocked).
    reopen = max(tolerance, merge_radius / 2.0)
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
    move = active & (new + tolerance < cur)
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
    if len(np.unique(out)) < n:
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
