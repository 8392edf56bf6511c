"""Per-peer local state (paper Table I) plus gossip-learned knowledge.

Table I lists four variables: the identifier ``D_p``, the routing table
``R_p``, the social neighborhood ``C_p``, and the lookahead set ``L_p``.
On top of those, the gossip protocol (Algorithms 3–4) accumulates what the
peer has *learned* about each friend — mutual-friend counts (for Eq. 2
strength) and friendship bitmaps (for LSH link selection); the CMA of
each contact's online behaviour is the overlay's one
:class:`~repro.net.availability.CmaBook`. What a peer
knows about ``neighborhood[i]`` lives in slot ``i`` of its block of
:class:`~repro.core.columns.EdgeColumns`, the one store of that knowledge
(a friend's links as a row of the columns' link log); ``known_mutual``,
``known_bitmap`` and ``lookahead`` are read-only dicts built off the slots
in learn order (recovery probes candidates in it).

Scalar round state (identifier, convergence counters, top-2 anchors)
lives in a shared :class:`~repro.core.columns.PeerColumns` block;
the attributes here are property views over the peer's slot, so the
vectorized kernels and the object API always see the same values.
Friendship bitmaps are Python ints, one bit per neighborhood position (see
:func:`~repro.social.bitmaps.encode`).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.columns import EdgeColumns, PeerColumns
from repro.core.config import LSH_SAMPLES
from repro.core.picker import packed_key
from repro.lsh.bitsampling import bucket_table
from repro.overlay.base import RoutingTable

__all__ = ["PeerState"]


def _view(name: str, cast, doc: str) -> property:
    """A property over the peer's slot of the :class:`PeerColumns` column ``name``."""
    return property(
        lambda self: cast(getattr(self._cols, name)[self._slot]),
        lambda self, value: getattr(self._cols, name).__setitem__(self._slot, value),
        doc=doc,
    )


class PeerState:
    """Everything one SELECT peer knows locally."""

    __slots__ = (
        "node",
        "_cols",
        "_slot",
        "neighborhood",
        "table",
        "_edges",
        "_edge_at",
    )

    def __init__(
        self,
        node: int,
        neighborhood: np.ndarray,
        k_links: int,
        table: "RoutingTable | None" = None,
        columns: "tuple[PeerColumns, int] | None" = None,
        edge_columns: "tuple[EdgeColumns, int] | None" = None,
    ):
        self.node = node
        self._cols, self._slot = columns or (PeerColumns(1), 0)
        #: ``C_p`` — identifiers of the peers hosting this user's friends, sorted.
        self.neighborhood = np.asarray(neighborhood, dtype=np.int64)
        #: ``R_p`` — routing table (2 short-range + up to K long-range).
        self.table = table if table is not None else RoutingTable(node, k_links)
        #: this peer's :class:`EdgeColumns` block: everything it knows about
        #: ``neighborhood[i]`` sits at ``_edge_at + i``.
        self._edges, self._edge_at = edge_columns or (EdgeColumns(len(self.neighborhood)), 0)

    # -- column views ---------------------------------------------------------

    identifier = _view("identifier", float, "``D_p`` — position on the unit ring (assigned by projection).")
    moves_done = _view(
        "moves_done", int, "Identifier relocations performed so far (bounded by ``MAX_MOVES``)."
    )
    stable_rounds = _view(
        "stable_rounds",
        int,
        """Consecutive rounds without a link change; link reassignment
        pauses once this reaches ``STABILIZE_AFTER`` (and resumes
        when a new friend is learned through gossip).""",
    )
    link_change_budget = _view(
        "link_change_budget",
        int,
        """Remaining rounds in which this peer may change links; set by
        the overlay to ``MAX_LINK_CHANGES``. Guarantees quiescence even for
        peers locked in mutual-feedback oscillations.""",
    )
    last_anchor_target = _view(
        "anchor_target", float, "Midpoint the peer last relocated to (NaN before any move)."
    )

    @property
    def _top2(self) -> list[int]:
        """Incrementally maintained two strongest known friends. Mutual
        counts are static for a fixed social graph, so the top-2 never
        needs re-ranking of previously seen friends."""
        row = self._cols.top2[self._slot].tolist()
        return [f for f in row[: 1 + (row[0] >= 0)] if f >= 0]  # an empty first rank hides the second

    @_top2.setter
    def _top2(self, value) -> None:
        self._cols.top2[self._slot] = (list(value) + [-1, -1])[:2]

    @property
    def last_anchor_pair(self) -> "tuple | None":
        """The anchor pair the peer last relocated for. Together with
        ``last_anchor_target`` this gates re-relocation: the same pair is
        only re-evaluated after its midpoint drifts beyond the movement
        tolerance (the per-peer move budget bounds the chase dynamic)."""
        row = self._cols.anchor_pair[self._slot].tolist()
        return None if row[0] < 0 else tuple(f for f in row if f >= 0)

    @last_anchor_pair.setter
    def last_anchor_pair(self, value: "tuple | None") -> None:
        self._cols.anchor_pair[self._slot] = (list(value or ()) + [-1, -1])[:2]

    # -- the edge slots and the learn-ordered dicts read off them --------------

    def _edge(self, friend: int) -> int:
        """``friend``'s slot in the edge columns; ``ValueError`` outside ``C_p``."""
        at = bisect_left(self.neighborhood, friend)
        if at == len(self.neighborhood) or self.neighborhood[at] != friend:
            raise ValueError(f"peer {self.node} has no slot for {friend}: not one of its friends")
        return self._edge_at + at

    def _learned(self, stamp: np.ndarray) -> np.ndarray:
        """Positions in ``C_p`` of the friends ``stamp`` marks learned, in learn order."""
        row = stamp[self._edge_at : self._edge_at + len(self.neighborhood)]
        at = np.flatnonzero(row >= 0)
        return at[np.lexsort((row[at],))]

    def _dict(self, stamp: np.ndarray, column: np.ndarray) -> dict:
        at = self._learned(stamp)
        return dict(zip(self.neighborhood[at].tolist(), column[self._edge_at + at].tolist()))

    @property
    def known_mutual(self) -> dict:
        """Gossip-learned ``|C_p ∩ C_u|`` per friend u."""
        return self._dict(self._edges.mutual_stamp, self._edges.mutual)

    @property
    def known_bitmap(self) -> dict:
        """Gossip-learned friendship bitmap per friend u (Python int)."""
        return self._dict(self._edges.bitmap_stamp, self._edges.bitmap)

    @property
    def lookahead(self) -> dict:
        """``L_p`` — the links each friend had when its bitmap was last
        folded, read off the link log as frozensets."""
        edges, at = self._edges, self._learned(self._edges.bitmap_stamp)
        rows = edges.view[self._edge_at + at].tolist()
        return {f: frozenset(edges.row(r)) for f, r in zip(self.neighborhood[at].tolist(), rows)}

    def edge_row(self) -> "tuple[EdgeColumns, slice]":
        """This peer's block of the edge columns: slot ``i`` of the slice
        is what it knows about ``neighborhood[i]`` (Algorithm 5 reads it)."""
        return self._edges, slice(self._edge_at, self._edge_at + len(self.neighborhood))

    def strongest_known(self, k: int = 2, among=None) -> list[int]:
        """Top-``k`` known friends by strength (deterministic tie-break)."""
        if among is None and k <= 2:
            return self._top2[:k]
        mutual = self.known_mutual
        candidates = mutual.keys() if among is None else among
        return sorted((f for f in candidates if f in mutual), key=lambda f: (-mutual[f], f))[:k]

    # -- knowledge updates -----------------------------------------------------

    def learn_exchange(self, friend: int, mutual: int, bitmap: int, friend_links) -> None:
        """Fold in one gossip exchange with ``friend``, as
        :func:`repro.core.rounds.exchange_phase` does for a whole round.

        ``friend_links`` is the link set ``bitmap`` was computed from; it
        becomes a new row of the link log, which the slot then names."""
        at = self._edge(friend)
        edges = self._edges
        is_new = edges.mutual[at] < 0
        edges.mutual[at] = mutual
        if is_new:
            edges.mutual_stamp[at] = edges.stamps(1)[0]
            # New information about an unseen friend re-opens link selection.
            self.stable_rounds = 0
            self._insert_top2(friend)
        if edges.bitmap[at] != bitmap:
            # Bitmap actually changed (or first sighting): refresh what the
            # edge columns cache of it. Re-gossiped unchanged bitmaps — the
            # common case once the network settles — skip the LSH re-hash.
            if edges.bitmap_stamp[at] < 0:
                edges.bitmap_stamp[at] = edges.stamps(1)[0]
            edges.bitmap[at] = bitmap
            self._cache_edge(friend, bitmap)
        links = np.fromiter(friend_links, dtype=np.int64)
        edges.view[at] = edges.append(np.zeros(len(links), dtype=np.int64), links, 1)[0]

    def _insert_top2(self, friend: int) -> None:
        """Keep the two strongest known friends: mutual counts are static, so
        they are the two smallest packed keys learned so far."""
        row = self._cols.top2[self._slot]
        known = [f for f in row.tolist() if f >= 0] + [friend]
        known.sort(key=lambda f: packed_key(f, int(self._edges.mutual[self._edge(f)])))
        row[:] = (known + [-1])[:2]

    def _cache_edge(self, friend: int, bitmap: int) -> None:
        """Write what ``bitmap`` implies into ``friend``'s slot — the per-peer
        writer of ``key`` and ``bucket`` (a round's fold scatters them). The
        key is Algorithm 6's :func:`packed_key` of the bitmap's popcount; the
        bucket is :meth:`_bucket`'s, or ``-1`` until :meth:`bucket_of` fills it."""
        at = self._edge(friend)
        self._edges.key[at] = packed_key(friend, bitmap.bit_count())
        self._edges.bucket[at] = self._bucket(bitmap)

    def _bucket(self, bitmap: int) -> int:
        """The LSH bucket of ``bitmap``: the bits at this peer's sampled
        positions, the first most significant, as a signature into the
        bucket table of ``K`` (the table's long-link budget) buckets, as the
        exchange fold hashes; ``-1`` with no positions."""
        row = self._cols.lsh_sample[self._slot]
        if row[-1] < 0:
            return -1
        signature = 0
        for position in row[row >= 0].tolist():
            signature = signature << 1 | bitmap >> position & 1
        return int(bucket_table(LSH_SAMPLES, self.table.max_long)[signature])

    def bucket_of(self, friend: int) -> int:
        """LSH bucket of a learned friend (0 when the peer has no sampled
        positions): its column slot, hashed into it on first use."""
        at = self._edge(friend)
        if (bucket := int(self._edges.bucket[at])) < 0:
            bucket = self._edges.bucket[at] = self._bucket(self._edges.bitmap[at])
        return max(bucket, 0)

    def forget_peer(self, peer: int) -> None:
        """Drop what a departed/replaced contact's links told us; its mutual
        count is static and stays."""
        if peer in self.neighborhood:
            at, edges = self._edge(peer), self._edges
            edges.bitmap[at] = None
            edges.bitmap_stamp[at] = edges.view[at] = edges.key[at] = edges.bucket[at] = -1

    def merge_candidates(self) -> set[int]:
        """Peers this node can propose as rectify candidates.

        Everything the peer has learned about beyond its routing table:
        gossip-known friends, the lookahead set's members, and its own
        long links. After a partition heals, SELECT's social id-clustering
        means a boundary peer usually *knows* its true cross-cut ring
        neighbor through one of these — which is what lets the merge pass
        close the ring in a handful of rounds instead of walking it.
        """
        edges = self._edges
        out: set[int] = set(self.table.long_links)
        out.update(self.known_mutual)
        learned = self._edge_at + self._learned(edges.bitmap_stamp)
        for row in edges.view[learned].tolist():
            out.update(edges.row(row))
        out.discard(self.node)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PeerState(node={self.node}, id={self.identifier:.4f}, "
            f"links={len(self.table.all_links())}, friends={len(self.neighborhood)})"
        )
