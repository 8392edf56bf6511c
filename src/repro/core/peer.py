"""Per-peer local state (paper Table I) plus gossip-learned knowledge.

Table I lists four variables: the identifier ``D_p``, the routing table
``R_p``, the social neighborhood ``C_p``, and the lookahead set ``L_p``.
On top of those, the gossip protocol (Algorithms 3–4) accumulates what the
peer has *learned* about each friend — mutual-friend counts (for Eq. 2
strength) and friendship bitmaps (for LSH link selection) — and the
recovery mechanism tracks each contact's online behaviour. ``known_mutual``,
``known_bitmap`` and ``lookahead`` are the only per-friend dicts, each in
learn order (recovery probes candidates in it). What a bitmap implies —
Algorithm 6's sort key and Algorithm 5's LSH bucket — is cached once, in the
peer's block of :class:`~repro.core.columns.EdgeColumns`.

Scalar round state (identifier, convergence counters, top-2 anchors)
lives in a shared :class:`~repro.core.columns.PeerColumns` block;
the attributes here are property views over the peer's slot, so the
vectorized kernels and the object API always see the same values.
Friendship bitmaps are Python ints, one bit per neighborhood position (see
:class:`~repro.social.bitmaps.BitmapCodec`).
"""

from __future__ import annotations

import numpy as np

from repro.core.columns import EdgeColumns, PeerColumns
from repro.core.picker import packed_key
from repro.net.availability import OnlineBehavior
from repro.overlay.base import RoutingTable
from repro.social.bitmaps import BitmapCodec

__all__ = ["PeerState"]


class PeerState:
    """Everything one SELECT peer knows locally."""

    __slots__ = (
        "node",
        "_cols",
        "_slot",
        "neighborhood",
        "neighborhood_set",
        "table",
        "codec",
        "known_mutual",
        "known_bitmap",
        "lookahead",
        "behavior",
        "lsh_family",
        "k_buckets",
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
        neighborhood_set: "frozenset[int] | None" = None,
        edge_columns: "tuple[EdgeColumns, int] | None" = None,
    ):
        self.node = node
        if columns is None:
            self._cols = PeerColumns(1)
            self._slot = 0
        else:
            self._cols, self._slot = columns
        #: ``C_p`` — identifiers of the peers hosting this user's friends.
        self.neighborhood = np.asarray(neighborhood, dtype=np.int64)
        #: the same friends as a set; an overlay hands in the graph's own
        #: frozenset rather than keeping a second copy per peer.
        self.neighborhood_set = (
            neighborhood_set
            if neighborhood_set is not None
            else frozenset(int(v) for v in self.neighborhood)
        )
        #: ``R_p`` — routing table (2 short-range + up to K long-range).
        self.table = table if table is not None else RoutingTable(node, k_links)
        #: bitmap codec anchored to ``C_p`` (bit i == neighborhood[i]).
        self.codec = BitmapCodec(self.neighborhood)
        #: gossip-learned ``|C_p ∩ C_u|`` per friend u.
        self.known_mutual: dict[int, int] = {}
        #: gossip-learned friendship bitmap per friend u (Python int).
        self.known_bitmap: dict[int, int] = {}
        #: ``L_p`` — links maintained by each routing-table neighbor.
        self.lookahead: dict[int, frozenset[int]] = {}
        #: CMA availability tracking per contact (recovery, §III-F).
        self.behavior = OnlineBehavior()
        #: LSH family anchored to this peer's neighborhood (set by the
        #: overlay before gossip starts; None = compute buckets on demand).
        self.lsh_family = None
        #: bucket count used for cached bucket assignments.
        self.k_buckets = k_links
        #: this peer's :class:`EdgeColumns` block, the only cache of what
        #: ``known_bitmap`` implies: Alg. 6's key and the LSH bucket of
        #: ``neighborhood[i]`` at ``_edge_at + i`` (:meth:`_cache_edge`).
        self._edges, self._edge_at = edge_columns or (EdgeColumns(len(self.neighborhood)), 0)
        if columns is None:
            # A private column block starts with the overlay defaults the
            # shared block is initialised with; nothing to write.
            self._cols.link_change_budget[0] = 2**31

    # -- column views ---------------------------------------------------------

    @property
    def identifier(self) -> float:
        """``D_p`` — position on the unit ring (assigned by projection)."""
        return float(self._cols.identifier[self._slot])

    @identifier.setter
    def identifier(self, value: float) -> None:
        self._cols.identifier[self._slot] = value

    @property
    def moves_done(self) -> int:
        """Identifier relocations performed so far (bounded by ``MAX_MOVES``)."""
        return int(self._cols.moves_done[self._slot])

    @moves_done.setter
    def moves_done(self, value: int) -> None:
        self._cols.moves_done[self._slot] = value

    @property
    def stable_rounds(self) -> int:
        """Consecutive rounds without a link change; link reassignment
        pauses once this reaches ``STABILIZE_AFTER`` (and resumes
        when a new friend is learned through gossip)."""
        return int(self._cols.stable_rounds[self._slot])

    @stable_rounds.setter
    def stable_rounds(self, value: int) -> None:
        self._cols.stable_rounds[self._slot] = value

    @property
    def link_change_budget(self) -> int:
        """Remaining rounds in which this peer may change links; set by
        the overlay to ``MAX_LINK_CHANGES``. Guarantees quiescence even for
        peers locked in mutual-feedback oscillations."""
        return int(self._cols.link_change_budget[self._slot])

    @link_change_budget.setter
    def link_change_budget(self, value: int) -> None:
        self._cols.link_change_budget[self._slot] = value

    @property
    def _top2(self) -> list[int]:
        """Incrementally maintained two strongest known friends. Mutual
        counts are static for a fixed social graph, so the top-2 never
        needs re-ranking of previously seen friends."""
        row = self._cols.top2[self._slot]
        out = []
        if row[0] >= 0:
            out.append(int(row[0]))
            if row[1] >= 0:
                out.append(int(row[1]))
        return out

    @_top2.setter
    def _top2(self, value) -> None:
        row = self._cols.top2[self._slot]
        row[0] = value[0] if len(value) > 0 else -1
        row[1] = value[1] if len(value) > 1 else -1

    @property
    def last_anchor_pair(self) -> "tuple | None":
        """The anchor pair the peer last relocated for. Together with
        ``last_anchor_target`` this gates re-relocation: the same pair is
        only re-evaluated after its midpoint drifts beyond the movement
        tolerance (the per-peer move budget bounds the chase dynamic)."""
        row = self._cols.anchor_pair[self._slot]
        if row[0] < 0:
            return None
        if row[1] < 0:
            return (int(row[0]),)
        return (int(row[0]), int(row[1]))

    @last_anchor_pair.setter
    def last_anchor_pair(self, value: "tuple | None") -> None:
        row = self._cols.anchor_pair[self._slot]
        if value is None:
            row[0] = -1
            row[1] = -1
        else:
            row[0] = value[0]
            row[1] = value[1] if len(value) > 1 else -1

    @property
    def last_anchor_target(self) -> float:
        """Midpoint the peer last relocated to (NaN before any move)."""
        return float(self._cols.anchor_target[self._slot])

    @last_anchor_target.setter
    def last_anchor_target(self, value: float) -> None:
        self._cols.anchor_target[self._slot] = value

    # -- strength (Eq. 2) from gossip-learned mutual counts ------------------

    def strength(self, friend: int) -> float:
        """``s(p, u) = |C_p ∩ C_u| / |C_p|`` using learned mutual counts."""
        size = len(self.neighborhood)
        if size == 0:
            return 0.0
        return self.known_mutual.get(friend, 0) / size

    def strongest_known(self, k: int = 2, among=None) -> list[int]:
        """Top-``k`` known friends by strength (deterministic tie-break)."""
        if among is None and k <= 2:
            return self._top2[:k]
        candidates = self.known_mutual.keys() if among is None else among
        ranked = sorted(
            (f for f in candidates if f in self.known_mutual),
            key=lambda f: (-self.known_mutual[f], f),
        )
        return ranked[:k]

    # -- knowledge updates -----------------------------------------------------

    def learn_exchange(self, friend: int, mutual: int, bitmap: int, friend_links) -> None:
        """Fold in the result of one gossip exchange with ``friend``.

        Contract: ``friend_links`` is the link set ``bitmap`` was computed
        from (:func:`repro.core.gossip.exchange` and
        :func:`repro.core.rounds.exchange_phase` both pass the partner's
        ``link_view()``). The bitmap is a pure function of that set and the
        static neighbourhood, and the mutual count is static, so
        ``lookahead[friend] is view`` afterwards means "this view is
        folded": folding the same view object again changes nothing, which
        is what lets a round drop such exchanges unseen.
        """
        is_new = friend not in self.known_mutual
        self.known_mutual[friend] = int(mutual)
        if is_new:
            # New information about an unseen friend re-opens link selection.
            self.stable_rounds = 0
            self._insert_top2(friend)
        if self.known_bitmap.get(friend) != bitmap:
            # Bitmap actually changed (or first sighting): refresh what the
            # edge columns cache of it. Re-gossiped unchanged bitmaps — the
            # common case once the network settles — skip the LSH re-hash.
            self.known_bitmap[friend] = bitmap
            self._cache_edge(friend, bitmap)
        if type(friend_links) is frozenset:
            # Cached link views are immutable snapshots; store the
            # reference instead of copying element-by-element.
            self.lookahead[friend] = friend_links
        else:
            self.lookahead[friend] = frozenset(int(w) for w in friend_links)

    def _insert_top2(self, friend: int) -> None:
        """Maintain the two strongest known friends incrementally.

        Valid because mutual-friend counts are static for a fixed social
        graph: a friend's rank never changes after it is first learned.
        Only called for a friend not seen before, so never one of the two.
        """
        row = self._cols.top2[self._slot]
        mutual = self.known_mutual
        key = packed_key(friend, mutual[friend])
        first, second = row.tolist()
        if first < 0 or key < packed_key(first, mutual[first]):
            row[0], row[1] = friend, first
        elif second < 0 or key < packed_key(second, mutual[second]):
            row[1] = friend

    def _cache_edge(self, friend: int, bitmap: "int | None", bucket: int = -1) -> None:
        """Write ``friend``'s slot of both edge columns — the one place a
        peer writes them. The key is Algorithm 6's :func:`packed_key` of the
        bitmap's popcount; the bucket is ``bucket`` when given (a restored
        one), else the family's hash, else ``-1`` until :meth:`bucket_of`
        fills it. ``bitmap=None`` clears the slot. A contact outside ``C_p``
        has no slot; gossip only ever pairs friends."""
        at = self.codec.position.get(friend)
        if at is None:
            return
        at += self._edge_at
        if bitmap is None:
            self._edges.key[at] = self._edges.bucket[at] = -1
            return
        if bucket < 0 and self.lsh_family is not None:
            bucket = self.lsh_family.bucket(bitmap, self.k_buckets)
        self._edges.key[at] = packed_key(friend, bitmap.bit_count())
        self._edges.bucket[at] = bucket

    @property
    def known_coverage(self) -> dict:
        """Popcount (neighborhood coverage) per learned bitmap, derived."""
        return {friend: bitmap.bit_count() for friend, bitmap in self.known_bitmap.items()}

    @property
    def known_bucket(self) -> dict:
        """The cached LSH bucket per learned friend, read off the columns."""
        block = self._edges.bucket[self._edge_at : self._edge_at + len(self.neighborhood)].tolist()
        position = self.codec.position
        return {
            friend: block[at]
            for friend in self.known_bitmap
            if (at := position.get(friend)) is not None and block[at] >= 0
        }

    def bucket_of(self, friend: int) -> int:
        """LSH bucket of a learned friend (0 when no family set): its
        column slot, hashed into it on first use. A contact outside ``C_p``
        has no slot and is hashed on every call."""
        at = self.codec.position.get(friend)
        if at is not None and (bucket := int(self._edges.bucket[self._edge_at + at])) >= 0:
            return bucket
        if self.lsh_family is None:
            return 0
        bitmap = self.known_bitmap[friend]
        bucket = self.lsh_family.bucket(bitmap, self.k_buckets)
        self._cache_edge(friend, bitmap, bucket)
        return bucket

    def forget_peer(self, peer: int) -> None:
        """Drop all knowledge about a departed/replaced contact."""
        self.known_bitmap.pop(peer, None)
        self._cache_edge(peer, None)
        self.lookahead.pop(peer, None)
        self.behavior.forget(peer)

    def merge_candidates(self) -> set[int]:
        """Peers this node can propose as rectify candidates.

        Everything the peer has learned about beyond its routing table:
        gossip-known friends, the lookahead set's members, and its own
        long links. After a partition heals, SELECT's social id-clustering
        means a boundary peer usually *knows* its true cross-cut ring
        neighbor through one of these — which is what lets the merge pass
        close the ring in a handful of rounds instead of walking it.
        """
        out: set[int] = set(self.table.long_links)
        out.update(self.known_mutual)
        out.update(self.lookahead)
        for links in self.lookahead.values():
            out.update(links)
        out.discard(self.node)
        return out

    # -- convenience -------------------------------------------------------------

    def covered_friends(self) -> set[int]:
        """Friends reachable in <= 2 hops via ``R_p`` and ``L_p``."""
        reach: set[int] = set()
        direct = self.table.link_view()
        for f in self.neighborhood_set:
            if f in direct:
                reach.add(f)
                continue
            for w, wlinks in self.lookahead.items():
                if w in direct and f in wlinks:
                    reach.add(f)
                    break
        return reach

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PeerState(node={self.node}, id={self.identifier:.4f}, "
            f"links={len(self.table.all_links())}, friends={len(self.neighborhood)})"
        )
