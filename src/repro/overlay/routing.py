"""Greedy ring routing over ``R_p`` and, with lookahead, ``L_p``.

A peer's *connections* are its outgoing links plus the incoming ones it
admitted under the K-incoming cap: an admitted link is a connection the
target holds, so it carries traffic both ways. A link its target never
admitted (Vitis and OMen admit none) stays one-way.

A message at peer ``u`` headed for peer ``t``:

1. goes straight to ``t`` if ``t`` is one of ``u``'s connections
   (``direct``);
2. otherwise to the connection ``w`` that owns the identifier closest to
   ``t``'s on the ring among everything ``u`` can see: each unvisited
   connection's own identifier (``greedy``) and, with lookahead, the
   identifiers of that connection's connections (``lookahead``) —
   Symphony's 1-lookahead, greedy over the neighbours' neighbours. ``t``
   among ``w``'s connections is the distance-0 case, which is the 2-hop
   delivery SELECT's §III-E relies on;
3. but at the route's source, when neither clause above reaches ``t``
   within two hops and ``u`` holds ``t``'s table
   (:meth:`~repro.overlay.base.OverlayNetwork.advertised`: SELECT friends
   exchange ``R_p``, the baselines advertise nothing), to the ``w`` of a
   lookahead candidate ``(x, w)`` with ``x`` in that table
   (``advertised``), preferring ``w`` and ``x`` that are ``u``'s friends,
   then ``x`` nearest ``t``. ``w``'s lookahead then sees ``t`` through
   ``x``, so the route takes three hops and carries no state.

Because short-range ring links always exist, greedy progress is guaranteed
on a fully online network; with churn, routing detours around offline
peers and reports failure when no live progress is possible.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.idspace.space import ring_distance
from repro.overlay.ring import RingIndex

__all__ = ["HopDecision", "RouteResult", "GreedyRouter"]


def _holds(ascending: list, value: int) -> bool:
    """Whether the ascending list holds ``value`` (one bisection)."""
    at = bisect_left(ascending, value)
    return at < len(ascending) and ascending[at] == value


@dataclass(frozen=True)
class HopDecision:
    """One recorded routing decision (telemetry only).

    ``link`` classifies the chosen edge on the sender's table: ``short``
    (successor/predecessor ring link), ``long`` (LSH-selected long
    link), ``incoming`` (a long link of the next hop's that the sender
    admitted), ``successor`` (successor-list backup — only routable after
    a stabilizer promotion), or ``other``. ``rule`` is which clause of the
    greedy router fired: ``direct``, ``lookahead``, ``greedy``, or
    ``advertised`` (the source steering by its friend's table).
    ``ring_distance`` is the remaining distance from the chosen next hop
    to the target identifier. A traced route's spans carry all three as
    ``attrs`` (``link``, ``rule``, ``distance``).
    """

    src: int
    dst: int
    link: str
    rule: str
    ring_distance: float


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one routing attempt."""

    path: list[int]  # nodes visited, src first; dst last iff delivered
    delivered: bool
    #: per-hop decision records; populated only when the router was asked
    #: to trace (``record_decisions``), None on the default fast path.
    decisions: "tuple[HopDecision, ...] | None" = None

    @property
    def hops(self) -> int:
        """Number of overlay hops actually taken."""
        return len(self.path) - 1


class GreedyRouter:
    """Routes over an :class:`~repro.overlay.base.OverlayNetwork`.

    Every peer's connections are one int32 CSR
    (:meth:`~repro.overlay.base.OverlayNetwork.connections`), each row
    sorted, so the ``direct`` clause bisects the peer's slice. The
    candidates of a peer — ``(x, w)``: identifier owner ``x`` seen
    through connection ``w``, ``x == w`` for the connection itself — are
    kept as one ``int32`` column of ``rank(x) << shift | i``, ``i`` being
    ``w``'s position in the peer's row, sorted and built from the CSR the
    first time a route visits the peer. Rank order is identifier order, so
    the closest candidate to a target sits next to the target's rank and
    :meth:`_next_hop` finds it by bisection. Both
    are a pure function of the identifiers, tables and admission ledger;
    they are the one cache of link state, dropped whenever the overlay's
    link version moves (every ledger write comes with a table write),
    never by age or size. :meth:`_advertised_hop` keeps one slot beside
    them, for the last source it ran for: that peer's friends and a byte
    per rank marking its candidates, dropped with the columns.
    """

    def __init__(self, overlay, lookahead: bool = True, max_hops: int | None = None):
        self.overlay = overlay
        self.lookahead = lookahead
        n = overlay.graph.num_nodes
        # Generous guard: greedy ring routing is O(n) worst case on a bare
        # ring, so cap at n + slack rather than the O(log n) expectation.
        self.max_hops = int(max_hops) if max_hops is not None else n + 16
        #: when True, every hop's decision (link type, rule, remaining ring
        #: distance) is recorded on the RouteResult for the span tracer.
        #: Off by default: the fast path pays only this flag check.
        self.record_decisions = False
        #: the overlay link version the index below was built under.
        self._version = -1
        self._rank: list[int] = []  # node -> position in identifier order
        self._order: list[int] = []  # position -> node
        self._sorted_ids: list[float] = []  # position -> identifier
        #: the connections CSR: row pointers and the int32 rows.
        self._indptr: list[int] = []
        self._indices = array("i")
        #: bits of a candidate that hold ``i`` (the widest row's bit length).
        self._shift = 0
        self._columns: "list[array | None]" = []
        #: the ``advertised`` clause's last source and its friends, ascending,
        #: and ``sight[r]`` = 1 iff the source's candidates hold rank ``r``:
        #: a publish routes from one source to each of its subscribers.
        self._source: "tuple[int, list[int]]" = (-1, [])
        self._sight = bytearray()

    def route(
        self,
        src: int,
        dst: int,
        online: "np.ndarray | None" = None,
        detect_failures: bool = True,
    ) -> RouteResult:
        """Route from ``src`` to ``dst``; ``online`` masks live peers.

        ``detect_failures`` models *liveness knowledge*: when True, peers
        know which peers are up (they ping their links and hear of the
        rest through them — what a repair mechanism buys) and route around
        dead ones; when False, peers forward blindly on stale tables and
        the message is lost the moment it is handed to an offline peer.
        """
        return self._route(src, dst, online, detect_failures)

    def _route(self, src: int, dst: int, online, detect_failures: bool) -> RouteResult:
        """:meth:`route`, unwrapped: :meth:`route_many` calls this, so a tracer
        that rebinds ``route`` counts a batch's routes once, on the batch."""
        if src == dst:
            return RouteResult(path=[src], delivered=True)
        if online is not None and not (online[src] and online[dst]):
            return RouteResult(path=[src], delivered=False)
        if self.overlay._link_version[0] != self._version:
            self._reset_index()
        indptr, indices = self._indptr, self._indices
        known_live = online if detect_failures else None
        blind = online is not None and not detect_failures
        path = [src]
        visited = {src}
        current = src
        delivered = False
        decisions: "list[HopDecision] | None" = [] if self.record_decisions else None
        for _ in range(self.max_hops):
            hi = indptr[current + 1]
            at = bisect_left(indices, dst, indptr[current], hi)
            if at < hi and indices[at] == dst:
                nxt, rule = dst, "direct"
            else:
                hop = self._next_hop(current, dst, visited, known_live)
                rule = None
                if current == src and self.lookahead and (hop is None or hop[1] != dst):
                    table = self.overlay.advertised(src, dst)
                    if table is not None:
                        via = self._advertised_hop(src, dst, table, known_live)
                        if via is not None:
                            hop, rule = via, "advertised"
                if hop is None:
                    break
                nxt, seen = hop
                if rule is None:
                    rule = "greedy" if seen == nxt else "lookahead"
            if decisions is not None:
                decisions.append(self._decision(current, nxt, rule, dst))
            path.append(nxt)
            if nxt == dst:
                delivered = True
                break
            if blind and not online[nxt]:
                break  # blind forward onto an offline peer: message lost
            visited.add(nxt)
            current = nxt
        return RouteResult(
            path=path,
            delivered=delivered,
            decisions=None if decisions is None else tuple(decisions),
        )

    # -- telemetry -----------------------------------------------------------

    def _decision(self, u: int, w: int, rule: str, dst: int) -> HopDecision:
        """Classify the chosen ``u -> w`` hop for the span tracer."""
        table = self.overlay.tables[u]
        if w == table.successor or w == table.predecessor:
            link = "short"
        elif w in table.long_links:
            link = "long"
        elif w in self.overlay.admitted(u):
            link = "incoming"
        elif w in table.successors:
            link = "successor"
        else:
            link = "other"
        ids = self.overlay.ids
        return HopDecision(
            src=u,
            dst=w,
            link=link,
            rule=rule,
            ring_distance=float(ring_distance(float(ids[w]), float(ids[dst]))),
        )

    # -- hop selection -------------------------------------------------------

    def _next_hop(self, u: int, dst: int, visited, online) -> "tuple[int, int] | None":
        """``(w, x)``: forward to connection ``w`` for the identifier of ``x``.

        The minimum of ``(ring_distance(id[x], id[dst]), x != w, w)`` over
        the candidates of ``u`` whose ``w`` and ``x`` are both unvisited
        and, when ``online`` is given, live. A visited ``x`` is behind the
        path and an offline one cannot take the message on, so steering
        toward either dead-ends under churn. None when no candidate is left.

        Two cursors walk outward from the target's rank, always taking the
        nearer entry, so distances come in non-decreasing order and the
        walk stops at the first one past the best.
        """
        packed = self._columns[u]
        if packed is None:
            packed = self._columns[u] = self._build_columns(u)
        shift, row, indices = self._shift, self._indptr[u], self._indices
        mask = (1 << shift) - 1
        order = self._order
        sorted_ids = self._sorted_ids
        target_rank = self._rank[dst]
        target_id = sorted_ids[target_rank]
        # Both cursors index ``packed`` directly: ``up`` starts at the first
        # entry at or past the target (as a negative index, so that running
        # off the top wraps to entry 0), ``down`` just below it.
        down = bisect_left(packed, target_rank << shift) - 1
        up = down + 1 - len(packed)
        d_up = d_down = -1.0
        best_d, best_far, best_w, best_x = 1.0, True, -1, -1
        while up <= down:
            if d_up < 0.0:
                d_up = abs(sorted_ids[packed[up] >> shift] - target_id)
                if d_up > 0.5:
                    d_up = 1.0 - d_up
            if d_down < 0.0:
                d_down = abs(sorted_ids[packed[down] >> shift] - target_id)
                if d_down > 0.5:
                    d_down = 1.0 - d_down
            if d_up <= d_down:
                k, d, up, d_up = up, d_up, up + 1, -1.0
            else:
                k, d, down, d_down = down, d_down, down - 1, -1.0
            if d > best_d:
                break
            e = packed[k]
            w = indices[row + (e & mask)]
            x = order[e >> shift]
            if w in visited or x in visited:
                continue
            if online is not None and not (online[w] and online[x]):
                continue
            far = x != w
            if d < best_d or (far, w) < (best_far, best_w):
                best_d, best_far, best_w, best_x = d, far, w, x
        return None if best_w < 0 else (best_w, best_x)

    def _advertised_hop(self, u: int, dst: int, table, online) -> "tuple[int, int] | None":
        """``(w, x)``: from the source ``u``, forward to ``w`` to reach ``dst``
        through ``x``, a peer in ``dst``'s advertised ``table``.

        None when a live connection of ``u`` holds ``dst`` (the lookahead
        reaches it in two hops) or no candidate qualifies. Otherwise the
        minimum of ``(how many of w, x are not u's friends,
        ring_distance(id[x], id[dst]), w)`` over the candidates ``(x, w)``
        of ``u`` with ``x`` in ``table``, ``x != w`` and, when ``online``
        is given, both live. ``w``'s own lookahead then sees ``dst``
        through ``x``: three hops, with no state carried along.
        """
        packed = self._columns[u]  # _next_hop built it for this hop
        shift, row, indices = self._shift, self._indptr[u], self._indices
        mask, end = (1 << shift) - 1, len(packed)
        rank, sorted_ids = self._rank, self._sorted_ids
        target = rank[dst]
        k = bisect_left(packed, target << shift)
        while k < end and packed[k] >> shift == target:
            if online is None or online[indices[row + (packed[k] & mask)]]:
                return None
            k += 1
        source, friends = self._source
        sight = self._sight
        if source != u:
            graph_indptr, graph_indices = self.overlay.graph.csr
            friends = graph_indices[graph_indptr[u] : graph_indptr[u + 1]].tolist()
            marks = np.frombuffer(sight, dtype=np.uint8)
            marks[:] = 0
            marks[np.frombuffer(packed, dtype=np.int32) >> shift] = 1
            self._source = (u, friends)
        target_id = sorted_ids[target]
        best, best_x = None, -1
        for x in table:
            at = rank[x]
            if not sight[at] or (online is not None and not online[x]):
                continue
            k = bisect_left(packed, at << shift)
            d = abs(sorted_ids[at] - target_id)
            if d > 0.5:
                d = 1.0 - d
            stranger_x = not _holds(friends, x)
            while k < end and packed[k] >> shift == at:
                w = indices[row + (packed[k] & mask)]
                k += 1
                if w == x or (online is not None and not online[w]):
                    continue
                key = (stranger_x + (not _holds(friends, w)), d, w)
                if best is None or key < best:
                    best, best_x = key, x
        return None if best is None else (best[2], best_x)

    def _build_columns(self, u: int) -> array:
        """Candidates of ``u`` as ``rank(x) << shift | i``, ascending, where
        ``i`` is the first hop ``w``'s position in ``u``'s connections row.

        ``w`` ranges over ``u``'s connections and, with lookahead, ``x``
        over ``w``'s (``L_p``). A row ascends, so ``(rank, i)`` order is
        ``(rank, w)`` order. A connection of ``u`` seen again through
        another is left out: it ties with its own entry on distance and
        loses on ``x != w``.
        """
        rank, shift = self._rank, self._shift
        indptr, indices = self._indptr, self._indices
        mine = indices[indptr[u] : indptr[u + 1]]
        keys = [rank[w] << shift | i for i, w in enumerate(mine)]
        if self.lookahead:
            skip = set(mine)
            skip.add(u)
            for i, w in enumerate(mine):
                theirs = indices[indptr[w] : indptr[w + 1]]
                keys += [rank[x] << shift | i for x in theirs if x not in skip]
        packed = np.array(keys, dtype=np.int32)
        packed.sort()
        # An array made from bytes is over-allocated; its copy is exact.
        return array("i", array("i", packed.tobytes()))

    def _reset_index(self) -> None:
        """Re-rank the identifiers, rebuild the connections CSR and drop
        every peer's columns."""
        self._version = self.overlay._link_version[0]
        ring = RingIndex(self.overlay.ids)  # the ring's own order: ties by node
        order = ring.order
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        self._rank = rank.tolist()
        self._order = order.tolist()
        self._sorted_ids = ring.sorted_ids.tolist()
        indptr, indices = self.overlay.connections()
        self._shift = int(np.diff(indptr).max(initial=0)).bit_length()
        if len(order) << self._shift > 2**31 - 1:
            raise OverflowError(f"{len(order)} peers and {self._shift}-bit row positions overflow int32")
        self._indptr, self._indices = indptr.tolist(), array("i", array("i", indices.tobytes()))
        self._columns = [None] * len(order)
        self._source, self._sight = (-1, []), bytearray(len(order))

    # -- batch helper ----------------------------------------------------------

    def route_many(
        self,
        pairs,
        online: "np.ndarray | None" = None,
        detect_failures: bool = True,
    ) -> list[RouteResult]:
        """Route a batch of ``(src, dst)`` pairs.

        Full parameter parity with :meth:`route` — ``detect_failures``
        selects blind-forward mode exactly as it does for single routes,
        and ``record_decisions`` tracing applies to every route of the
        batch.
        """
        route = self._route
        return [route(int(s), int(d), online, detect_failures) for s, d in pairs]
