"""Common overlay contract.

:class:`RoutingTable` is the per-peer state every overlay maintains
(short-range ring links plus bounded long-range links, with an incoming
cap), a view over its row of the overlay's :class:`LinkColumns`.
:class:`OverlayNetwork` is the network-wide object the experiment
harness consumes: identifiers, link columns, the admission ledger, and
routing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.idspace.space import ring_distance
from repro.overlay.ring import RingIndex
from repro.util.exceptions import ConfigurationError

__all__ = ["INCOMING_SLACK", "LinkColumns", "RoutingTable", "OverlayNetwork"]


#: admission slots beyond ``k_links`` that a recovery replacement (§III-F)
#: may take, so the admission ledger is ``k_links + INCOMING_SLACK`` wide.
INCOMING_SLACK = 2


def _entries(row: np.ndarray) -> list:
    """A padded row's entries: everything before its first ``-1``."""
    values = row.tolist()
    padding = values.count(-1)
    if padding:
        del values[-padding:]
    return values


def _store(row: np.ndarray, values: list) -> None:
    """Write ``values`` into ``row`` and pad the rest with ``-1``."""
    if len(values) > len(row):
        raise ConfigurationError(f"{len(values)} links do not fit a row of {len(row)}")
    row[:] = values + [-1] * (len(row) - len(values))


class LinkColumns:
    """The routing tables of ``n`` peers as columns, a row per peer.

    Ring pointers are int64 (``-1`` = unset); ``long_links`` (``max_long``
    wide) and ``successors`` (as wide as the longest list written) are
    int32 rows of entries in write order, then ``-1`` padding. ``written``
    flags the rows written since the build's exchange logged them, and
    ``version`` is the one-item link version every write and ring refresh
    bumps.
    """

    __slots__ = ("ring_pred", "ring_succ", "long_links", "successors", "written", "version")

    def __init__(self, n: int, width: int):
        self.ring_pred = np.full(n, -1, dtype=np.int64)
        self.ring_succ = np.full(n, -1, dtype=np.int64)
        self.long_links = np.full((n, width), -1, dtype=np.int32)
        self.successors = np.full((n, 0), -1, dtype=np.int32)
        self.written = np.ones(n, dtype=bool)
        self.version = [0]


class RoutingTable:
    """Per-peer link state: 2 short-range + up to ``max_long`` long-range links.

    Mirrors the paper's Table I variable ``R_p``. Long links are outgoing;
    the symmetric *incoming* budget (the paper's ``K`` incoming cap) is
    enforced by the overlay that builds the tables, via
    :meth:`OverlayNetwork.try_accept_incoming`, whose ledger makes an
    admitted link a connection that routes carry both ways.

    A table is a view over row ``owner`` of its overlay's
    :class:`LinkColumns` (a table made without one owns a one-row block),
    so whole-network readers take the columns as arrays. ``long_links``
    reads the row as a tuple; :meth:`add_long`, :meth:`drop_long` and the
    setter write it. A row holds at most ``max_long`` links: callers check
    the budget before ``try_connect`` charges a slot, and a write past it
    raises. Every write, changed or not, flags the row ``written`` and
    bumps the link version, which the router's index is keyed on.
    """

    __slots__ = ("owner", "_slot", "_cols")

    def __init__(self, owner: int, max_long: int, columns: "LinkColumns | None" = None):
        if max_long < 0:
            raise ConfigurationError(f"max_long must be non-negative, got {max_long}")
        self.owner = owner
        if columns is None:
            self._cols, self._slot = LinkColumns(1, max_long), 0
        else:
            self._cols, self._slot = columns, owner

    @property
    def max_long(self) -> int:
        """The long-link budget: the width of the row."""
        return self._cols.long_links.shape[1]

    def _touch(self) -> None:
        """A link of this table was written: mark it and move the version."""
        self._cols.written[self._slot] = True
        self._cols.version[0] += 1

    @property
    def predecessor(self) -> "int | None":
        value = self._cols.ring_pred[self._slot]
        return int(value) if value >= 0 else None

    @predecessor.setter
    def predecessor(self, value: "int | None") -> None:
        self._cols.ring_pred[self._slot] = -1 if value is None else int(value)
        self._touch()

    @property
    def successor(self) -> "int | None":
        value = self._cols.ring_succ[self._slot]
        return int(value) if value >= 0 else None

    @successor.setter
    def successor(self, value: "int | None") -> None:
        self._cols.ring_succ[self._slot] = -1 if value is None else int(value)
        self._touch()

    @property
    def successors(self) -> tuple:
        """Ordered successor list (immediate successor first, then backups).

        Maintenance/repair state only: the backups are *not* routing
        links, so they are excluded from :meth:`all_links`, and writing
        the list moves no link version.
        """
        return tuple(_entries(self._cols.successors[self._slot]))

    @successors.setter
    def successors(self, value) -> None:
        values, cols = [int(w) for w in value], self._cols
        width = cols.successors.shape[1]
        if len(values) > width:
            cols.successors = np.pad(
                cols.successors, ((0, 0), (0, len(values) - width)), constant_values=-1
            )
        _store(cols.successors[self._slot], values)

    @property
    def long_links(self) -> tuple:
        return tuple(_entries(self._cols.long_links[self._slot]))

    @long_links.setter
    def long_links(self, value) -> None:
        _store(self._cols.long_links[self._slot], list(dict.fromkeys(value)))
        self._touch()

    def all_links(self) -> set:
        """Every outgoing link (short + long), excluding the owner, as a fresh set."""
        cols, slot = self._cols, self._slot
        out = set(_entries(cols.long_links[slot]))
        out.update(int(w) for w in (cols.ring_pred[slot], cols.ring_succ[slot]) if w >= 0)
        out.discard(self.owner)
        return out

    def add_long(self, peer: int) -> bool:
        """Link to ``peer``; False, and nothing written, for the owner."""
        if peer == self.owner:
            return False
        row = self._cols.long_links[self._slot]
        links = _entries(row)
        if peer not in links:
            if len(links) == len(row):
                raise ConfigurationError(f"peer {self.owner} holds its {len(row)} long links")
            row[len(links)] = peer
        self._touch()
        return True

    def drop_long(self, peer: int) -> None:
        """Remove a long link if present."""
        row = self._cols.long_links[self._slot]
        links = _entries(row)
        if peer in links:
            links.remove(peer)
            _store(row, links)
        self._touch()


class OverlayNetwork(ABC):
    """A fully built P2P overlay over a social graph.

    Subclasses write :attr:`ids` (peer positions on the unit ring) in
    place and follow with :meth:`_refresh_ring`, fill the long links of
    :attr:`tables` (per-peer routing tables) in :meth:`build`, and record
    how many superstep iterations construction took in :attr:`iterations`
    (Figure 5's metric; 0 for non-iterative overlays).
    """

    #: human-readable system name used in reports ("SELECT", "Symphony", ...)
    name: str = "overlay"
    #: whether construction is iterative (included in Figure 5)
    iterative: bool = False
    #: whether routing uses a Symphony-style lookahead set by default
    default_lookahead: bool = True

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        self.graph = graph
        n = graph.num_nodes
        # The paper settles on log2(N) direct connections per peer (§IV-C).
        self.k_links = int(k_links) if k_links is not None else max(2, int(np.ceil(np.log2(max(n, 2)))))
        #: written in place only, then :meth:`_refresh_ring`: the ring
        #: index (and SELECT's peer columns) hold this array.
        self.ids = np.zeros(n, dtype=np.float64)
        self._ring_index = RingIndex(self.ids)
        #: every table's links as columns; the tables are views over their
        #: rows. The fixed-width ones are also attributes here, never
        #: rebound (``successors`` can widen: read it through the block).
        self.link_columns = cols = LinkColumns(n, self.k_links)
        self.ring_pred, self.ring_succ = cols.ring_pred, cols.ring_succ
        self.long_links = cols.long_links
        #: per table: a link was written since the exchange phase last
        #: logged its links (:func:`repro.core.rounds.exchange_phase`).
        self.links_written = cols.written
        #: one counter that every ring refresh and table write bumps.
        self._link_version = cols.version
        self.tables: list[RoutingTable] = [RoutingTable(v, self.k_links, cols) for v in range(n)]
        #: the one admission ledger (the K-incoming cap, §III-D): row ``v``
        #: holds the sources ``v`` admitted, then ``-1`` padding, and
        #: ``incoming_count[v]`` is its fill. Every write to it comes with a
        #: write to the source's table, so ``_link_version`` versions it.
        self.incoming_sources = np.full((n, self.k_links + INCOMING_SLACK), -1, dtype=np.int32)
        self.incoming_count = np.zeros(n, dtype=np.int64)
        self.iterations = 0
        self._built = False

    # -- construction ------------------------------------------------------

    @abstractmethod
    def build(self, seed=None) -> "OverlayNetwork":
        """Construct identifiers and links; returns ``self``."""

    def _refresh_ring(self, live: "np.ndarray | None" = None) -> None:
        """Short-range links from ids: two column stores + one version bump.

        The one writer of the whole ring from ids (a snapshot restore
        stores saved link columns whole and moves the version itself);
        besides them, only single-pointer moves
        (the stabilizer, restoring saved tables) go through the table
        setters. ``live`` (a boolean mask) restricts the
        ring to those peers — the oracle re-stitch under churn — and
        leaves every other slot as it is; fewer than two live peers
        change nothing.
        """
        if live is None:
            self._ring_index.invalidate()
            pred, succ = self._ring_index.pred_succ()
            self.ring_pred[:] = pred
            self.ring_succ[:] = succ
        else:
            nodes = np.flatnonzero(live)
            if nodes.size < 2:
                return
            pred, succ = RingIndex(self.ids[nodes]).pred_succ()
            self.ring_pred[nodes] = nodes[pred]
            self.ring_succ[nodes] = nodes[succ]
        self._link_version[0] += 1

    def _mark_built(self) -> None:
        self._built = True

    def _check_built(self) -> None:
        if not self._built:
            raise ConfigurationError(f"{self.name}: call build() before using the overlay")

    # -- incoming-link admission (the paper's K-incoming cap) ---------------

    def try_accept_incoming(self, src: int, target: int, slack: int = 0) -> bool:
        """Admit ``src``'s long link on ``target``; True if it holds a slot.

        Refused once ``target`` holds ``k_links + slack`` sources (``slack``
        at most :data:`INCOMING_SLACK`). An admitted link is a connection
        ``target`` holds, so routes use it both ways
        (:class:`~repro.overlay.routing.GreedyRouter`). Symphony, Bayeux
        and the random overlay admit through this alone; SELECT adds
        bandwidth eviction on the same ledger. Vitis and OMen never
        admit, so their links stay one-way.
        """
        if not 0 <= slack <= INCOMING_SLACK:
            raise ConfigurationError(f"slack must be in [0, {INCOMING_SLACK}], got {slack}")
        row = self.incoming_sources[target]
        sources = _entries(row)
        if src in sources:
            return True
        if len(sources) >= self.k_links + slack:
            return False
        row[len(sources)] = src
        self.incoming_count[target] = len(sources) + 1
        return True

    def release_incoming(self, src: int, target: int) -> None:
        """Free ``src``'s slot on ``target``, if it holds one."""
        row = self.incoming_sources[target]
        sources = _entries(row)
        if src in sources:
            sources.remove(src)
            _store(row, sources)
            self.incoming_count[target] = len(sources)

    def admitted(self, target: int) -> tuple:
        """The sources whose long links ``target`` admitted."""
        return tuple(_entries(self.incoming_sources[target]))

    # -- routing / dissemination --------------------------------------------

    def make_router(self, lookahead: "bool | None" = None):
        """Router over this overlay (subclass hook for other schemes)."""
        from repro.overlay.routing import GreedyRouter

        self._check_built()
        look = self.default_lookahead if lookahead is None else lookahead
        return GreedyRouter(self, lookahead=look)

    def disseminate(self, publisher: int, subscribers, router, online=None) -> dict:
        """Routes from ``publisher`` to each subscriber.

        The default is DHT-style unicast: one overlay route per subscriber
        (what a pub/sub system built straight over Symphony does).
        Rendezvous-tree systems (Bayeux, Vitis) and topic-connected
        overlays (OMen) override this with their own dissemination shape.
        Returns ``{subscriber: RouteResult}``.
        """
        ids = self.ids
        pub_id = float(ids[publisher])
        # Ring distance, not |id difference|: subscribers just across the
        # 0/1 wrap are ring-adjacent to the publisher, and sorting them as
        # maximally far skews tree-merge order (and hence relay counts)
        # near the seam.
        ordered = sorted(
            subscribers,
            key=lambda s: (ring_distance(float(ids[s]), pub_id), s),
        )
        return {s: router.route(publisher, s, online=online) for s in ordered}

    def advertised(self, u: int, v: int) -> "list[int] | None":
        """The links ``v`` advertised to ``u``: the peers ``u`` knows ``v``
        links to, or None when ``u`` holds no copy of ``v``'s table.

        The router's ``advertised`` clause reads it at a route's source.
        None here: these overlays exchange no tables, so they route by
        ``direct``, ``lookahead`` and ``greedy`` alone.
        """
        return None

    # -- read API used by metrics -------------------------------------------

    def connections(self) -> "tuple[np.ndarray, np.ndarray]":
        """Every peer's connections as one CSR ``(indptr, indices)``.

        Row ``u`` lists, ascending and once each, the peers ``u`` can hand
        a message to: its long links, the sources whose links it admitted
        and its ring neighbours, ``u`` itself left out. ``indices`` is
        int32, ``indptr`` int64.
        """
        self._check_built()
        n = len(self.ids)
        ring = (self.ring_pred[:, None], self.ring_succ[:, None])
        columns = (self.long_links, self.incoming_sources, *ring)
        rows = np.concatenate(columns, axis=1, dtype=np.int32, casting="same_kind")
        rows[rows == np.arange(n, dtype=np.int32)[:, None]] = -1
        rows.sort(axis=1)
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
        held = rows >= 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(held.sum(axis=1), out=indptr[1:])
        return indptr, rows[held]
