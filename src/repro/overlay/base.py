"""Common overlay contract.

:class:`RoutingTable` is the per-peer state every overlay maintains
(short-range ring links plus bounded long-range links, with an incoming
cap). :class:`OverlayNetwork` is the network-wide object the experiment
harness consumes: identifiers, link sets, and routing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.idspace.space import ring_distance
from repro.overlay.ring import RingIndex
from repro.util.exceptions import ConfigurationError

__all__ = ["RoutingTable", "OverlayNetwork"]


class _LinkSet(set):
    """Long-link set that marks the owning table written: its cached link
    view goes stale, and so does its latest row of a build's link log.

    Every overlay (SELECT's gossip, the baselines, recovery, stabilize)
    mutates ``table.long_links`` directly with plain set operations, so the
    dirty flag has to live on the set itself — routing the invalidation
    through ``add_long``/``drop_long`` alone would leave the cache stale.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "RoutingTable", iterable=()):
        super().__init__(iterable)
        self._table = table

    def add(self, value):
        self._table._touch()
        set.add(self, value)

    def discard(self, value):
        self._table._touch()
        set.discard(self, value)

    def remove(self, value):
        self._table._touch()
        set.remove(self, value)

    def pop(self):
        self._table._touch()
        return set.pop(self)

    def clear(self):
        self._table._touch()
        set.clear(self)

    def update(self, *others):
        self._table._touch()
        set.update(self, *others)

    def difference_update(self, *others):
        self._table._touch()
        set.difference_update(self, *others)

    def intersection_update(self, *others):
        self._table._touch()
        set.intersection_update(self, *others)

    def symmetric_difference_update(self, other):
        self._table._touch()
        set.symmetric_difference_update(self, other)

    def __ior__(self, other):
        self._table._touch()
        return set.__ior__(self, other)

    def __iand__(self, other):
        self._table._touch()
        return set.__iand__(self, other)

    def __isub__(self, other):
        self._table._touch()
        return set.__isub__(self, other)

    def __ixor__(self, other):
        self._table._touch()
        return set.__ixor__(self, other)

    def __reduce__(self):  # pragma: no cover - pickling support
        return (set, (set(self),))


class RoutingTable:
    """Per-peer link state: 2 short-range + up to ``k`` long-range links.

    Mirrors the paper's Table I variable ``R_p``. Long links are outgoing;
    the symmetric *incoming* budget (the paper's ``K`` incoming cap) is
    enforced by the overlay that builds the tables, via
    :meth:`OverlayNetwork.try_accept_incoming`, whose ledger makes an
    admitted link a connection that routes carry both ways.

    The combined link set is cached: :meth:`link_view` returns a frozenset
    that is rebuilt lazily only after a mutation (long-link add/drop or a
    short-range reassignment). Routing reads links orders of magnitude
    more often than gossip changes them, so the hot paths index this view
    instead of re-materializing a set per call.

    Short-range links live in shared *columns*: the owning overlay passes
    ``columns=(pred_col, succ_col, written_col, epochs)`` and this table
    becomes a view over its slot, so ring maintenance can rewrite the whole
    network's predecessors/successors as two array stores plus one bump
    of ``epochs[0]`` (after which each table lazily re-checks its cached
    view against its own slot) instead of 2n property writes. Every write
    to a table sets its ``written_col`` slot (cleared only by the build's
    exchange phase when it logs the table's links) and bumps
    ``epochs[1]``, so the pair is a version token for "any link of any
    table": the router's index is keyed on it. A table constructed
    without columns owns a private one-slot column block — same code
    path, no branching.
    """

    __slots__ = (
        "owner",
        "_slot",
        "_pred_col",
        "_succ_col",
        "_written_col",
        "_epochs",
        "_seen_epoch",
        "successors",
        "_long_links",
        "max_long",
        "_dirty",
        "_view",
        "_ring",
    )

    def __init__(self, owner: int, max_long: int, columns=None):
        if max_long < 0:
            raise ConfigurationError(f"max_long must be non-negative, got {max_long}")
        self.owner = owner
        if columns is None:
            self._pred_col = np.full(1, -1, dtype=np.int64)
            self._succ_col = np.full(1, -1, dtype=np.int64)
            self._written_col = np.ones(1, dtype=bool)
            self._epochs = [0, 0]
            self._slot = 0
        else:
            self._pred_col, self._succ_col, self._written_col, self._epochs = columns
            self._slot = owner
        self._seen_epoch = self._epochs[0]
        #: ordered successor list (immediate successor first, then backups).
        #: Maintenance/repair state only: the backups are *not* routing
        #: links, so they are excluded from :meth:`all_links` and change
        #: nothing on the default (fault-free) paths.
        self.successors: list[int] = []
        self._long_links: _LinkSet = _LinkSet(self)
        self.max_long = max_long
        self._dirty = True
        self._view: frozenset[int] = frozenset()
        #: the ``(pred, succ)`` pair ``_view`` was built from.
        self._ring: tuple[int, int] = (-1, -1)

    # -- cached combined view ----------------------------------------------

    def _touch(self) -> None:
        """A link of this table was written: its view and the epoch go stale."""
        self._dirty = True
        self._written_col[self._slot] = True
        self._epochs[1] += 1

    @property
    def predecessor(self) -> "int | None":
        value = self._pred_col[self._slot]
        return int(value) if value >= 0 else None

    @predecessor.setter
    def predecessor(self, value: "int | None") -> None:
        self._pred_col[self._slot] = -1 if value is None else int(value)
        self._touch()

    @property
    def successor(self) -> "int | None":
        value = self._succ_col[self._slot]
        return int(value) if value >= 0 else None

    @successor.setter
    def successor(self, value: "int | None") -> None:
        self._succ_col[self._slot] = -1 if value is None else int(value)
        self._touch()

    @property
    def long_links(self) -> set:
        return self._long_links

    @long_links.setter
    def long_links(self, value) -> None:
        # Wholesale rebinding (``table.long_links = {...}``) re-wraps the
        # new contents so later in-place mutations keep invalidating.
        self._long_links = _LinkSet(self, value)
        self._touch()

    def link_view(self) -> frozenset:
        """Cached frozenset of every outgoing link, excluding the owner.

        Identical contents to :meth:`all_links`. The object is replaced
        only when the contents may have changed — a long-link mutation, or
        a ring epoch bump after which this table's own ``(pred, succ)``
        differ from the pair the view was built from. Callers must treat it
        as immutable (it is shared between calls). A build never calls it:
        its exchange phase logs the links it folds as rows of
        :class:`~repro.core.columns.EdgeColumns`.
        """
        epoch = self._epochs[0]
        if self._dirty or self._seen_epoch != epoch:
            ring = (int(self._pred_col[self._slot]), int(self._succ_col[self._slot]))
            if self._dirty or ring != self._ring:
                out = set(self._long_links)
                out.update(w for w in ring if w >= 0)
                out.discard(self.owner)
                self._view = frozenset(out)
                self._ring = ring
                self._dirty = False
            self._seen_epoch = epoch
        return self._view

    def all_links(self) -> set:
        """Every outgoing link (short + long), excluding the owner.

        Returns a fresh mutable copy; hot paths use :meth:`link_view`.
        """
        return set(self.link_view())

    def add_long(self, peer: int) -> bool:
        """Add a long link if budget allows; True on success."""
        if peer == self.owner:
            return False
        if peer in self._long_links:
            return True
        if len(self._long_links) >= self.max_long:
            return False
        self._long_links.add(peer)
        return True

    def drop_long(self, peer: int) -> None:
        """Remove a long link if present."""
        self._long_links.discard(peer)

    def __contains__(self, peer: int) -> bool:
        return peer in self.link_view()


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
        #: ring state as columns (-1 = unset); RoutingTables are views over
        #: their slot, and a ring refresh is two array stores + one bump
        #: of the shared ``[ring refreshes, table writes]`` epochs.
        self.ring_pred = np.full(n, -1, dtype=np.int64)
        self.ring_succ = np.full(n, -1, dtype=np.int64)
        #: per table: a link was written since the exchange phase last
        #: logged its links (:func:`repro.core.rounds.exchange_phase`).
        self.links_written = np.ones(n, dtype=bool)
        self._epochs = [0, 0]
        ring_columns = (self.ring_pred, self.ring_succ, self.links_written, self._epochs)
        self.tables: list[RoutingTable] = [
            RoutingTable(v, self.k_links, columns=ring_columns) for v in range(n)
        ]
        #: the one admission ledger (the K-incoming cap, §III-D): the
        #: sources whose long link each peer admitted. Every write to it
        #: comes with a write to the source's table, so ``_epochs`` also
        #: versions it. ``incoming_count`` is its numpy mirror.
        self._incoming_sources: list[set[int]] = [set() for _ in range(n)]
        self.incoming_count = np.zeros(n, dtype=np.int64)
        self.iterations = 0
        self._built = False

    # -- construction ------------------------------------------------------

    @abstractmethod
    def build(self, seed=None) -> "OverlayNetwork":
        """Construct identifiers and links; returns ``self``."""

    def _refresh_ring(self, live: "np.ndarray | None" = None) -> None:
        """Short-range links from ids: two column stores + one epoch bump.

        The one writer of the whole ring from ids (a snapshot restore
        stores saved columns, then rewrites every table's long links, which
        stales every cached view); besides them, only single-pointer moves
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
        # Every table re-checks its cached link view against its slot.
        self._epochs[0] += 1

    def _mark_built(self) -> None:
        self._built = True

    def _check_built(self) -> None:
        if not self._built:
            raise ConfigurationError(f"{self.name}: call build() before using the overlay")

    # -- incoming-link admission (the paper's K-incoming cap) ---------------

    def try_accept_incoming(self, src: int, target: int, slack: int = 0) -> bool:
        """Admit ``src``'s long link on ``target``; True if it holds a slot.

        Refused once ``target`` holds ``k_links + slack`` sources. An
        admitted link is a connection ``target`` holds, so routes use it
        both ways (:class:`~repro.overlay.routing.GreedyRouter`). Symphony,
        Bayeux and the random overlay admit through this alone; SELECT
        adds bandwidth eviction on the same ledger. Vitis and OMen never
        admit, so their links stay one-way.
        """
        sources = self._incoming_sources[target]
        if src in sources:
            return True
        if len(sources) >= self.k_links + slack:
            return False
        sources.add(src)
        self.incoming_count[target] = len(sources)
        return True

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

    # -- read API used by metrics -------------------------------------------

    def links(self, u: int) -> set[int]:
        """Outgoing links (short + long) of peer ``u``.

        Returns the cached frozenset view — treat it as immutable. Use
        ``tables[u].all_links()`` for a mutable copy.
        """
        self._check_built()
        return self.tables[u].link_view()

    def connections(self, u: int) -> frozenset:
        """Every peer ``u`` can hand a message to: its outgoing links plus
        the sources whose links it admitted. Treat it as immutable: with
        nothing admitted it is the cached link view itself."""
        self._check_built()
        view, admitted = self.tables[u].link_view(), self._incoming_sources[u]
        return view | admitted if admitted else view

