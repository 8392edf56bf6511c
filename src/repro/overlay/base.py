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


class RoutingTable:
    """Per-peer link state: 2 short-range + up to ``k`` long-range links.

    Mirrors the paper's Table I variable ``R_p``. Long links are outgoing;
    the symmetric *incoming* budget (the paper's ``K`` incoming cap) is
    enforced by the overlay that builds the tables, via
    :meth:`OverlayNetwork.try_accept_incoming`, whose ledger makes an
    admitted link a connection that routes carry both ways.

    ``long_links`` is a frozenset that only the table writes:
    :meth:`add_long`, :meth:`drop_long` and the setter each store a new
    one. The ``max_long`` budget is the callers' check, made before
    ``try_connect`` charges a slot on the target.

    Short-range links live in shared *columns*: the owning overlay passes
    ``columns=(pred_col, succ_col, written_col, version)`` and this table
    becomes a view over its slot, so ring maintenance can rewrite the whole
    network's predecessors/successors as two array stores plus one bump
    of ``version[0]`` instead of 2n property writes. Every write to a
    table, changed or not, sets its ``written_col`` slot (cleared only by
    the build's exchange phase when it logs the table's links) and bumps
    ``version[0]``, the overlay's one link version: the router's index is
    keyed on it. A table constructed without columns owns a private
    one-slot column block — same code path, no branching.
    """

    __slots__ = (
        "owner",
        "_slot",
        "_pred_col",
        "_succ_col",
        "_written_col",
        "_version",
        "successors",
        "_long_links",
        "max_long",
    )

    def __init__(self, owner: int, max_long: int, columns=None):
        if max_long < 0:
            raise ConfigurationError(f"max_long must be non-negative, got {max_long}")
        self.owner = owner
        if columns is None:
            self._pred_col = np.full(1, -1, dtype=np.int64)
            self._succ_col = np.full(1, -1, dtype=np.int64)
            self._written_col = np.ones(1, dtype=bool)
            self._version = [0]
            self._slot = 0
        else:
            self._pred_col, self._succ_col, self._written_col, self._version = columns
            self._slot = owner
        #: ordered successor list (immediate successor first, then backups).
        #: Maintenance/repair state only: the backups are *not* routing
        #: links, so they are excluded from :meth:`all_links` and change
        #: nothing on the default (fault-free) paths.
        self.successors: list[int] = []
        self._long_links: frozenset = frozenset()
        self.max_long = max_long

    def _touch(self) -> None:
        """A link of this table was written: mark it and move the version."""
        self._written_col[self._slot] = True
        self._version[0] += 1

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
    def long_links(self) -> frozenset:
        return self._long_links

    @long_links.setter
    def long_links(self, value) -> None:
        self._long_links = frozenset(value)
        self._touch()

    def all_links(self) -> set:
        """Every outgoing link (short + long), excluding the owner, as a fresh set."""
        out = set(self._long_links)
        out.update(int(w) for w in (self._pred_col[self._slot], self._succ_col[self._slot]) if w >= 0)
        out.discard(self.owner)
        return out

    def add_long(self, peer: int) -> bool:
        """Link to ``peer``; False, and nothing written, for the owner."""
        if peer == self.owner:
            return False
        self._long_links = self._long_links | {peer}
        self._touch()
        return True

    def drop_long(self, peer: int) -> None:
        """Remove a long link if present."""
        self._long_links = self._long_links - {peer}
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
        #: ring state as columns (-1 = unset); RoutingTables are views over
        #: their slot, and a ring refresh is two array stores + one bump
        #: of the link version.
        self.ring_pred = np.full(n, -1, dtype=np.int64)
        self.ring_succ = np.full(n, -1, dtype=np.int64)
        #: per table: a link was written since the exchange phase last
        #: logged its links (:func:`repro.core.rounds.exchange_phase`).
        self.links_written = np.ones(n, dtype=bool)
        #: one counter that every ring refresh and table write bumps.
        self._link_version = [0]
        ring_columns = (self.ring_pred, self.ring_succ, self.links_written, self._link_version)
        self.tables: list[RoutingTable] = [
            RoutingTable(v, self.k_links, columns=ring_columns) for v in range(n)
        ]
        #: the one admission ledger (the K-incoming cap, §III-D): the
        #: sources whose long link each peer admitted. Every write to it
        #: comes with a write to the source's table, so ``_link_version``
        #: also versions it. ``incoming_count`` is its numpy mirror.
        self._incoming_sources: list[set[int]] = [set() for _ in range(n)]
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
        stores saved columns, then rewrites every table's long links, which
        moves the version); besides them, only single-pointer moves
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

    def connections(self, u: int) -> set:
        """Every peer ``u`` can hand a message to, as a fresh set: its
        outgoing links plus the sources whose links it admitted."""
        self._check_built()
        links = self.tables[u].all_links()
        links |= self._incoming_sources[u]
        return links
