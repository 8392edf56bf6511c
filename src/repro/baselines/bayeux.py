"""Bayeux overlay (Zhuang et al.; NOSSDAV 2001).

Bayeux builds per-topic dissemination trees over Tapestry, a
prefix-routing DHT: a topic's *rendezvous root* is the node whose
identifier is closest to the topic hash, subscribers send JOIN messages
that are routed to the root, and the union of those join paths is the
topic's spanning tree. A publish travels publisher → root → down the tree.

We emulate Tapestry's suffix/prefix routing structure on the unit ring
with deterministic geometric fingers: peer ``v`` links to the managers of
the points ``id_v + 2^-i``. Resolving one digit per hop in base-2 prefix
routing is exactly halving the remaining ring distance, so the emulation
preserves Tapestry's O(log N) path lengths and its obliviousness to the
social graph — the properties the paper's comparison exercises. No
lookahead (Tapestry routes by identifier only).
"""

from __future__ import annotations

from repro.graphs.graph import SocialGraph
from repro.idspace.hashing import uniform_hash, uniform_hashes
from repro.overlay.base import OverlayNetwork
from repro.overlay.routing import RouteResult
from repro.util.rng import as_generator

__all__ = ["BayeuxOverlay"]


class BayeuxOverlay(OverlayNetwork):
    """Prefix-routing DHT with per-topic rendezvous trees."""

    name = "Bayeux"
    iterative = False
    default_lookahead = False

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        super().__init__(graph, k_links)
        self._topic_salt = 0

    def build(self, seed=None) -> "BayeuxOverlay":
        """Assign uniform ids and deterministic prefix-routing fingers."""
        rng = as_generator(seed)
        n = self.graph.num_nodes
        salt = int(rng.integers(2**31 - 1))
        self._topic_salt = int(rng.integers(2**31 - 1))
        self.ids[:] = uniform_hashes(range(n), salt=salt)
        self._refresh_ring()
        self._build_fingers()
        self.iterations = 0
        self._mark_built()
        return self

    def _build_fingers(self) -> None:
        """Geometric finger table: one link per resolved routing digit."""
        n = self.graph.num_nodes
        for v in range(n):
            table = self.tables[v]
            for i in range(1, self.k_links + 1):
                point = (self.ids[v] + 2.0**-i) % 1.0
                manager = self._ring_index.successor_of(point)
                if manager != v:
                    # Tapestry neighbor tables are not degree-capped per
                    # incoming side: the finger stays either way, and only
                    # an admitted one is also routable back.
                    self.try_accept_incoming(v, manager)
                    table.add_long(manager)

    # -- rendezvous machinery -------------------------------------------------

    def rendezvous_root(self, topic: int) -> int:
        """Node managing the topic hash (the tree root for ``topic``)."""
        self._check_built()
        return self._ring_index.successor_of(uniform_hash(int(topic), salt=self._topic_salt))

    def disseminate(self, publisher, subscribers, router, online=None) -> dict:
        """Publisher → rendezvous root → down the subscriber join paths.

        A subscriber's delivery path is the publisher-to-root route
        followed by the reverse of the subscriber's JOIN route (join
        messages travel subscriber → root; data flows back down the same
        edges).
        """
        root = self.rendezvous_root(publisher)
        up = router.route(publisher, root, online=online)
        results: dict[int, RouteResult] = {}
        for s in subscribers:
            if not up.delivered:
                results[s] = RouteResult(path=list(up.path), delivered=False)
                continue
            join = router.route(s, root, online=online)
            if not join.delivered:
                results[s] = RouteResult(path=list(up.path), delivered=False)
                continue
            down = list(reversed(join.path))  # root -> subscriber
            full = list(up.path) + down[1:]
            results[s] = RouteResult(path=full, delivered=True)
        return results
