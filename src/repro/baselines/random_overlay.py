"""Random overlay — the "no selection algorithm" control of Figure 7.

Uniform identifiers, ``k`` uniformly random long links per peer. No
social awareness, no distance structure beyond the ring. Dissemination
over it shows the unbounded fan-out/latency growth the paper contrasts
SELECT against.
"""

from __future__ import annotations

from repro.graphs.graph import SocialGraph
from repro.idspace.hashing import uniform_hashes
from repro.overlay.base import OverlayNetwork
from repro.util.rng import as_generator

__all__ = ["RandomOverlay"]


class RandomOverlay(OverlayNetwork):
    """Ring + uniformly random long links."""

    name = "Random"
    iterative = False
    default_lookahead = False

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        super().__init__(graph, k_links)

    def build(self, seed=None) -> "RandomOverlay":
        """Assign uniform ids and k uniformly random long links per peer."""
        rng = as_generator(seed)
        n = self.graph.num_nodes
        salt = int(rng.integers(2**31 - 1))
        self.ids[:] = uniform_hashes(range(n), salt=salt)
        self._refresh_ring()
        for v in range(n):
            table, links = self.tables[v], list(self.tables[v].long_links)
            attempts = 0
            while len(links) < self.k_links and attempts < self.k_links * 8:
                attempts += 1
                u = int(rng.integers(n))
                if u == v or u in links:
                    continue
                if self.try_accept_incoming(v, u):
                    table.add_long(u)
                    links.append(u)
        self.iterations = 0
        self._mark_built()
        return self
