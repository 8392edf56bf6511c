"""Symphony overlay (Manku, Bawa, Raghavan; USITS 2003).

Peers take uniform-hash identifiers on the unit ring. Each peer draws its
``k`` long links from the *harmonic* distribution: a link distance ``d``
is sampled with density ``p(d) = 1 / (d ln N)`` on ``[1/N, 1]``, which is
what gives Symphony its ``O(log^2 N / k)`` routing. We retain Symphony's
lookahead optimization (the paper's SELECT borrows exactly this ``L_p``
mechanism from Symphony).

Construction is non-iterative: links are drawn once from the ids, so the
system is excluded from the Figure 5 iteration comparison — matching the
paper, which omits Symphony and Bayeux there.

The pub/sub layer over Symphony is oblivious unicast: a notification is
routed through the DHT to each subscriber independently, so nearly every
hop lands on a peer that never subscribed — the relay-node problem that
motivates SELECT.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.idspace.hashing import uniform_hashes
from repro.overlay.base import OverlayNetwork
from repro.util.rng import as_generator

__all__ = ["SymphonyOverlay"]


class SymphonyOverlay(OverlayNetwork):
    """Small-world ring DHT with harmonic long links."""

    name = "Symphony"
    iterative = False
    default_lookahead = True

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        super().__init__(graph, k_links)

    def build(self, seed=None) -> "SymphonyOverlay":
        """Assign uniform ids and draw harmonic long links."""
        rng = as_generator(seed)
        n = self.graph.num_nodes
        salt = int(rng.integers(2**31 - 1))
        self.ids[:] = uniform_hashes(range(n), salt=salt)
        self._refresh_ring()
        self._draw_long_links(rng)
        self.iterations = 0
        self._mark_built()
        return self

    def _draw_long_links(self, rng: np.random.Generator) -> None:
        """Sample each peer's k long links from the harmonic pdf."""
        n = self.graph.num_nodes
        ln_n = np.log(max(n, 2))
        for v in range(n):
            table, links = self.tables[v], list(self.tables[v].long_links)
            attempts = 0
            while len(links) < self.k_links and attempts < self.k_links * 8:
                attempts += 1
                # Inverse-CDF sampling of p(d) ∝ 1/(d ln N) on [1/N, 1]:
                # d = exp(ln N * (u - 1)) = N^(u-1), u ~ U[0, 1].
                distance = float(np.exp(ln_n * (rng.random() - 1.0)))
                target_point = (self.ids[v] + distance) % 1.0
                manager = self._ring_index.successor_of(target_point)
                if manager == v or manager in links:
                    continue
                if self.try_accept_incoming(v, manager):
                    table.add_long(manager)
                    links.append(manager)
