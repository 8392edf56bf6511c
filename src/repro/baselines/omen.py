"""OMen overlay (Chen, Vitenberg, Jacobsen; DEBS 2016).

OMen maintains a Topic-Connected Overlay per topic — computed with the
divide-and-conquer Greedy-Merge approximation of
:mod:`repro.baselines.tco` — over a small-world substrate, plus *shadow
sets*: per-peer backup candidates that, in the OMen paper, step in when a
TCO neighbor departs. Here they only attract links: no experiment runs
OMen under churn.

The TCO tells each peer which partners it *should* connect to; peers
still have to find them through the overlay's sampling service, so
construction is iterative. Because the targets are precomputed and
shadow/candidate information piggybacks on gossip, OMen discovers its
partners faster than Vitis's blind similarity search — but still an order
slower than SELECT, which starts from the social graph (Figure 5).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.baselines.clustered import RankedGossipOverlay
from repro.baselines.tco import build_tco
from repro.graphs.graph import SocialGraph

__all__ = ["OmenOverlay"]


class OmenOverlay(RankedGossipOverlay):
    """Topic-connected overlay with shadow sets as weak attractors."""

    name = "OMen"
    samples_per_round = 2  # candidate exchange accelerates discovery
    #: shadow set size per TCO partner (backup candidates)
    shadow_size = 2

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        super().__init__(graph, k_links)
        self._target: list[set[int]] = [set() for _ in range(graph.num_nodes)]
        self._shadow: list[set[int]] = [set() for _ in range(graph.num_nodes)]
        self._topics = {
            b: frozenset(int(f) for f in graph.neighbors(b)) | {b}
            for b in range(graph.num_nodes)
        }

    # -- target structure -------------------------------------------------------

    def prepare(self, rng: np.random.Generator) -> None:
        """Compute the TCO target edges and the shadow sets."""
        # Degree cap: twice the link budget, the slack OMen's mending needs.
        edges = build_tco(self._topics, max_degree=2 * self.k_links)
        for u, v in edges:
            self._target[u].add(v)
            self._target[v].add(u)
        # Shadow sets: for each peer, low-degree co-subscribers that could
        # replace a failed partner.
        co_subscribers: dict[int, set[int]] = defaultdict(set)
        for members in self._topics.values():
            for m in members:
                co_subscribers[m].update(members)
        for v in range(self.graph.num_nodes):
            candidates = sorted(
                co_subscribers[v] - self._target[v] - {v},
                key=lambda u: (len(self._target[u]), u),
            )
            self._shadow[v] = set(candidates[: self.shadow_size * self.shadow_size])

    def score(self, v: int, u: int) -> float:
        """TCO partners first, shadow candidates as weak attractors.

        Links are the ``k`` best of these, the same bounded budget every
        system gets: TCO partners beyond it cannot be materialized, which
        leaves some topics partially disconnected and is why OMen still
        shows relay nodes and hotspot load in the paper's figures.
        """
        if u in self._target[v]:
            return 2.0
        if u in self._shadow[v]:
            return 1.0
        return 0.0
