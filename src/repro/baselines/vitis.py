"""Vitis overlay (Rahimian, Girdzijauskas et al.; IPDPS 2011).

Vitis is a gossip-based hybrid pub/sub overlay: peers sit on a ring
(rendezvous routing always works) and additionally organize into
*clusters* of peers subscribed to similar topics, discovered by a
peer-sampling service. Messages spread inside a cluster without relays;
subscribers outside any cluster path are reached through rendezvous
(greedy ring) routing.

In the paper's social workload every user is a topic whose subscribers
are its friends, so interest similarity between two peers is the overlap
of their subscription sets — i.e. how many common friends they have plus
their own mutual subscription. Peers with high social degree score high
for many others, which concentrates incoming connections on hubs: exactly
the load imbalance Figure 4 reports for Vitis.
"""

from __future__ import annotations

from repro.baselines.clustered import RankedGossipOverlay
from repro.graphs.graph import SocialGraph

__all__ = ["VitisOverlay"]


class VitisOverlay(RankedGossipOverlay):
    """Gossip-clustered hybrid pub/sub overlay."""

    name = "Vitis"
    samples_per_round = 1

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        super().__init__(graph, k_links)
        # subscription set of a peer: the topics (publishers) it follows =
        # its friends, plus its own topic.
        self._subs = [
            frozenset(int(f) for f in graph.neighbors(v)) | {v}
            for v in range(graph.num_nodes)
        ]

    def score(self, v: int, u: int) -> float:
        """Interest similarity: shared subscriptions between ``v`` and ``u``."""
        return float(len(self._subs[v] & self._subs[u]))
