"""Graph statistics used to regenerate Table II.

For the synthetic stand-ins we report the same columns as the paper's
Table II (users, connections, average degree) plus clustering and degree
extremes so the substitution can be checked against the real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import SocialGraph

__all__ = ["GraphStats", "graph_stats"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics for one social graph."""

    name: str
    users: int
    connections: int
    average_degree: float
    max_degree: int
    median_degree: float
    clustering: float


def graph_stats(graph: SocialGraph, clustering_sample: int = 400, seed: int = 0) -> GraphStats:
    """Compute :class:`GraphStats`.

    Clustering is estimated on a sample of nodes (exact for graphs smaller
    than the sample) because exact clustering is cubic-ish on dense graphs.
    """
    degrees = graph.degrees
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    if n <= clustering_sample:
        nodes = np.arange(n)
    else:
        nodes = rng.choice(n, size=clustering_sample, replace=False)
    coeffs = []
    for u in nodes:
        neigh = graph.neighbors(int(u))
        k = len(neigh)
        if k < 2:
            coeffs.append(0.0)
            continue
        links = 0
        neigh_set = graph.neighbor_set(int(u))
        for v in neigh:
            links += len(graph.neighbor_set(int(v)) & neigh_set)
        coeffs.append(links / (k * (k - 1)))
    return GraphStats(
        name=graph.name,
        users=n,
        connections=graph.num_edges,
        average_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        median_degree=float(np.median(degrees)),
        clustering=float(np.mean(coeffs)),
    )
