"""Hop-count measurement (Figure 2's metric).

"The average number of overlay hops within the path between two peers" —
sampled over *social lookups*: pairs of peers whose users are friends,
i.e. publisher→subscriber pairs. :func:`route_stretch` sets those hops
against what the overlay's links allow: route cost over graph distance.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.graphs.graph import SocialGraph
from repro.pubsub.api import PubSubSystem
from repro.util.rng import as_generator

__all__ = ["sample_friend_pairs", "social_lookup_hops", "route_stretch"]


def sample_friend_pairs(graph: SocialGraph, count: int, seed=None) -> list[tuple[int, int]]:
    """``count`` random (peer, friend-of-peer) pairs."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = as_generator(seed)
    pairs = []
    n = graph.num_nodes
    for _ in range(count):
        u = int(rng.integers(n))
        friends = graph.neighbors(u)
        while friends.size == 0:  # pragma: no cover - LCC graphs have no isolates
            u = int(rng.integers(n))
            friends = graph.neighbors(u)
        v = int(friends[rng.integers(friends.size)])
        pairs.append((u, v))
    return pairs


def social_lookup_hops(
    pubsub: PubSubSystem,
    pairs,
    online: "np.ndarray | None" = None,
) -> np.ndarray:
    """Hop count of each delivered social lookup (failed lookups excluded)."""
    hops = []
    for u, v in pairs:
        result = pubsub.lookup(u, v, online=online)
        if result.delivered:
            hops.append(result.hops)
    return np.asarray(hops, dtype=np.float64)


def route_stretch(overlay, pairs) -> np.ndarray:
    """Routed hops over shortest-path hops, per delivered route of ``pairs``.

    The shortest path is a breadth-first search over the same connections
    the router forwards on (outgoing links plus admitted incoming ones), so
    1.0 means the router found the best path the overlay holds and the
    excess is the routing rule's own.
    """
    n = overlay.graph.num_nodes
    indptr, indices = overlay.connections()
    links = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    routes = overlay.make_router().route_many(pairs)
    routed = [(s, d, r.hops) for (s, d), r in zip(pairs, routes) if r.delivered and s != d]
    if not routed:
        return np.empty(0, dtype=np.float64)
    src, dst, hops = np.array(routed, dtype=np.int64).T
    sources, row = np.unique(src, return_inverse=True)
    floor = np.empty(len(routed), dtype=np.float64)
    # One block of BFS rows at a time: a full distance matrix is O(n^2).
    for start in range(0, len(sources), 256):
        rows = shortest_path(links, unweighted=True, indices=sources[start : start + 256])
        mine = (row >= start) & (row < start + 256)
        floor[mine] = rows[row[mine] - start, dst[mine]]
    return hops / floor
