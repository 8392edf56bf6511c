"""Synthetic social-graph generators.

Two ingredients of the real datasets drive the paper's results:

* heavy-tailed degree distributions (a few hubs, many low-degree users), and
* community structure / high clustering (friends of friends are friends),
  which is what lets SELECT pack a user's friends into one ID region.

:func:`powerlaw_cluster_graph` (Holme–Kim) provides both. It is grown here
on the same ``random.Random`` stream, in the same draw order, as networkx
3.x's ``powerlaw_cluster_graph``: networkx's graph edge for edge, without
its O(degree) triangle step or networkx itself: the target's row positions
closed to the source are listed once per target and kept across its
triangle links.
:func:`community_graph` composes dense planted communities with sparse
inter-community bridges for workloads where explicit communities are wanted.
"""

from __future__ import annotations

import random
from bisect import insort
from itertools import chain

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["powerlaw_cluster_graph", "community_graph"]


def _seed_int(rng: np.random.Generator) -> int:
    """The int seed of the ``random.Random`` stream, from our generator."""
    return int(rng.integers(0, 2**31 - 1))


def powerlaw_cluster_graph(
    num_nodes: int,
    avg_degree: float,
    triangle_prob: float = 0.6,
    seed=None,
    name: str = "powerlaw-cluster",
) -> SocialGraph:
    """Holme–Kim graph with roughly ``avg_degree`` mean degree.

    Each arriving node attaches ``m ≈ avg_degree / 2`` edges preferentially,
    closing a triangle with probability ``triangle_prob`` — which produces
    the clustering that real OSN graphs show.
    """
    if num_nodes < 4:
        raise ConfigurationError(f"need at least 4 nodes, got {num_nodes}")
    if not (0.0 <= triangle_prob <= 1.0):
        raise ConfigurationError(f"triangle_prob must be in [0, 1], got {triangle_prob}")
    rng = as_generator(seed)
    m = max(1, min(int(round(avg_degree / 2.0)), num_nodes - 1))
    # Connected as grown: every node after the first m links to earlier ones.
    edges = _holme_kim_edges(num_nodes, m, triangle_prob, random.Random(_seed_int(rng)))
    return SocialGraph(num_nodes, edges, name=name)


def _holme_kim_edges(n: int, m: int, p: float, rnd: random.Random) -> np.ndarray:
    """Edges of networkx's ``powerlaw_cluster_graph(n, m, p, seed=rnd)``, each once.

    Draw for draw networkx's: ``_random_subset``'s ``choice`` calls and set
    pops, the triangle coin, and the ``choice`` among the target's neighbours
    (insertion order) not linked to the source; each ``choice`` is the
    ``_randbelow`` it wraps. The triangle pick skips ``closed``, the sorted
    positions of the source and its links in the target's row. It is listed
    when a triangle step first needs it after a pop and then only gains the
    picked position: the target's row is fixed until the next pop, and a
    picked neighbour was not linked to the source before.
    """
    randbelow, coin = rnd._randbelow, rnd.random
    rows: list[list[int]] = [[] for _ in range(n)]  # neighbours, insertion order
    where: list[dict[int, int]] = [{} for _ in range(n)]  # neighbour -> position
    repeated = list(range(m))
    for source in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[randbelow(len(repeated))])
        mine, mine_at = rows[source], where[source]
        for step in range(m):
            v = None
            if step and coin() < p:
                if closed is None:
                    index = where[target]
                    closed = sorted(index[x] for x in (source, *mine) if x in index)
                row = rows[target]
                if len(row) > len(closed):
                    k = randbelow(len(row) - len(closed))
                    for position in closed:  # the k-th open slot lies past each closed one <= k
                        k += position <= k
                    insort(closed, k)
                    v = row[k]
            if v is None:
                target = v = targets.pop()
                closed = None
            repeated.append(v)
            if v not in mine_at:  # a popped target may be linked by a triangle step already
                mine_at[v], where[v][source] = len(mine), len(rows[v])
                mine.append(v)
                rows[v].append(source)
        repeated.extend([source] * m)
    del where, repeated  # two thirds of what is held; the edges are read off the rows
    heads = np.repeat(np.arange(n), [len(row) for row in rows])
    tails = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(heads))
    later = heads > tails  # each edge once, from the node that linked it
    return np.column_stack((heads[later], tails[later]))


def community_graph(
    num_nodes: int,
    num_communities: int,
    intra_degree: float = 12.0,
    inter_degree: float = 1.0,
    seed=None,
    name: str = "community",
) -> SocialGraph:
    """Planted-community graph: dense blocks, sparse bridges.

    Every node lands in one of ``num_communities`` blocks; expected degree
    inside the block is ``intra_degree`` and across blocks ``inter_degree``.
    """
    if num_communities < 1:
        raise ConfigurationError(f"need at least one community, got {num_communities}")
    if num_nodes < num_communities:
        raise ConfigurationError(
            f"num_nodes={num_nodes} smaller than num_communities={num_communities}"
        )
    rng = as_generator(seed)
    membership = rng.integers(0, num_communities, size=num_nodes)
    # Expected degree -> intra-block edge probability.
    sizes = np.bincount(membership, minlength=num_communities).astype(np.float64)
    edges: set[tuple[int, int]] = set()
    mean_size = max(float(sizes.mean()), 2.0)
    p_intra = min(1.0, intra_degree / mean_size)
    # Sample intra-community edges block by block (blocks are small).
    order = np.argsort(membership, kind="stable")
    boundaries = np.searchsorted(membership[order], np.arange(num_communities))
    for c in range(num_communities):
        start = boundaries[c]
        end = boundaries[c + 1] if c + 1 < num_communities else num_nodes
        block = order[start:end]
        k = len(block)
        if k < 2:
            continue
        mask = rng.random((k, k)) < p_intra
        iu, ju = np.triu_indices(k, k=1)
        chosen = mask[iu, ju]
        for a, b in zip(block[iu[chosen]], block[ju[chosen]]):
            edges.add((int(min(a, b)), int(max(a, b))))
    # Sparse inter-community edges: sample a Binomial count, then pairs.
    expected_inter = 0.5 * num_nodes * inter_degree
    n_inter = int(rng.poisson(expected_inter))
    for _ in range(n_inter):
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if u != v and membership[u] != membership[v]:
            edges.add((min(u, v), max(u, v)))
    graph = SocialGraph(num_nodes, edges, name=name)
    return graph.largest_component()
