"""Shared machinery for the iterative gossip baselines (Vitis, OMen).

Both systems start from a plain DHT (uniform identifiers on the ring) and
then *discover* which peers are worth linking to through rounds of
peer sampling — Vitis by interest similarity, OMen by membership in its
target topic-connected overlay. Discovery through uniform sampling is
slow by nature: a peer must stumble on its good candidates among all N
peers, which is why both need several times more iterations to organize
than SELECT (Figure 5), whose candidates are handed to it by the social
graph.

The round loop is T-Man style: each peer keeps the best ``k`` contacts
seen so far (by a subclass-defined score) and its long links *are* that
ranked set. Construction has converged when no peer's ranked set changes
for a few consecutive rounds.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.idspace.hashing import uniform_hashes
from repro.overlay.base import OverlayNetwork
from repro.overlay.routing import RouteResult
from repro.util.rng import as_generator

__all__ = ["RankedGossipOverlay"]


def _as_set(ranked) -> frozenset:
    """A ranked link list as the set it was always stored as: the set's order
    picks the contact a sample exposes and the order the member flood tries
    links in, so Vitis's and OMen's overlays and paths hold."""
    return frozenset(set(ranked))


class RankedGossipOverlay(OverlayNetwork):
    """DHT + gossip contact ranking. Subclasses define the ranking score."""

    iterative = True
    default_lookahead = True
    #: uniform peer samples evaluated per peer per round
    samples_per_round = 1
    #: consecutive quiet rounds to declare convergence
    convergence_rounds = 3
    #: hard cap on construction rounds
    max_rounds = 400

    def __init__(self, graph: SocialGraph, k_links: int | None = None):
        super().__init__(graph, k_links)
        # candidate -> score cache per peer (discovered contacts)
        self._scores: list[dict[int, float]] = [dict() for _ in range(graph.num_nodes)]
        #: the contact each peer shows a sampler (-1 = none yet): the first
        #: member of its ranked set in the set's order (see :func:`_as_set`).
        self._exposed = np.full(graph.num_nodes, -1, dtype=np.int64)
        self._quiet_rounds = 0

    # -- subclass hooks ------------------------------------------------------

    def prepare(self, rng: np.random.Generator) -> None:
        """Set up target structures before gossip starts (optional)."""

    def score(self, v: int, u: int) -> float:
        """Attractiveness of contact ``u`` for peer ``v``; <= 0 = useless."""
        raise NotImplementedError

    # -- construction -----------------------------------------------------------

    def build(self, seed=None) -> "OverlayNetwork":
        """DHT bootstrap, then T-Man-style ranked gossip to quiescence."""
        rng = as_generator(seed)
        n = self.graph.num_nodes
        salt = int(rng.integers(2**31 - 1))
        self.ids[:] = uniform_hashes(range(n), salt=salt)
        self._refresh_ring()
        self.prepare(rng)
        rounds = 0
        for _ in range(self.max_rounds):
            rounds += 1
            changes = self._gossip_round(rng)
            if changes <= max(1, n // 50):
                self._quiet_rounds += 1
                if self.converged:
                    break
            else:
                self._quiet_rounds = 0
        self.iterations = rounds
        self._mark_built()
        return self

    @property
    def converged(self) -> bool:
        """Whether the build ended on ``convergence_rounds`` quiet rounds, not on the cap."""
        return self._quiet_rounds >= self.convergence_rounds

    def _gossip_round(self, rng: np.random.Generator) -> int:
        """One sampling round; returns the number of peers that re-ranked."""
        n = self.graph.num_nodes
        changes = 0
        samples = rng.integers(0, n, size=(n, self.samples_per_round))
        for v in range(n):
            learned = False
            known = self._scores[v]
            candidates = set(int(u) for u in samples[v] if u != v)
            # Gossip also exposes the sampled peer's contacts (exchange of
            # views), doubling effective discovery without extra rounds.
            for u in list(candidates):
                shown = self._exposed.item(u)
                if shown >= 0:
                    candidates.add(shown)
            candidates.discard(v)
            for u in candidates:
                if u in known:
                    continue
                s = self.score(v, u)
                if s > 0:
                    known[u] = s
                    learned = True
            # Convergence is about the *materialized* topology: count a
            # change only when the ranked link set actually moved.
            if learned and self._rerank(v):
                changes += 1
        return changes

    def _rerank(self, v: int) -> bool:
        """Long links = the k best-scoring discovered contacts, in rank
        order; True when the set moved."""
        known = self._scores[v]
        top = sorted(known, key=lambda u: (-known[u], u))[: self.k_links]
        # Scores never change once known, so an equal set is an equal ranking.
        if tuple(top) == self.tables[v].long_links:
            return False
        self.tables[v].long_links = top
        self._exposed[v] = next(iter(_as_set(top)))
        return True

    # -- dissemination ------------------------------------------------------------

    def disseminate(self, publisher, subscribers, router, online=None) -> dict:
        """Member flood first, rendezvous routing for the rest.

        The publisher floods the co-subscribers its ranked links reach
        (Vitis's interest cluster, OMen's topic-connected component); any
        subscriber the flood misses is served through plain greedy ring
        routing, where relays appear.
        """
        members = {publisher}
        members.update(subscribers)
        if online is not None:
            members = {m for m in members if online[m]}
        paths = self._members_subgraph_bfs(publisher, members)
        results: dict[int, RouteResult] = {}
        for s in subscribers:
            if s in paths:
                results[s] = RouteResult(path=list(paths[s]), delivered=True)
            else:
                results[s] = router.route(publisher, s, online=online)
        return results

    def topic_connectivity(self, topic: int) -> float:
        """Fraction of a topic's subscribers the member flood reaches.

        The overlay is "organized" once most topics are connected this
        way: Vitis's clusters, OMen's topic-connected overlay.
        """
        self._check_built()
        subs = [int(f) for f in self.graph.neighbors(topic)]
        if not subs:
            return 1.0
        members = set(subs) | {topic}
        paths = self._members_subgraph_bfs(topic, members)
        return sum(1 for s in subs if s in paths) / len(subs)

    def _members_subgraph_bfs(self, root: int, members: set) -> dict:
        """BFS paths from ``root`` over overlay links restricted to members.

        Returns ``{node: path_from_root}`` for every member reached: hops
        between co-subscribers never touch a relay.
        """
        paths = {root: [root]}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                table = self.tables[u]
                links = set(_as_set(table.long_links))
                links.update(w for w in (table.predecessor, table.successor) if w is not None)
                links.discard(u)
                for w in links:
                    if w in members and w not in paths:
                        paths[w] = paths[u] + [w]
                        nxt.append(w)
            frontier = nxt
        return paths
