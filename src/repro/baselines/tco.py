"""Divide-and-conquer topic-connected overlay construction (Chen,
Jacobsen, Vitenberg; ToN 2014) — the algorithm OMen builds on.

Exact Greedy Merge (Chockler, Melamed, Tock, Vitenberg; PODC 2007)
re-scores every candidate edge per iteration, which is quadratic-ish in
the co-subscription pairs and unusable beyond toy sizes. The
divide-and-conquer approximation processes topics independently
(smallest first, so cheap topics are satisfied before degree budget runs
out) and, within a topic, connects the subscriber components with edges
chosen to keep degrees low — reusing edges contributed by earlier topics
for free.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["build_tco"]


class _UnionFind:
    """Plain union-find with path compression."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def build_tco(topics: dict, max_degree: "int | None" = None) -> set:
    """Edges of an (approximately minimal) topic-connected overlay.

    ``topics`` maps topic id -> iterable of member nodes; members of each
    topic end up connected among themselves wherever the degree budget
    allows. Returns edges as ``(u, v)`` tuples with ``u < v``.
    """
    degree: dict[int, int] = defaultdict(int)
    chosen: set[tuple[int, int]] = set()
    adjacency: dict[int, set[int]] = defaultdict(set)

    def can_link(u: int, v: int) -> bool:
        if max_degree is None:
            return True
        return degree[u] < max_degree and degree[v] < max_degree

    def add_edge(u: int, v: int) -> None:
        edge = (min(u, v), max(u, v))
        if edge in chosen:
            return
        chosen.add(edge)
        degree[u] += 1
        degree[v] += 1
        adjacency[u].add(v)
        adjacency[v].add(u)

    # Smallest topics first: they have the fewest reuse opportunities and
    # starving them under a degree cap would leave many tiny disconnected
    # topics (the expensive failure mode).
    for t in sorted(topics, key=lambda t: (len(list(topics[t])), t)):
        members = sorted(set(topics[t]))
        if len(members) < 2:
            continue
        uf = _UnionFind(members)
        member_set = set(members)
        # Reuse edges already chosen by earlier topics.
        for u in members:
            for v in adjacency[u]:
                if v in member_set:
                    uf.union(u, v)
        # Component representatives, cheapest (lowest-degree) node first.
        comps: dict[int, list[int]] = defaultdict(list)
        for m in members:
            comps[uf.find(m)].append(m)
        if len(comps) <= 1:
            continue
        # Merge components into one, always attaching through the
        # lowest-degree nodes available; components whose every member is
        # at the cap stay disconnected (the churn/fallback path covers it).
        comp_lists = sorted(
            comps.values(), key=lambda nodes: min((degree[v], v) for v in nodes)
        )
        anchored = list(comp_lists[0])
        for nodes in comp_lists[1:]:
            other = min(nodes, key=lambda v: (degree[v], v))
            candidate = min(
                (m for m in anchored if can_link(m, other)),
                default=None,
                key=lambda v: (degree[v], v),
            )
            if candidate is None:
                # ``other`` may itself be capped; search any linkable pair.
                pair = next(
                    (
                        (m, w)
                        for m in sorted(anchored, key=lambda v: (degree[v], v))
                        for w in sorted(nodes, key=lambda v: (degree[v], v))
                        if can_link(m, w)
                    ),
                    None,
                )
                if pair is None:
                    continue
                add_edge(*pair)
            else:
                add_edge(candidate, other)
            anchored.extend(nodes)
    return chosen
