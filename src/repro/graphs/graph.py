"""The :class:`SocialGraph` container.

A compact, immutable undirected graph over integer node ids ``0..n-1``,
stored as CSR arrays with each row sorted. Vectorized metrics and the
overlay's kernels read the arrays; social-strength computation wants set
intersections, so each node's friend set is made on first use and kept.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.util.exceptions import DatasetError

__all__ = ["SocialGraph"]


class SocialGraph:
    """Immutable undirected social graph over nodes ``0..n-1``.

    Parameters
    ----------
    num_nodes:
        Number of social users. Node ids are dense integers.
    edges:
        ``(u, v)`` pairs, as an iterable or an ``(E, 2)`` integer array.
        Self-loops and out-of-range ids are rejected; duplicate listings
        of an edge, in either direction, count once.
    name:
        Optional human-readable label (dataset name).
    """

    __slots__ = ("_n", "_indptr", "_indices", "_degrees", "_sets", "name")

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]] | np.ndarray, name: str = "graph"):
        if num_nodes <= 0:
            raise DatasetError(f"graph needs at least one node, got {num_nodes}")
        n = self._n = int(num_nodes)
        self.name = name
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        u, v = pairs.reshape(-1, 2).T
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        for a, b in zip(u[bad][:1].tolist(), v[bad][:1].tolist()):  # the first bad edge
            if a == b:
                raise DatasetError(f"self-loop on node {a} is not a social connection")
            raise DatasetError(f"edge ({a}, {b}) out of range for n={n}")
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        rows, self._indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        self._degrees = np.bincount(rows, minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(self._degrees)))
        for array in (self._indptr, self._indices, self._degrees):
            array.setflags(write=False)
        self._sets: list[frozenset[int] | None] = [None] * n

    # -- basic accessors ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of social users."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected friendship edges."""
        return len(self._indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Read-only degree vector."""
        return self._degrees

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices)``; row ``u`` holds ``u``'s sorted friends."""
        return self._indptr, self._indices

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        return int(self._degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted array of ``u``'s friends (a read-only view)."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def neighbor_set(self, u: int) -> frozenset[int]:
        """Frozen set of ``u``'s friends (for O(1) membership tests)."""
        friends = self._sets[u]
        if friends is None:
            # Filled in sorted order, then frozen: the order it always iterated in.
            friends = self._sets[u] = frozenset(set(self.neighbors(u).tolist()))
        return friends

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` are friends."""
        return v in self.neighbor_set(u)

    def average_degree(self) -> float:
        """Mean friend count."""
        return float(self._degrees.mean())

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once, as ``(u, v)`` index columns with ``u < v``."""
        rows = np.repeat(np.arange(self._n), self._degrees)
        upper = rows < self._indices
        return rows[upper], self._indices[upper]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        u, v = self.edge_array()
        return zip(u.tolist(), v.tolist())

    def mutual_friends(self, u: int, v: int) -> int:
        """Number of common friends of ``u`` and ``v``."""
        return len(self.neighbor_set(u) & self.neighbor_set(v))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SocialGraph(name={self.name!r}, nodes={self._n}, edges={self.num_edges})"

    # -- constructors ------------------------------------------------------

    def largest_component(self) -> "SocialGraph":
        """Restrict to the largest connected component (relabelled).

        ``self`` when connected. Of equal-size components, the one holding
        the smallest node id is kept.
        """
        label = np.full(self._n, -1, dtype=np.int64)
        sizes: list[int] = []
        for start in range(self._n):
            if label[start] < 0:
                sizes.append(self._flood(label, start, len(sizes)))
                if sizes[0] == self._n:
                    return self
        keep = label == int(np.argmax(sizes))
        new_id, inside = np.cumsum(keep) - 1, np.repeat(keep, self._degrees)
        rows = np.repeat(new_id, self._degrees)[inside]
        pairs = np.stack((rows, new_id[self._indices[inside]]), axis=1)
        return SocialGraph(int(keep.sum()), pairs, name=self.name)

    def _flood(self, label: np.ndarray, start: int, mark: int) -> int:
        """Label ``start``'s component ``mark`` by frontier BFS; its size."""
        label[start] = mark
        frontier, size = np.array([start]), 1
        while frontier.size:
            counts = self._degrees[frontier]
            starts = np.repeat(self._indptr[frontier] - np.cumsum(counts) + counts, counts)
            reached = self._indices[starts + np.arange(int(counts.sum()))]
            frontier = np.unique(reached[label[reached] < 0])
            label[frontier] = mark
            size += frontier.size
        return size
