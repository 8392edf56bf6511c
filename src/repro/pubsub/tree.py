"""Dissemination (routing) tree ``RT_b`` for one publisher.

Built by merging the overlay routing paths from the publisher to each
subscriber. The first path to reach a node becomes its tree parent
(message deduplication: a peer forwards each message once); later paths
reuse the existing copy from that node onward.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["RoutingTree"]


class RoutingTree:
    """Rooted dissemination tree over overlay node ids."""

    def __init__(self, root: int):
        self.root = root
        self.parent: dict[int, int] = {}
        self.children: dict[int, list[int]] = defaultdict(list)
        self._nodes: set[int] = {root}

    # -- construction -------------------------------------------------------

    def add_path(self, path) -> None:
        """Merge one routing path (must start at the root)."""
        nodes = list(path)
        if not nodes:
            return
        if nodes[0] != self.root:
            raise ValueError(f"path starts at {nodes[0]}, tree root is {self.root}")
        for i in range(len(nodes) - 1):
            a, b = nodes[i], nodes[i + 1]
            if b in self._nodes:
                continue  # message already reaches b through the tree
            self.parent[b] = a
            self.children[a].append(b)
            self._nodes.add(b)

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> set[int]:
        """All nodes the message visits (root included)."""
        return set(self._nodes)

    def edges(self) -> list[tuple[int, int]]:
        """Tree edges as ``(parent, child)`` pairs."""
        return [(p, c) for c, p in self.parent.items()]

    def relay_nodes(self, subscribers) -> set[int]:
        """Interior nodes that are neither the publisher nor subscribed.

        These are the relays the paper's problem statement minimizes:
        ``S_b^¬ = {s | f(s, b) = false}`` appearing on the routing tree.
        """
        subs = set(subscribers)
        return {v for v in self._nodes if v != self.root and v not in subs}

    def depth_of(self, node: int) -> int:
        """Hop depth of ``node`` below the root."""
        depth = 0
        cur = node
        while cur != self.root:
            cur = self.parent[cur]
            depth += 1
            if depth > len(self._nodes):
                raise RuntimeError("cycle detected in routing tree")
        return depth

    def children_map(self) -> dict[int, list[int]]:
        """Plain dict copy of the children adjacency (for transfer models)."""
        return {k: list(v) for k, v in self.children.items()}

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)
