"""The identifier ring's clockwise order.

Every overlay keeps two short-range links per peer — its successor and
predecessor in identifier order — which is what guarantees that greedy
routing always terminates and that the whole network stays reachable (the
paper's correctness argument in §V: the ring lets messages reach all
peers even when long links are socially skewed).

:class:`RingIndex` is that order: one sort of the identifier array,
reused until :meth:`~RingIndex.invalidate`. Each overlay owns one over its
``ids`` and re-sorts it in its one ring writer,
:meth:`~repro.overlay.base.OverlayNetwork._refresh_ring`.
"""

from __future__ import annotations

import numpy as np

from repro.util.exceptions import ConfigurationError

__all__ = ["RingIndex"]


class RingIndex:
    """Sorted view of an identifier ring, built lazily and reused.

    Ties in identifier value are broken by node index, so the ring is
    always a single cycle.
    """

    __slots__ = ("_ids", "_order", "_sorted_ids", "_pred", "_succ")

    def __init__(self, ids):
        self._ids = ids
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached sort; the next query re-sorts."""
        self._order = None
        self._sorted_ids = None
        self._pred = None
        self._succ = None

    def _ensure(self):
        if self._order is None:
            ids = np.asarray(self._ids, dtype=np.float64)
            self._order = np.lexsort((np.arange(len(ids)), ids))
            self._sorted_ids = ids[self._order]
        return self._order, self._sorted_ids

    @property
    def order(self) -> np.ndarray:
        """Node indices in clockwise (sorted-id) order."""
        return self._ensure()[0]

    @property
    def sorted_ids(self) -> np.ndarray:
        """Identifier values in clockwise order."""
        return self._ensure()[1]

    def pred_succ(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``(predecessor, successor)`` index arrays."""
        if self._pred is None:
            order, _ = self._ensure()
            n = len(order)
            if n < 2:
                raise ConfigurationError("a ring needs at least two peers")
            pred = np.empty(n, dtype=np.int64)
            succ = np.empty(n, dtype=np.int64)
            succ[order] = np.roll(order, -1)
            pred[order] = np.roll(order, 1)
            self._pred, self._succ = pred, succ
        return self._pred, self._succ

    def successor_matrix(self, length: int) -> np.ndarray:
        """``(n, depth)`` array: column ``j`` is each node's ``j+1``-th successor.

        Row ``v`` is ``v``'s successor list — the backups a peer falls to
        when its successor dies (the Chord/Symphony mechanism the
        stabilization layer relies on to survive up to ``length - 1``
        simultaneous failures); ``depth`` is ``length`` capped at ``n - 1``.
        """
        if length < 1:
            raise ConfigurationError(f"successor list length must be >= 1, got {length}")
        order, _ = self._ensure()
        n = len(order)
        if n < 2:
            raise ConfigurationError("a ring needs at least two peers")
        depth = min(length, n - 1)
        mat = np.empty((n, depth), dtype=np.int64)
        for j in range(1, depth + 1):
            mat[order, j - 1] = np.roll(order, -j)
        return mat

    def successor_of(self, point) -> int | np.ndarray:
        """First node clockwise from ``point`` (scalar or array of points).

        The DHT "manager" lookup: the node responsible for a ring position
        a long link targets (Symphony) or a topic hash's rendezvous node
        (Bayeux).
        """
        order, sorted_ids = self._ensure()
        n = len(order)
        pos = np.searchsorted(sorted_ids, point, side="left")
        if np.ndim(point) == 0:
            return int(order[int(pos) % n])
        return order[pos % n]
