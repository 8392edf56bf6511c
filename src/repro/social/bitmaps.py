"""Friendship bitmaps (paper Section III-D).

For a peer ``p`` with neighborhood ``C_p``, the bitmap of a friend ``u``
is a ``|C_p|``-bit vector whose bit for friend ``v`` is set when ``u``'s
routing table already links to ``v``. Friends with near-identical bitmaps
cover the same part of ``p``'s neighborhood, so linking to more than one of
them is redundant — which is exactly what the LSH bucketing exploits.

A bitmap is a Python int whose bit ``i`` stands for ``neighborhood[i]``:
at a few words per bitmap, ``int.bit_count``, ``|`` and ``^`` beat numpy's
per-call overhead on the gossip hot path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitmapCodec"]


class BitmapCodec:
    """Encodes friendship bitmaps relative to one peer's neighborhood.

    Parameters
    ----------
    neighborhood:
        Sorted array of the peer's friends ``C_p``; bit position ``i``
        corresponds to ``neighborhood[i]``.
    """

    __slots__ = ("_neighborhood", "nbits")

    def __init__(self, neighborhood):
        self._neighborhood = np.asarray(neighborhood, dtype=np.int64)
        self.nbits = len(self._neighborhood)

    def encode(self, linked_nodes) -> int:
        """Bitmap marking which of the neighborhood the given nodes cover.

        Nodes outside the neighborhood are ignored — a friend's routing
        table usually contains peers we do not share. A node's bit is its
        ``searchsorted`` position in the sorted neighborhood.
        """
        nodes = np.fromiter(linked_nodes, dtype=np.int64)
        acc = 0
        for i, v in zip(np.searchsorted(self._neighborhood, nodes).tolist(), nodes.tolist()):
            if i < self.nbits and self._neighborhood[i] == v:
                acc |= 1 << i
        return acc

    def decode(self, bitmap: int) -> np.ndarray:
        """Node ids whose bits are set in ``bitmap``."""
        idx = [i for i in range(min(bitmap.bit_length(), self.nbits)) if bitmap >> i & 1]
        return self._neighborhood[idx]

    def coverage(self, bitmap: int) -> float:
        """Fraction of the neighborhood covered by ``bitmap``."""
        if self.nbits == 0:
            return 0.0
        return bitmap.bit_count() / self.nbits
