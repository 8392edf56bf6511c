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

__all__ = ["decode", "encode"]


def encode(neighborhood: np.ndarray, nodes) -> int:
    """Bitmap marking which of the sorted ``neighborhood`` the given nodes cover.

    Nodes outside the neighborhood are ignored — a friend's routing table
    usually contains peers we do not share. A node's bit is its
    ``searchsorted`` position in the neighborhood.
    """
    nodes = np.fromiter(nodes, dtype=np.int64)
    acc = 0
    for i, v in zip(np.searchsorted(neighborhood, nodes).tolist(), nodes.tolist()):
        if i < len(neighborhood) and neighborhood[i] == v:
            acc |= 1 << i
    return acc


def decode(neighborhood: np.ndarray, bitmap: int) -> np.ndarray:
    """Node ids of the sorted ``neighborhood`` whose bits are set in ``bitmap``."""
    idx = [i for i in range(min(bitmap.bit_length(), len(neighborhood))) if bitmap >> i & 1]
    return np.asarray(neighborhood, dtype=np.int64)[idx]
