"""Columnar per-peer scalar state for the SELECT overlay.

One :class:`PeerColumns` block holds the whole network's per-peer round
state as numpy arrays, mirroring the vertex-state columns a Flink/Gelly
deployment would keep in its managed state backend. Each
:class:`~repro.core.peer.PeerState` is a *view* over its slot: the object
API (``peer.identifier``, ``peer.stable_rounds``, ...) keeps working
unchanged for pubsub, persist, telemetry, and the live runtime, while the
vectorized round kernels (:mod:`repro.core.vectorized`) read and write the
columns wholesale.

A standalone ``PeerState`` (tests, scratch construction) owns a private
one-slot block — identical code path, no branching on "bound or not".

:class:`EdgeColumns` holds what each peer knows of each friend the same way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PeerColumns", "EdgeColumns"]


class PeerColumns:
    """Column block of per-peer scalar state.

    Attributes
    ----------
    identifier:
        ``D_p`` per peer, float64. When the owning overlay passes its own
        ``ids`` array, the two alias the same memory — the overlay's id
        vector IS the identifier column.
    moves_done / stable_rounds / link_change_budget:
        The convergence counters of the gossip loop (int64).
    top2:
        ``(n, 2)`` incrementally maintained strongest-friend pair per
        peer, ``-1`` for an empty rank.
    anchor_pair:
        ``(n, 2)`` last anchor pair each peer relocated for (sorted,
        ``-1`` padding; row of ``-1`` = never moved).
    anchor_target:
        The midpoint each peer last relocated to (NaN = never moved).
        Together with ``anchor_pair`` this forms the reassignment gate:
        a peer re-evaluates a previously used anchor pair only after the
        pair's midpoint has drifted beyond the movement tolerance.
    """

    __slots__ = (
        "n",
        "identifier",
        "moves_done",
        "stable_rounds",
        "link_change_budget",
        "top2",
        "anchor_pair",
        "anchor_target",
    )

    def __init__(self, n: int, identifier: "np.ndarray | None" = None):
        self.n = n
        self.identifier = identifier if identifier is not None else np.zeros(n, dtype=np.float64)
        self.moves_done = np.zeros(n, dtype=np.int64)
        self.stable_rounds = np.zeros(n, dtype=np.int64)
        self.link_change_budget = np.full(n, 2**31, dtype=np.int64)
        self.top2 = np.full((n, 2), -1, dtype=np.int64)
        self.anchor_pair = np.full((n, 2), -1, dtype=np.int64)
        self.anchor_target = np.full(n, np.nan, dtype=np.float64)


class EdgeColumns:
    """What each peer knows about each friend, aligned with the social CSR.

    Peer ``p``'s knowledge of ``neighborhood[i]`` sits at ``offset_p + i``
    (``_nbr_indptr[p] + i`` in an overlay): the mutual count, the bitmap, the
    link view it came from and that view's ``view_version`` (``seen``), a
    learn stamp for the count and one for the bitmap (``forget_peer`` drops
    only the bitmap), and the bitmap's Alg. 6 ``key`` and LSH ``bucket``;
    ``-1`` / ``None`` = not learned."""

    __slots__ = (
        "key", "bucket", "mutual", "bitmap", "view",
        "mutual_stamp", "bitmap_stamp", "seen", "clock",
    )

    def __init__(self, size: int):
        self.key = np.full(size, -1, dtype=np.int64)
        self.bucket = np.full(size, -1, dtype=np.int16)
        self.mutual = np.full(size, -1, dtype=np.int32)
        self.bitmap = np.full(size, None, dtype=object)
        self.view = np.full(size, None, dtype=object)
        self.mutual_stamp = np.full(size, -1, dtype=np.int64)
        self.bitmap_stamp = np.full(size, -1, dtype=np.int64)
        self.seen = np.full(size, -1, dtype=np.int64)
        self.clock = 0

    def stamps(self, count: int) -> np.ndarray:
        """``count`` fresh learn stamps, ascending."""
        self.clock += count
        return np.arange(self.clock - count, self.clock, dtype=np.int64)
