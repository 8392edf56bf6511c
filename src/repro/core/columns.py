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

:class:`EdgeColumns` holds what each peer knows of each friend the same way,
and the link log its lookahead rows live in.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LSH_SAMPLES

__all__ = ["CHUNK", "chunks", "PeerColumns", "EdgeColumns"]

#: The element budget of one run of a round kernel's per-edge or per-pair
#: temporaries (the round kernels, the exchange fold and the link log).
CHUNK = 1 << 14


def chunks(lengths: np.ndarray):
    """Cut consecutive segments of ``lengths`` elements (a peer's edges, a
    pair's links) into runs of at most :data:`CHUNK` elements; yields each
    run's segment range ``(lo, hi)``. A longer segment is a run of its own."""
    ends, lo = np.cumsum(lengths), 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, CHUNK + (ends[lo - 1] if lo else 0), "right")))
        yield lo, hi
        lo = hi


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
    lsh_sample:
        ``(n, LSH_SAMPLES)`` int32: the bit positions each peer's LSH family
        samples (:func:`~repro.lsh.bitsampling.sample_rows`), right-aligned;
        a row of ``-1`` = no family yet, so no bucket.
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
        "lsh_sample",
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
        self.lsh_sample = np.full((n, LSH_SAMPLES), -1, dtype=np.int32)


class EdgeColumns:
    """What each peer knows about each friend, aligned with the social CSR.

    Peer ``p``'s knowledge of ``neighborhood[i]`` sits at ``offset_p + i``
    (``_nbr_indptr[p] + i`` in an overlay): the mutual count, the bitmap, the
    log row of the link view it came from (``view``), a learn stamp for the
    count and one for the bitmap (``forget_peer`` drops only the bitmap),
    and the bitmap's Alg. 6 ``key`` and LSH ``bucket``; ``-1`` / ``None`` =
    not learned.

    The link log holds every view a slot names: row ``r`` is
    ``targets[indptr[r]:indptr[r + 1]]``, one link set sorted and without
    repeats (int32 node ids). Rows are only appended (the arrays grow by
    doubling) until :meth:`compact` renumbers the ones still named (a build
    compacts at the round barrier once the log holds twice the ``kept`` rows
    of the last compaction and twice the peer count, and once at its end).
    Row ids are only compared for equality, so a row id is a version token:
    a slot whose ``view`` is its source's latest row has folded the source's
    current links. ``view`` and the stamps are int32 (row ids and the learn
    clock raise past 2**31 - 1); ``key`` is int64, for Alg. 6's packed key.
    """

    __slots__ = (
        "key", "bucket", "mutual", "bitmap", "view",
        "mutual_stamp", "bitmap_stamp", "clock", "targets", "indptr", "rows", "kept",
    )

    def __init__(self, size: int):
        self.key = np.full(size, -1, dtype=np.int64)
        self.bucket = np.full(size, -1, dtype=np.int16)
        self.mutual = np.full(size, -1, dtype=np.int32)
        self.bitmap = np.full(size, None, dtype=object)
        self.view = np.full(size, -1, dtype=np.int32)
        self.mutual_stamp = np.full(size, -1, dtype=np.int32)
        self.bitmap_stamp = np.full(size, -1, dtype=np.int32)
        self.clock = 0
        self.targets = np.zeros(0, dtype=np.int32)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.rows = 0
        self.kept = 0

    def stamps(self, count: int) -> np.ndarray:
        """``count`` fresh learn stamps, ascending."""
        if self.clock + count > 2**31 - 1:
            raise OverflowError("learn stamps past the int32 stamp columns")
        self.clock += count
        return np.arange(self.clock - count, self.clock, dtype=np.int64)

    def append(self, owner: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
        """Append ``count`` rows to the link log; returns their ids.

        ``values[i]`` belongs to new row ``owner[i]`` (``0 <= owner < count``);
        order and repeats do not matter, each row is stored sorted and unique.
        """
        order = np.lexsort((values, owner))
        owner, values = owner[order], values[order]
        keep = np.ones(len(values), dtype=bool)
        keep[1:] = (owner[1:] != owner[:-1]) | (values[1:] != values[:-1])
        owner, values = owner[keep], values[keep]
        first, end = self.rows, int(self.indptr[self.rows])
        if first + count > 2**31 - 1:
            raise OverflowError("link log rows past the int32 view column")
        self.targets = _room(self.targets, end + len(values))
        self.indptr = _room(self.indptr, first + count + 1)
        self.targets[end : end + len(values)] = values
        self.indptr[first + 1 : first + count + 1] = end + np.cumsum(np.bincount(owner, minlength=count))
        self.rows += count
        return np.arange(first, first + count, dtype=np.int64)

    def row(self, row: int) -> list:
        """One log row as Python ints."""
        return self.targets[self.indptr[row] : self.indptr[row + 1]].tolist()

    def compact(self, heads: np.ndarray) -> None:
        """Keep only the rows a slot's ``view`` or one of ``heads`` names
        (``-1`` names none), renumbered in log order; both are rewritten in
        place and the arrays shrink to fit."""
        mark = np.zeros(self.rows, dtype=bool)
        mark[self.view[self.view >= 0]] = True
        mark[heads[heads >= 0]] = True
        keep = np.flatnonzero(mark)
        lengths = np.diff(self.indptr[: self.rows + 1])
        self.targets = self.targets[: self.indptr[self.rows]][np.repeat(mark, lengths)]
        self.indptr = np.concatenate(([0], np.cumsum(lengths[keep])))
        self.rows = self.kept = len(keep)
        for column in (self.view, heads):
            held = column >= 0
            column[held] = np.searchsorted(keep, column[held])


def _room(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy at least twice as long when it holds fewer than ``size``."""
    if size <= len(array):
        return array
    grown = np.zeros(max(size, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown
