"""Connection picker (paper Algorithm 6).

Within one LSH bucket, candidates are sorted by how many of the peer's
social neighborhood they already connect to (maximum coverage first); if
the runner-up offers strictly better upload bandwidth than the leader, it
wins — the paper's latency-awareness tie-break ("if PS(0).bw < PS(1).bw
return PS(1)").

Coverage values are the cached bitmap popcounts maintained by
:class:`~repro.core.peer.PeerState` at gossip-learn time.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = ["sort_candidates", "picker", "packed_key", "KEY_FIELD"]

#: 31-bit field ceiling for packed comparison keys (node ids and coverage
#: counts are both far below 2**31).
KEY_FIELD = (1 << 31) - 1


def packed_key(peer: int, coverage: int) -> int:
    """``sortPeers``' order without bandwidth — coverage desc, id asc — as
    one int: plain-int comparisons beat tuple keys on the per-round hot
    path, and ``key & KEY_FIELD`` recovers the peer."""
    return ((KEY_FIELD - coverage) << 31) | peer


def sort_candidates(
    candidates: Sequence[int],
    coverage: Mapping[int, int],
    upload_mbps: "np.ndarray | None" = None,
) -> list[int]:
    """Algorithm 6's ``sortPeers``: coverage desc, bandwidth desc, id asc."""

    def key(peer: int):
        bw = float(upload_mbps[peer]) if upload_mbps is not None else 0.0
        return (-coverage.get(peer, 0), -bw, peer)

    return sorted(candidates, key=key)


def picker(
    candidates: Sequence[int],
    coverage: Mapping[int, int],
    upload_mbps: "np.ndarray | None" = None,
) -> int:
    """Algorithm 6: choose the bucket member to link to."""
    if not candidates:
        raise ValueError("picker called on an empty bucket")
    if len(candidates) == 1:
        return next(iter(candidates))
    if upload_mbps is None:
        # No runner-up to weigh: the leader under sortPeers' key wins.
        get = coverage.get
        return min([packed_key(peer, get(peer, 0)) for peer in candidates]) & KEY_FIELD
    # Two-best scan under sortPeers' exact key: buckets are visited every
    # round, so the full sort is pure overhead beyond the leading pair.
    first = second = -1
    first_key = second_key = None
    for peer in candidates:
        key = (-coverage.get(peer, 0), -float(upload_mbps[peer]), peer)
        if first_key is None or key < first_key:
            second, second_key = first, first_key
            first, first_key = peer, key
        elif second_key is None or key < second_key:
            second, second_key = peer, key
    if float(upload_mbps[first]) < float(upload_mbps[second]):
        return second
    return first
