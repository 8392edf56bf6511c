"""The unit-interval ring identifier space shared by every overlay.

Peers are positioned on the circular ID space ``I = [0, 1)``; the ring
distance between two identifiers is the shorter arc between them. SELECT's
contribution is that peer identifiers are *mutable*: the projection and
reassignment algorithms move socially close peers into the same ID region.
"""

from repro.idspace.space import (
    normalize,
    ring_distance,
    ring_midpoint,
    signed_ring_delta,
)
from repro.idspace.hashing import stable_digest, uniform_hash, uniform_hashes

__all__ = [
    "normalize",
    "ring_distance",
    "ring_midpoint",
    "signed_ring_delta",
    "stable_digest",
    "uniform_hash",
    "uniform_hashes",
]
