"""Bit-sampling LSH for Hamming space.

The classic family for binary vectors: sample ``num_samples`` fixed bit
positions; the signature is the concatenation of those bits. Two bitmaps at
normalized Hamming similarity ``s`` share a signature with probability
``s ** num_samples``. Buckets are derived from signatures with a fixed
multiplicative hash, so equal signatures always share a bucket.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.util.rng import as_generator

__all__ = ["BitSamplingLsh", "bucket_table", "sample_positions", "sample_rows"]

# Knuth's multiplicative constant; spreads signatures over buckets.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class BitSamplingLsh:
    """Bit-sampling family over int bitmaps of ``nbits`` logical bits.

    Parameters
    ----------
    nbits:
        Logical width of the bitmaps to be hashed (``|C_p|`` in SELECT).
    num_samples:
        Number of sampled positions; more samples = finer buckets. SELECT
        uses few samples so that friends covering roughly the same part of
        the neighborhood still collide.
    seed:
        Seeds the sampled positions; peers in a simulation share the seed so
        that their local indexes agree.
    """

    __slots__ = ("positions",)

    def __init__(self, nbits: int, num_samples: int = 8, seed=None):
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        #: the sampled bit positions, in draw order (:func:`sample_positions`).
        self.positions = sample_positions(nbits, num_samples, seed)

    def signature(self, item: int) -> int:
        """Concatenate the sampled bits of ``item`` into an integer signature."""
        sig = 0
        for pos in self.positions.tolist():
            sig = (sig << 1) | ((item >> pos) & 1)
        return sig

    def bucket(self, item: int, num_buckets: int) -> int:
        """Deterministic bucket in ``[0, num_buckets)`` for ``item``."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        return _mix(self.signature(item)) % num_buckets


def sample_positions(nbits: int, num_samples: int, seed=None) -> np.ndarray:
    """The ``min(num_samples, nbits)`` distinct bit positions a family over
    ``nbits`` bits samples, in draw order, from ``seed``'s stream."""
    return as_generator(seed).choice(nbits, size=min(num_samples, nbits), replace=False)


def sample_rows(nbits: np.ndarray, num_samples: int, seed: int) -> np.ndarray:
    """Row ``v``: :func:`sample_positions` over ``nbits[v]`` bits from
    ``seed + v``, right-aligned in ``num_samples`` int32 slots (``-1`` pads)."""
    rows = np.full((len(nbits), num_samples), -1, dtype=np.int32)
    for v, width in enumerate(nbits.tolist()):
        positions = sample_positions(width, num_samples, seed + v)
        rows[v, num_samples - len(positions) :] = positions
    return rows


def _mix(signature: int) -> int:
    return ((signature & _MASK) * _MIX) & _MASK


@cache
def bucket_table(num_samples: int, num_buckets: int) -> np.ndarray:
    """``bucket`` of every signature of up to ``num_samples`` bits, indexed by
    it; one shared array per argument pair, so it is read only."""
    table = np.array([_mix(sig) % num_buckets for sig in range(1 << num_samples)], dtype=np.int16)
    table.flags.writeable = False
    return table
