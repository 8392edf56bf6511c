"""Bit-sampling LSH for Hamming space.

The classic family for binary vectors: sample ``num_samples`` fixed bit
positions; the signature is the concatenation of those bits. Two bitmaps at
normalized Hamming similarity ``s`` share a signature with probability
``s ** num_samples``. Buckets are derived from signatures with a fixed
multiplicative hash, so equal signatures always share a bucket.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_generator

__all__ = ["BitSamplingLsh"]

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

    __slots__ = ("nbits", "num_samples", "_positions", "_poslist")

    def __init__(self, nbits: int, num_samples: int = 8, seed=None):
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        self.nbits = nbits
        self.num_samples = min(num_samples, max(nbits, 1))
        rng = as_generator(seed)
        if nbits == 0:
            self._positions = np.zeros(0, dtype=np.int64)
        else:
            self._positions = rng.choice(nbits, size=self.num_samples, replace=nbits < self.num_samples)
        self._poslist = [int(p) for p in self._positions]

    @property
    def positions(self) -> np.ndarray:
        """The sampled bit positions (read-only)."""
        return self._positions

    def signature(self, item: int) -> int:
        """Concatenate the sampled bits of ``item`` into an integer signature."""
        sig = 0
        for pos in self._poslist:
            sig = (sig << 1) | ((item >> pos) & 1)
        return sig

    def bucket(self, item: int, num_buckets: int) -> int:
        """Deterministic bucket in ``[0, num_buckets)`` for ``item``."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        sig = self.signature(item) & _MASK
        return ((sig * _MIX) & _MASK) % num_buckets
