"""Ring arithmetic on the unit-interval identifier space ``[0, 1)``.

All functions accept scalars or numpy arrays and broadcast; hot callers
(routing, reassignment) pass whole arrays at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize",
    "ring_distance",
    "signed_ring_delta",
    "ring_midpoint",
]


def normalize(x):
    """Map any real value onto ``[0, 1)`` by wrapping around the ring.

    ``np.mod(x, 1.0)`` rounds to exactly 1.0 for tiny negative inputs
    (1 - eps is not representable near 1.0), which would put an identifier
    *outside* the ring; that case folds back to 0.0.
    """
    out = np.mod(x, 1.0)
    out = np.where(out >= 1.0, 0.0, out)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def ring_distance(a, b):
    """Shorter-arc distance between identifiers ``a`` and ``b``.

    ``d(a, b) = min(|a - b|, 1 - |a - b|)``; symmetric, bounded by 0.5.
    """
    if type(a) is float and type(b) is float:
        # Scalar fast path: this sits on the reassignment/routing hot loop
        # and the numpy ufunc machinery costs 10x the arithmetic here.
        diff = abs(a - b) % 1.0
        return diff if diff <= 0.5 else 1.0 - diff
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    diff = np.mod(diff, 1.0)
    out = np.minimum(diff, 1.0 - diff)
    return float(out) if np.isscalar(a) and np.isscalar(b) else out


def signed_ring_delta(a, b):
    """Signed shortest displacement from ``a`` to ``b`` in ``(-0.5, 0.5]``.

    ``normalize(a + signed_ring_delta(a, b)) == b`` along the shorter arc.
    """
    delta = np.mod(np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64), 1.0)
    out = np.where(delta > 0.5, delta - 1.0, delta)
    return float(out) if np.isscalar(a) and np.isscalar(b) else out


def ring_midpoint(a, b):
    """Midpoint of the *shorter* arc between ``a`` and ``b``.

    This is the "centroid" used by SELECT's identifier reassignment
    (Algorithm 2): a peer relocates between its two strongest friends.
    """
    return normalize(np.asarray(a, dtype=np.float64) + 0.5 * signed_ring_delta(a, b))
