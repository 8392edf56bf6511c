"""Cumulative Moving Average online-behaviour tracking (paper §III-F).

Each peer periodically pings its routing-table contacts and records
whether they responded. The CMA of those observations estimates a
contact's long-run availability: an unresponsive contact with *high* CMA
is probably in a temporary failure and is kept; one with *low* CMA is
mostly offline and gets replaced from the same LSH bucket.
"""

from __future__ import annotations

__all__ = ["CMA_THRESHOLD", "CMA_MIN_OBSERVATIONS", "CumulativeMovingAverage", "OnlineBehavior"]

#: CMA below which an unresponsive contact is deemed mostly-offline
#: (replace) rather than temporarily failed (keep).
CMA_THRESHOLD = 0.5

#: Observations of a contact required before a replace verdict: deciding a
#: user is mostly-offline from one missed ping would thrash links.
CMA_MIN_OBSERVATIONS = 3


class CumulativeMovingAverage:
    """Streaming CMA over {0, 1} availability observations."""

    __slots__ = ("_count", "_mean")

    def __init__(self):
        self._count = 0
        self._mean = 0.0

    def update(self, online: bool) -> float:
        """Fold one observation in; returns the new average."""
        self._count += 1
        self._mean += (float(online) - self._mean) / self._count
        return self._mean

    @property
    def value(self) -> float:
        """Current average (0.0 before any observation)."""
        return self._mean

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CMA(value={self._mean:.3f}, n={self._count})"


class OnlineBehavior:
    """Per-contact CMA book-keeping for one observing peer."""

    def __init__(self):
        self._cma: dict[int, CumulativeMovingAverage] = {}

    def observe(self, contact: int, online: bool) -> float:
        """Record a ping result for ``contact``."""
        cma = self._cma.get(contact)
        if cma is None:
            cma = self._cma[contact] = CumulativeMovingAverage()
        return cma.update(online)

    def availability(self, contact: int) -> float:
        """Estimated availability (optimistic 1.0 for unknown contacts)."""
        cma = self._cma.get(contact)
        return cma.value if cma is not None else 1.0

    def should_replace(self, contact: int) -> bool:
        """Replacement decision for an *unresponsive* contact.

        Before :data:`CMA_MIN_OBSERVATIONS` pings the verdict is "keep";
        after, a CMA below :data:`CMA_THRESHOLD` replaces.
        """
        cma = self._cma.get(contact)
        if cma is None or cma.count < CMA_MIN_OBSERVATIONS:
            return False
        return cma.value < CMA_THRESHOLD

    def forget(self, contact: int) -> None:
        """Drop history for a contact (after replacing it)."""
        self._cma.pop(contact, None)

    def tracked(self) -> list[int]:
        """Contacts with at least one observation."""
        return sorted(self._cma)
