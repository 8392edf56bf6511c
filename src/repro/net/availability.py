"""Cumulative Moving Average online-behaviour tracking (paper §III-F).

Each peer periodically pings its routing-table contacts and records
whether they responded. The CMA of those observations estimates a
contact's long-run availability: an unresponsive contact with *high* CMA
is probably in a temporary failure and is kept; one with *low* CMA is
mostly offline and gets replaced from the same LSH bucket.
"""

from __future__ import annotations

__all__ = ["CMA_THRESHOLD", "CMA_MIN_OBSERVATIONS", "CmaBook"]

#: CMA below which an unresponsive contact is deemed mostly-offline
#: (replace) rather than temporarily failed (keep).
CMA_THRESHOLD = 0.5

#: Observations of a contact required before a replace verdict: deciding a
#: user is mostly-offline from one missed ping would thrash links.
CMA_MIN_OBSERVATIONS = 3


class CmaBook(dict):
    """Every observer's CMA of each contact it pinged, one book per overlay:
    ``(observer, contact) -> (count, mean)`` in first-observation order (a
    forgotten contact observed again goes to the end)."""

    def observe(self, observer: int, contact: int, online: bool) -> None:
        """Fold one ping result of ``observer`` for ``contact`` in."""
        count, mean = self.get((observer, contact), (0, 0.0))
        count += 1
        self[observer, contact] = (count, mean + (float(online) - mean) / count)

    def should_replace(self, observer: int, contact: int) -> bool:
        """Replacement verdict for an *unresponsive* contact: "keep" before
        :data:`CMA_MIN_OBSERVATIONS` pings, then replace when the CMA is
        below :data:`CMA_THRESHOLD`."""
        count, mean = self.get((observer, contact), (0, 0.0))
        return count >= CMA_MIN_OBSERVATIONS and mean < CMA_THRESHOLD
