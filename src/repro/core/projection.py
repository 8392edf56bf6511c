"""Projection — initial identifier assignment (paper Algorithm 1).

A user invited by a registered friend gets an identifier at minimal ring
distance from the inviter's peer (``D_p <- min_D d_I(u, v)``); an
independent joiner gets a uniform hash. Complexity O(1) per peer (O(log N)
with the occupancy index), O(N) for the full projection, matching the
paper's analysis (Eq. 3).

Minimal distance is implemented as *ring insertion*: the new peer takes
the midpoint of the gap between the inviter and the inviter's current ring
successor. Placing joiners a fixed epsilon away would telescope whole
invitation chains onto a single point and destroy the ring's resolution;
gap-midpoint insertion keeps invited friends adjacent to their inviter
while the occupied identifier space stays spread over ``[0, 1)`` — the
clustered-but-covering distribution of Figure 8.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.idspace.hashing import uniform_hash
from repro.idspace.space import normalize
from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["IdAllocator", "assign_initial_ids"]


class IdAllocator:
    """Incremental Algorithm 1: allocates ids as users join the overlay."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._occupied: list[float] = []  # sorted ids currently in use
        self._taken: set[float] = set()

    def allocate(self, user: int, inviter_id: "float | None") -> float:
        """Identifier for ``user``; ``inviter_id`` None = independent join."""
        if inviter_id is None:
            new_id = self._fresh_uniform(user)
        else:
            new_id = self._insert_after(float(inviter_id))
        bisect.insort(self._occupied, new_id)
        self._taken.add(new_id)
        return new_id

    def _fresh_uniform(self, user: int) -> float:
        """Uniform hash, re-salted on (astronomically unlikely) collision."""
        salt = 0
        while True:
            candidate = uniform_hash(user, salt=salt)
            if candidate not in self._taken:
                return candidate
            salt += 1

    def _insert_after(self, inviter_id: float) -> float:
        """Midpoint of the gap clockwise from the inviter's identifier.

        Repeated insertions behind a very popular inviter halve the same
        gap until it underflows float64; when the local gap is exhausted
        the joiner falls back to a fresh uniform identifier (the region is
        saturated — there is no closer position to give out).
        """
        occ = self._occupied
        if not occ:
            return inviter_id if inviter_id not in self._taken else normalize(inviter_id + 0.5)
        pos = bisect.bisect_right(occ, inviter_id)
        succ = occ[pos % len(occ)]
        gap = normalize(succ - inviter_id)
        if gap <= 0.0:
            gap = 1.0  # single occupant: the whole ring is the gap
        candidate = normalize(inviter_id + gap / 2.0)
        for _ in range(8):
            if candidate not in self._taken and candidate != inviter_id:
                return candidate
            candidate = normalize(inviter_id + gap * float(self._rng.uniform(0.25, 0.75)))
        # Local gap saturated below float resolution: give out a fresh
        # uniform position instead of spinning.
        while True:
            candidate = float(self._rng.random())
            if candidate not in self._taken:
                return candidate


def assign_initial_ids(num_nodes: int, join_log: np.ndarray, seed=None) -> np.ndarray:
    """Project a whole join log — the ``(user, inviter, step)`` columns of
    :meth:`~repro.net.growth.GrowthModel.join_order`, ``-1`` for no inviter —
    into the ID space.

    The log must cover every node exactly once and an inviter must have
    joined before the users it invites.
    """
    users, inviters = join_log[0].tolist(), join_log[1].tolist()
    if len(users) != num_nodes:
        raise ConfigurationError(f"join sequence covers {len(users)} users, expected {num_nodes}")
    allocator = IdAllocator(as_generator(seed))
    ids = np.full(num_nodes, -1.0, dtype=np.float64)
    for user, inviter in zip(users, inviters):
        if ids[user] >= 0:
            raise ConfigurationError(f"user {user} joins twice")
        if inviter < 0:
            inviter_id = None
        else:
            if ids[inviter] < 0:
                raise ConfigurationError(f"user {user} invited by {inviter} before it joined")
            inviter_id = float(ids[inviter])
        ids[user] = allocator.allocate(user, inviter_id)
    return ids
