"""Social-network growth model (paper's citation [19], Zhu et al.).

The evaluation populates the overlay incrementally: a random seed user
joins first, then at each step a registered user "invites" a batch of
not-yet-registered friends, with the batch size decaying exponentially
over time (high join rate early, tapering later). The resulting join
order and inviter mapping feed SELECT's projection step (Algorithm 1):
invited users receive identifiers adjacent to their inviter, independent
joiners get uniform hashes.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.util.rng import as_generator

__all__ = ["GrowthModel"]

#: Per-step multiplicative decay of the invitation rate; the rate floors at
#: 1 so growth always completes.
DECAY = 0.92

#: Fraction of users that join independently (uniform-hash ids) even when a
#: registered friend exists — new users are not always invited.
SEED_FRACTION = 0.1


class GrowthModel:
    """Generates a join order over ``graph``, the final social graph the
    network grows into. The expected number of friends invited per step
    starts at ``max(8, n / 25)`` and decays by :data:`DECAY` a step."""

    def __init__(self, graph: SocialGraph, seed=None):
        self.graph = graph
        self._rng = as_generator(seed)

    def join_order(self) -> np.ndarray:
        """The join log covering every user of the graph once, as int
        columns ``(user, inviter, step)`` in join order: ``inviter`` is the
        already-registered friend that pulled the user in, ``-1`` for an
        independent (seed) joiner.

        Independent joins draw the k-th not-yet-joined user through a
        Fenwick tree (O(log n) select) instead of materialising the
        remaining-user array per draw, and a frontier collision removes
        the single stale entry in place instead of rebuilding the list.
        Both replacements consume the identical random stream and visit
        users in the identical order as the straightforward O(n^2)
        formulation, so join sequences are reproducible across versions.
        """
        g = self.graph
        n = g.num_nodes
        rng = self._rng
        joined = np.zeros(n, dtype=bool)
        users: list[int] = []
        inviters: list[int] = []
        steps: list[int] = []
        # Frontier: not-yet-joined friends of members, in insertion order;
        # each user appears at most once, with its inviter kept aside.
        frontier: list[int] = []
        inviter_of: dict[int, int] = {}
        in_frontier = np.zeros(n, dtype=bool)
        # Fenwick tree counting not-yet-joined users per prefix. The k-th
        # smallest unjoined user equals ``np.flatnonzero(~joined)[k]``.
        fenwick = [0] * (n + 1)
        for i in range(1, n + 1):
            fenwick[i] += 1
            j = i + (i & -i)
            if j <= n:
                fenwick[j] += fenwick[i]
        unjoined = n
        # Highest power of two <= n, for the top-down k-th select descent.
        top_bit = 1 << (n.bit_length() - 1)
        if top_bit > n:
            top_bit >>= 1

        def mark_joined(user: int) -> None:
            i = user + 1
            while i <= n:
                fenwick[i] -= 1
                i += i & -i

        def kth_unjoined(k: int) -> int:
            # Descend to the largest prefix whose unjoined count is <= k.
            pos = 0
            bit = top_bit
            while bit:
                nxt = pos + bit
                if nxt <= n and fenwick[nxt] <= k:
                    pos = nxt
                    k -= fenwick[nxt]
                bit >>= 1
            return pos  # 0-based user id

        def register(user: int, inviter: int, step: int) -> None:
            joined[user] = True
            mark_joined(user)
            users.append(user)
            inviters.append(inviter)
            steps.append(step)
            for friend in g.neighbors(user):
                friend = int(friend)
                if not joined[friend] and not in_frontier[friend]:
                    frontier.append(friend)
                    inviter_of[friend] = user
                    in_frontier[friend] = True

        step = 0
        seed_user = int(rng.integers(n))
        register(seed_user, -1, step)
        unjoined -= 1
        rate = max(8.0, n / 25.0)
        while len(users) < n:
            step += 1
            batch = max(1, int(rng.poisson(max(rate, 1.0))))
            rate *= DECAY
            for _ in range(batch):
                if len(users) >= n:
                    break
                use_frontier = frontier and rng.random() >= SEED_FRACTION
                if use_frontier:
                    # Invitation join: pull a random frontier member in.
                    idx = int(rng.integers(len(frontier)))
                    user = frontier.pop(idx)
                    inviter = inviter_of.pop(user)
                    in_frontier[user] = False
                    if joined[user]:
                        continue
                    register(user, inviter, step)
                    unjoined -= 1
                else:
                    # Independent join: a user with no (chosen) inviter.
                    if unjoined == 0:
                        break
                    user = kth_unjoined(int(rng.integers(unjoined)))
                    if in_frontier[user]:
                        # Joining independently invalidates the pending invite.
                        in_frontier[user] = False
                        del frontier[frontier.index(user)]
                        del inviter_of[user]
                    register(user, -1, step)
                    unjoined -= 1
        return np.array([users, inviters, steps], dtype=np.int64)
