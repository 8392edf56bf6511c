"""Algorithm 1: projection / identifier assignment."""

import numpy as np
import pytest

from repro.core.projection import IdAllocator, assign_initial_ids
from repro.idspace.space import ring_distance
from repro.util.exceptions import ConfigurationError


def events_from(pairs):
    """A join log's ``(user, inviter, step)`` columns, ``None`` inviters as ``-1``."""
    rows = [(u, -1 if inv is None else inv, i) for i, (u, inv) in enumerate(pairs)]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


class TestIdAllocator:
    def test_independent_join_uses_uniform_hash(self, rng):
        alloc = IdAllocator(rng)
        x = alloc.allocate(5, None)
        assert 0.0 <= x < 1.0

    def test_invited_adjacent_to_inviter(self, rng):
        alloc = IdAllocator(rng)
        anchor = alloc.allocate(0, None)
        invited = alloc.allocate(1, anchor)
        # With only one occupant, the new peer takes the antipode; with
        # more occupants the gap shrinks. Either way it's clockwise-next.
        assert invited != anchor

    def test_gap_halving_keeps_invitees_close(self, rng):
        alloc = IdAllocator(rng)
        anchor = alloc.allocate(0, None)
        # Spread a few other peers around the ring first.
        for user in range(1, 9):
            alloc.allocate(user, None)
        invited = alloc.allocate(100, anchor)
        others = [alloc.allocate(200 + i, None) for i in range(3)]
        d_inv = ring_distance(float(invited), float(anchor))
        assert d_inv < 0.5  # strictly inside the gap

    def test_ids_unique(self, rng):
        alloc = IdAllocator(rng)
        anchor = alloc.allocate(0, None)
        ids = {anchor}
        for user in range(1, 200):
            x = alloc.allocate(user, anchor)  # hammer the same inviter
            assert x not in ids
            ids.add(x)

    def test_saturated_gap_falls_back_to_uniform(self, rng):
        # Extreme chaining underflows float gaps; must not hang and must
        # stay unique.
        alloc = IdAllocator(rng)
        prev = alloc.allocate(0, None)
        seen = {prev}
        for user in range(1, 400):
            prev = alloc.allocate(user, prev)
            assert prev not in seen
            seen.add(prev)


class TestAssignInitialIds:
    def test_chain_of_invitations(self):
        events = events_from([(0, None), (1, 0), (2, 1), (3, None)])
        ids = assign_initial_ids(4, events, seed=1)
        assert len(set(ids.tolist())) == 4
        assert ((ids >= 0) & (ids < 1)).all()

    def test_invited_users_near_inviters_on_average(self):
        n = 60
        pairs = [(0, None)] + [(u, u - 1) for u in range(1, n)]
        ids = assign_initial_ids(n, events_from(pairs), seed=2)
        inviter_d = np.array(
            [ring_distance(float(ids[u]), float(ids[u - 1])) for u in range(1, n)]
        )
        rng = np.random.default_rng(0)
        random_d = np.array(
            [
                ring_distance(float(ids[a]), float(ids[b]))
                for a, b in rng.integers(0, n, size=(200, 2))
                if a != b
            ]
        )
        assert np.median(inviter_d) < np.median(random_d)

    def test_wrong_event_count_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_initial_ids(3, events_from([(0, None)]), seed=1)

    def test_double_join_rejected(self):
        events = events_from([(0, None), (0, None)])
        with pytest.raises(ConfigurationError):
            assign_initial_ids(2, events, seed=1)

    def test_invite_before_join_rejected(self):
        events = events_from([(0, 1), (1, None)])
        with pytest.raises(ConfigurationError):
            assign_initial_ids(2, events, seed=1)

    def test_deterministic(self):
        events = events_from([(0, None), (1, 0), (2, 0)])
        a = assign_initial_ids(3, events, seed=5)
        b = assign_initial_ids(3, events, seed=5)
        assert np.array_equal(a, b)
