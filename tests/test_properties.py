"""Property-based tests on core invariants (hypothesis)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.projection import IdAllocator
from repro.graphs.graph import SocialGraph
from repro.idspace.space import normalize, ring_distance
from repro.overlay.ring import RingIndex
from repro.pubsub.tree import RoutingTree
from repro.util.rng import as_generator

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestNormalizeInvariant:
    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=100)
    def test_always_in_ring(self, x):
        out = float(normalize(x))
        assert 0.0 <= out < 1.0


class TestAllocatorInvariants:
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_unique_ids_any_invitation_pattern(self, inviter_choices):
        """Whatever the invitation pattern, allocated ids never collide."""
        alloc = IdAllocator(as_generator(9))
        ids: list[float] = []
        for user, choice in enumerate(inviter_choices):
            inviter_id = ids[choice] if (choice is not None and choice < len(ids)) else None
            new = alloc.allocate(user, inviter_id)
            assert 0.0 <= new < 1.0
            assert new not in ids
            ids.append(new)


class TestRingInvariants:
    @given(st.lists(unit, min_size=2, max_size=40))
    @settings(max_examples=50)
    def test_ring_is_permutation_cycle(self, raw_ids):
        ids = np.asarray(raw_ids)
        preds, succs = RingIndex(ids).pred_succ()
        # Successor/predecessor maps are permutations of all nodes.
        assert sorted(succs.tolist()) == list(range(len(ids)))
        assert sorted(preds.tolist()) == list(range(len(ids)))
        # And they form one cycle, not several.
        node, seen = 0, set()
        while node not in seen:
            seen.add(node)
            node = int(succs[node])
        assert len(seen) == len(ids)


class TestTreeInvariants:
    @given(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=8),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50)
    def test_merged_paths_always_form_tree(self, suffixes):
        """Any set of root-anchored paths merges into a proper tree."""
        tree = RoutingTree(0)
        for suffix in suffixes:
            tree.add_path([0] + suffix)
        # Tree property: every non-root node has exactly one parent, and
        # walking up from any node terminates at the root.
        for node in tree.nodes - {0}:
            assert node in tree.parent
            assert tree.depth_of(node) >= 1
        # Edge count = node count - 1.
        assert len(tree.edges()) == len(tree) - 1


class TestGraphInvariants:
    @given(
        st.integers(min_value=2, max_value=25),
        st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=80),
    )
    @settings(max_examples=50)
    def test_degree_sum_twice_edges(self, n, raw_edges):
        edges = [(u % n, v % n) for u, v in raw_edges if u % n != v % n]
        g = SocialGraph(n, edges)
        assert int(g.degrees.sum()) == 2 * g.num_edges

    @given(
        st.integers(min_value=2, max_value=20),
        st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
    )
    @settings(max_examples=50)
    def test_mutual_friends_symmetric(self, n, raw_edges):
        edges = [(u % n, v % n) for u, v in raw_edges if u % n != v % n]
        g = SocialGraph(n, edges)
        for u in range(0, n, 3):
            for v in range(1, n, 4):
                assert g.mutual_friends(u, v) == g.mutual_friends(v, u)


class TestDistanceMetricProperties:
    @given(unit, unit, unit)
    @settings(max_examples=60)
    def test_ring_distance_is_metric(self, a, b, c):
        assert ring_distance(a, a) == 0.0
        assert ring_distance(a, b) == ring_distance(b, a)
        assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c) + 1e-12
