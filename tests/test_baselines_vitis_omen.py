"""Iterative gossip baselines: Vitis and OMen."""

import numpy as np
import pytest

from repro.baselines.omen import OmenOverlay
from repro.baselines.vitis import VitisOverlay
from repro.pubsub.api import PubSubSystem


@pytest.fixture(scope="module")
def vitis(small_graph):
    return VitisOverlay(small_graph).build(seed=17)


@pytest.fixture(scope="module")
def omen(small_graph):
    return OmenOverlay(small_graph).build(seed=17)


class TestVitis:
    def test_iterative_construction(self, vitis):
        assert vitis.iterative
        assert vitis.iterations > 0

    def test_score_is_shared_subscriptions(self, small_graph):
        overlay = VitisOverlay(small_graph)
        # subs(v) = friends(v) + {v}; score counts the overlap.
        u = 0
        v = int(small_graph.neighbors(0)[0])
        expected = len(
            (set(small_graph.neighbors(u).tolist()) | {u})
            & (set(small_graph.neighbors(v).tolist()) | {v})
        )
        assert overlay.score(u, v) == expected

    def test_links_within_budget(self, vitis):
        for table in vitis.tables:
            assert len(table.long_links) <= vitis.k_links

    def test_cluster_connectivity_nontrivial(self, vitis):
        values = [vitis.topic_connectivity(t) for t in range(0, 60, 7)]
        assert np.mean(values) > 0.3

    def test_dissemination_delivers(self, vitis):
        pubsub = PubSubSystem(vitis)
        result = pubsub.publish(2)
        assert result.delivery_ratio == 1.0

    def test_cluster_paths_have_no_relays(self, vitis):
        """Subscribers reached through the cluster never use relays."""
        pubsub = PubSubSystem(vitis)
        result = pubsub.publish(5)
        members = set(result.subscribers) | {5}
        for s, route in result.routes.items():
            if route.delivered and all(v in members for v in route.path):
                # Pure cluster path -> zero relay nodes by definition.
                assert all(v in members for v in route.path[1:-1])


class TestOmen:
    def test_iterative_construction(self, omen):
        assert omen.iterative
        assert omen.iterations > 0

    def test_targets_prepared(self, omen):
        assert any(omen._target[v] for v in range(omen.graph.num_nodes))

    def test_score_ranks_targets_above_shadows(self, omen):
        v = next(u for u in range(omen.graph.num_nodes) if omen._target[u] and omen._shadow[u])
        target = next(iter(omen._target[v]))
        shadow = next(iter(omen._shadow[v]))
        assert omen.score(v, target) > omen.score(v, shadow) > 0

    def test_links_within_budget(self, omen):
        for table in omen.tables:
            assert len(table.long_links) <= omen.k_links

    def test_dissemination_delivers(self, omen):
        pubsub = PubSubSystem(omen)
        assert pubsub.publish(7).delivery_ratio == 1.0

    def test_tco_connectivity_high(self, omen):
        values = [omen.topic_connectivity(t) for t in range(0, 60, 7)]
        assert np.mean(values) > 0.5


class TestFigure5Ordering:
    def test_select_converges_faster_than_gossip_baselines(
        self, built_select, vitis, omen
    ):
        assert built_select.iterations < vitis.iterations
        assert built_select.iterations < omen.iterations
