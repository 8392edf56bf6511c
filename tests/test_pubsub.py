"""Pub/sub layer: routing tree and the public API."""

import numpy as np
import pytest

from repro.baselines.registry import build_overlay
from repro.pubsub.api import PubSubSystem
from repro.pubsub.tree import RoutingTree
from repro.util.exceptions import ConfigurationError


class TestRoutingTree:
    def test_single_path(self):
        tree = RoutingTree(0)
        tree.add_path([0, 1, 2])
        assert tree.nodes == {0, 1, 2}
        assert tree.parent[2] == 1
        assert tree.depth_of(2) == 2

    def test_paths_merge_at_shared_prefix(self):
        tree = RoutingTree(0)
        tree.add_path([0, 1, 2])
        tree.add_path([0, 1, 3])
        assert tree.children[1] == [2, 3] or set(tree.children[1]) == {2, 3}
        assert len(tree) == 4

    def test_revisited_node_keeps_first_parent(self):
        tree = RoutingTree(0)
        tree.add_path([0, 1, 2])
        tree.add_path([0, 3, 2])  # 2 already reached via 1
        assert tree.parent[2] == 1
        assert 2 not in tree.children.get(3, [])

    def test_wrong_root_rejected(self):
        tree = RoutingTree(0)
        with pytest.raises(ValueError):
            tree.add_path([1, 2])

    def test_empty_path_noop(self):
        tree = RoutingTree(0)
        tree.add_path([])
        assert len(tree) == 1

    def test_relay_nodes(self):
        tree = RoutingTree(0)
        tree.add_path([0, 9, 1])  # 9 relays toward subscriber 1
        tree.add_path([0, 2])
        assert tree.relay_nodes(subscribers=[1, 2]) == {9}

    def test_edges_and_children_map(self):
        tree = RoutingTree(0)
        tree.add_path([0, 1])
        assert tree.edges() == [(0, 1)]
        cm = tree.children_map()
        cm[0].append(99)  # copies, not views
        assert tree.children[0] == [1]

    def test_contains(self):
        tree = RoutingTree(0)
        tree.add_path([0, 4])
        assert 4 in tree and 5 not in tree


class TestPubSubSystem:
    @pytest.fixture(scope="class")
    def pubsub(self, built_select):
        return PubSubSystem(built_select)

    def test_subscribers_are_friends(self, pubsub):
        subs = pubsub.subscribers_of(0)
        assert set(subs) == set(pubsub.graph.neighbors(0).tolist())

    def test_interest_function_filters(self, built_select):
        even_only = PubSubSystem(built_select, interest=lambda s, b: s % 2 == 0)
        assert all(s % 2 == 0 for s in even_only.subscribers_of(0))

    def test_publish_delivers_to_all(self, pubsub):
        for b in (0, 5, 11):
            result = pubsub.publish(b)
            assert result.delivery_ratio == 1.0
            assert set(result.delivered) == set(result.subscribers)
            assert not result.failed

    def test_tree_rooted_at_publisher(self, pubsub):
        result = pubsub.publish(3)
        assert result.tree.root == 3
        for s in result.delivered:
            assert s in result.tree

    def test_per_path_metrics_consistent(self, pubsub):
        result = pubsub.publish(8)
        assert len(result.per_path_hops) == len(result.delivered)
        assert len(result.per_path_relays()) == len(result.delivered)
        assert all(h >= 1 for h in result.per_path_hops)
        assert all(r >= 0 for r in result.per_path_relays())

    def test_relays_never_subscribers(self, pubsub):
        result = pubsub.publish(2)
        relays = result.relay_nodes
        assert not (relays & set(result.subscribers))
        assert result.publisher not in relays

    def test_online_mask_restricts_subscribers(self, pubsub, built_select):
        n = built_select.graph.num_nodes
        online = np.ones(n, dtype=bool)
        subs = pubsub.subscribers_of(6)
        online[subs[0]] = False
        result = pubsub.publish(6, online=online)
        assert subs[0] not in result.subscribers

    def test_invalid_publisher_rejected(self, pubsub):
        with pytest.raises(ConfigurationError):
            pubsub.publish(10**6)

    def test_lookup_matches_router(self, pubsub):
        r = pubsub.lookup(0, 1)
        assert r.path[0] == 0 and (not r.delivered or r.path[-1] == 1)

    def test_empty_subscriber_delivery_ratio_is_one(self, built_select):
        nobody = PubSubSystem(built_select, interest=lambda s, b: False)
        assert nobody.publish(0).delivery_ratio == 1.0


class TestAcrossSystems:
    @pytest.mark.parametrize("system", ["symphony", "bayeux", "vitis", "omen", "random"])
    def test_every_system_delivers_fully_without_churn(self, small_graph, system):
        overlay = build_overlay(system, small_graph, seed=31)
        pubsub = PubSubSystem(overlay)
        for b in (1, 17):
            assert pubsub.publish(b).delivery_ratio == 1.0
