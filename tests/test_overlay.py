"""Overlay substrate: ring links, routing tables, greedy routing."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import SYSTEMS
from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.metrics.availability import churn_availability
from repro.net.churn import ChurnModel
from repro.overlay.base import OverlayNetwork, RoutingTable
from repro.overlay.doctor import check_overlay
from repro.overlay.ring import RingIndex
from repro.overlay.routing import GreedyRouter
from repro.util.exceptions import ConfigurationError
from tests.test_routing_index import friend_pairs


class TestRingLinks:
    """The clockwise order every overlay's short-range links follow."""

    def test_forms_single_cycle(self):
        ids = np.array([0.1, 0.7, 0.3, 0.9, 0.5])
        _, succ = RingIndex(ids).pred_succ()
        # Follow successors: must visit all nodes exactly once.
        seen = []
        node = 0
        for _ in range(len(ids)):
            seen.append(node)
            node = int(succ[node])
        assert sorted(seen) == list(range(len(ids)))
        assert node == 0

    def test_pred_succ_inverse(self):
        pred, succ = RingIndex(np.array([0.4, 0.2, 0.8])).pred_succ()
        assert pred[succ].tolist() == [0, 1, 2]
        assert succ[pred].tolist() == [0, 1, 2]

    def test_duplicate_ids_still_cycle(self):
        # Equal identifiers are ordered by node index: still one cycle.
        pred, succ = RingIndex(np.array([0.5, 0.5, 0.5])).pred_succ()
        assert succ.tolist() == [1, 2, 0]
        assert pred.tolist() == [2, 0, 1]

    def test_two_peers(self):
        pred, succ = RingIndex(np.array([0.1, 0.9])).pred_succ()
        assert pred.tolist() == [1, 0]
        assert succ.tolist() == [1, 0]

    def test_single_peer_rejected(self):
        with pytest.raises(ConfigurationError):
            RingIndex(np.array([0.5])).pred_succ()

    @given(st.lists(st.floats(min_value=0, max_value=1, exclude_max=True), min_size=2, max_size=30, unique=True))
    @settings(max_examples=40)
    def test_successor_is_clockwise_nearest(self, raw_ids):
        ids = np.array(raw_ids)
        point = 0.42
        succ = RingIndex(ids).successor_of(point)
        # successor must be the smallest id >= point, or the global min.
        geq = ids[ids >= point]
        expected = geq.min() if geq.size else ids.min()
        assert ids[succ] == expected

    def test_predecessor_wraps(self):
        ring = RingIndex(np.array([0.2, 0.6]))
        assert ring.successor_of(0.7) == 0  # wraps to the smallest id


class TestRoutingTable:
    def test_self_link_refused(self):
        t = RoutingTable(0, max_long=2)
        assert not t.add_long(0)

    def test_re_add_is_noop_success(self):
        t = RoutingTable(0, max_long=1)
        assert t.add_long(1)
        assert t.add_long(1)

    def test_all_links_includes_ring(self):
        t = RoutingTable(0, max_long=2)
        t.predecessor, t.successor = 5, 6
        t.add_long(1)
        assert t.all_links() == {1, 5, 6}

    def test_drop(self):
        t = RoutingTable(0, max_long=2)
        t.add_long(1)
        t.drop_long(1)
        t.drop_long(99)  # absent is fine
        assert t.long_links == ()

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            RoutingTable(0, max_long=-1)


class _LineOverlay(OverlayNetwork):
    """Deterministic overlay for routing tests: ids 0, 0.1, ..., ring only."""

    name = "line"

    def build(self, seed=None):
        n = self.graph.num_nodes
        self.ids[:] = np.arange(n) / n
        self._refresh_ring()
        self._mark_built()
        return self


@pytest.fixture()
def line_overlay():
    n = 10
    graph = SocialGraph(n, [(i, (i + 1) % n) for i in range(n)])
    return _LineOverlay(graph, k_links=2).build()


class TestGreedyRouter:
    def test_trivial_self_route(self, line_overlay):
        r = GreedyRouter(line_overlay).route(3, 3)
        assert r.delivered and r.path == [3] and r.hops == 0

    def test_ring_route_shortest_direction(self, line_overlay):
        r = GreedyRouter(line_overlay, lookahead=False).route(0, 3)
        assert r.delivered
        assert r.path == [0, 1, 2, 3]

    def test_ring_route_wraps(self, line_overlay):
        r = GreedyRouter(line_overlay, lookahead=False).route(0, 8)
        assert r.delivered
        assert r.path == [0, 9, 8]

    def test_long_link_shortcut_used(self, line_overlay):
        line_overlay.tables[0].add_long(5)
        r = GreedyRouter(line_overlay, lookahead=False).route(0, 5)
        assert r.path == [0, 5]

    def test_lookahead_two_hop(self, line_overlay):
        # 0 links to 4; 4 links to 7: lookahead should find 0->4->7.
        line_overlay.tables[0].add_long(4)
        line_overlay.tables[4].add_long(7)
        r = GreedyRouter(line_overlay, lookahead=True).route(0, 7)
        assert r.path == [0, 4, 7]

    def test_offline_destination_fails(self, line_overlay):
        online = np.ones(10, dtype=bool)
        online[3] = False
        r = GreedyRouter(line_overlay).route(0, 3, online=online)
        assert not r.delivered

    def test_detour_around_offline_with_detection(self, line_overlay):
        online = np.ones(10, dtype=bool)
        online[1] = False  # clockwise path blocked
        r = GreedyRouter(line_overlay, lookahead=False).route(0, 2, online=online)
        assert r.delivered
        assert 1 not in r.path

    def test_blind_forwarding_loses_message(self, line_overlay):
        online = np.ones(10, dtype=bool)
        online[1] = False
        r = GreedyRouter(line_overlay, lookahead=False).route(
            0, 2, online=online, detect_failures=False
        )
        assert not r.delivered
        assert r.path[-1] == 1  # died in 1's hands

    def test_max_hops_caps(self, line_overlay):
        r = GreedyRouter(line_overlay, lookahead=False, max_hops=1).route(0, 5)
        assert not r.delivered

    def test_route_many(self, line_overlay):
        results = GreedyRouter(line_overlay).route_many([(0, 1), (2, 5)])
        assert all(r.delivered for r in results)

    def test_unbuilt_overlay_rejected(self):
        graph = SocialGraph(4, [(0, 1), (1, 2), (2, 3)])
        overlay = _LineOverlay(graph)
        with pytest.raises(ConfigurationError):
            overlay.connections()


class TestOverlayBase:
    def test_k_default_log2(self):
        graph = SocialGraph(64, [(i, (i + 1) % 64) for i in range(64)])
        overlay = _LineOverlay(graph)
        assert overlay.k_links == 6

    def test_incoming_cap(self, line_overlay):
        target = 5
        accepted = [src for src in range(10) if line_overlay.try_accept_incoming(src, target)]
        assert accepted == [0, 1]  # k_links == 2
        assert line_overlay.admitted(target) == (0, 1)
        assert line_overlay.incoming_count[target] == 2
        # A held slot is re-admitted; recovery's slack admits past the cap.
        assert line_overlay.try_accept_incoming(0, target)
        assert line_overlay.try_accept_incoming(9, target, slack=1)
        assert line_overlay.incoming_count[target] == 3

    def test_connections_are_links_plus_admitted_sources(self, line_overlay):
        line_overlay.tables[4].add_long(0)
        line_overlay.tables[6].add_long(0)
        assert line_overlay.try_accept_incoming(4, 0)
        indptr, indices = line_overlay.connections()
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 4, 9]  # ascending, once each
        assert 6 not in indices[indptr[0] : indptr[1]]  # never admitted: one-way


def _ring_from_index(overlay) -> bool:
    pred, succ = RingIndex(overlay.ids).pred_succ()
    return np.array_equal(overlay.ring_pred, pred) and np.array_equal(overlay.ring_succ, succ)


class TestRingWriter:
    """Every overlay stores its ring through ``OverlayNetwork._refresh_ring``.

    The route digests are sha256 over the paths of 2 000 friend pairs on
    facebook 400/7, built with seed 7. Vitis and OMen admit no incoming
    link, so theirs are still the ones recorded when each baseline wrote
    its ring through per-table setters; the other four were re-recorded
    when admitted links began to carry routes both ways, and SELECT's
    again when a route's source began to read its friend's table.
    """

    @pytest.mark.parametrize(
        "system, digest",
        [
            ("select", "e9545147e253292a"),
            ("symphony", "878a76fcca718560"),
            ("bayeux", "821f8b499a36fca7"),
            ("vitis", "611aa3c9f035060a"),
            ("omen", "2c2f96ea18cc2e03"),
            ("random", "cdc56eaa87ee2069"),
        ],
    )
    def test_built_ring_is_the_index_and_routes_are_pinned(self, system, digest):
        graph = load_dataset("facebook", num_nodes=400, seed=7)
        overlay = SYSTEMS[system](graph, k_links=None).build(seed=7)
        assert _ring_from_index(overlay)
        report = check_overlay(overlay)
        assert report.consistent_ring and report.leaked_slots == []
        routes = overlay.make_router().route_many(friend_pairs(graph, count=2000, seed=7))
        paths = json.dumps([r.path for r in routes]).encode("utf-8")
        assert hashlib.sha256(paths).hexdigest()[:16] == digest

    @pytest.fixture()
    def churned(self, small_graph):
        return SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=3)

    def test_oracle_restitches_exactly_the_live_ring(self, churned):
        overlay = churned
        online = np.random.default_rng(4).random(overlay.graph.num_nodes) < 0.7
        pred_before, succ_before = overlay.ring_pred.copy(), overlay.ring_succ.copy()
        RecoveryManager(overlay).tick(online)
        live, offline = np.flatnonzero(online), np.flatnonzero(~online)
        pred, succ = RingIndex(overlay.ids[live]).pred_succ()
        assert np.array_equal(overlay.ring_pred[live], live[pred])
        assert np.array_equal(overlay.ring_succ[live], live[succ])
        assert np.array_equal(overlay.ring_pred[offline], pred_before[offline])
        assert np.array_equal(overlay.ring_succ[offline], succ_before[offline])
        assert check_overlay(overlay, online=online).consistent_ring
        # Back to everyone online: the full ring again.
        RecoveryManager(overlay).tick(np.ones(overlay.graph.num_nodes, dtype=bool))
        assert _ring_from_index(overlay)

    def test_churn_availability_is_pinned(self, churned, small_graph):
        # Blind forwarding, so every point depends on the re-stitched ring.
        matrix = ChurnModel(small_graph.num_nodes, seed=3).online_matrix(horizon=1200.0, ticks=4)
        points = churn_availability(
            churned, matrix, lookups_per_tick=25, repair=RecoveryManager(churned).tick,
            detect_failures=False, seed=5,
        )
        assert [(p.online_fraction, p.availability) for p in points] == [
            (0.7416666666666667, 0.88),
            (0.7166666666666667, 0.84),
            (0.675, 1.0),
            (0.6583333333333333, 0.92),
        ]
        ring = churned.ring_pred.tobytes() + churned.ring_succ.tobytes()
        assert hashlib.sha256(ring).hexdigest()[:16] == "fe3f422b16c81db6"
