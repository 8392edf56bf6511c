"""Hot-path regression suite: link-view cache, batch routing, bugfix pins.

Covers the PR 4 invariants:

* the cached :meth:`RoutingTable.link_view` equals a fresh ``all_links()``
  after arbitrary add/drop/rebind/ring-refresh sequences (property test),
* ``disseminate`` orders subscribers by ring distance across the 0/1 seam,
* ``route_many`` has full parameter parity with ``route`` (blind
  forwarding, tracing),
* bandwidth eviction counts as churn on the evicted peer,
* the cached, indexed router is path-identical to a scan over uncached links,
* the scale harness emits schema-valid rows that say whether the build
  converged, and the committed ``BENCH_hotpath.json`` holds only
  converged ones.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.idspace.space import ring_distance
from repro.net.bandwidth import BandwidthModel
from repro.overlay.base import OverlayNetwork, RoutingTable
from repro.overlay.routing import GreedyRouter
from tests.test_routing_index import BruteForceRouter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fresh_links(table: RoutingTable) -> set:
    """Reference recomputation of the combined link set (pre-cache code)."""
    out = set(table.long_links)
    if table.predecessor is not None:
        out.add(table.predecessor)
    if table.successor is not None:
        out.add(table.successor)
    out.discard(table.owner)
    return out


# -- link-view cache ----------------------------------------------------------

#: every in-place mutator of ``_LinkSet`` (each must dirty the table).
_SET_OPS = {
    "raw_add": lambda links, arg: links.add(arg),
    "raw_discard": lambda links, arg: links.discard(arg),
    "remove": lambda links, arg: links.remove(arg) if arg in links else None,
    "pop": lambda links, arg: links.pop() if links else None,
    "clear": lambda links, arg: links.clear(),
    "update": lambda links, arg: links.update({arg, (arg + 3) % 10}),
    "difference_update": lambda links, arg: links.difference_update({arg, arg + 1}),
    "intersection_update": lambda links, arg: links.intersection_update({arg, arg + 1, arg + 2}),
    "symmetric_difference_update": lambda links, arg: links.symmetric_difference_update({arg, 9}),
    "ior": lambda links, arg: links.__ior__({arg}),
    "iand": lambda links, arg: links.__iand__({arg, arg + 1, arg + 2}),
    "isub": lambda links, arg: links.__isub__({arg}),
    "ixor": lambda links, arg: links.__ixor__({arg, 8}),
}

_OPS = st.lists(
    st.tuples(st.sampled_from(["add_long", "drop_long", "rebind", "pred", "succ",
                               "bump", "col_pred", "col_succ", *_SET_OPS]),
              st.integers(min_value=0, max_value=9)),
    min_size=0,
    max_size=40,
)


class TestLinkViewCache:
    @given(ops=_OPS)
    @settings(max_examples=150)
    def test_view_matches_fresh_after_arbitrary_ops(self, ops):
        # A table over shared ring columns, as an overlay's tables are.
        pred_col, succ_col, epoch = np.full(1, -1), np.full(1, -1), [0, 0]
        written = np.zeros(1, dtype=bool)
        table = RoutingTable(0, max_long=4, columns=(pred_col, succ_col, written, epoch))
        for op, arg in ops:
            before = table.link_view()
            written[0] = False
            ring = (table.predecessor, table.successor)
            if op == "add_long":
                table.add_long(arg)
            elif op == "drop_long":
                table.drop_long(arg)
            elif op == "rebind":
                table.long_links = {arg, arg + 1}
            elif op == "pred":
                table.predecessor = arg if arg else None
            elif op == "succ":
                table.successor = arg if arg else None
            elif op == "bump":
                # What a ring refresh that leaves this slot alone looks like.
                epoch[0] += 1
            elif op in ("col_pred", "col_succ"):
                # A ring refresh that rewrites the slot: column store + bump.
                (pred_col if op == "col_pred" else succ_col)[0] = arg - 1
                epoch[0] += 1
            elif op != "raw_add" or len(table.long_links) < 8:
                _SET_OPS[op](table.long_links, arg)
            assert table.link_view() == _fresh_links(table)
            assert table.all_links() == set(table.link_view())
            if table.link_view() != before and op not in ("bump", "col_pred", "col_succ"):
                # A write through the table marks it for the exchange's link log.
                assert written[0]
            if op == "bump" or (op.startswith("col_") and ring == (table.predecessor, table.successor)):
                # The view object is a version token: an epoch bump over
                # an unchanged (pred, succ) keeps it.
                assert table.link_view() is before

    def test_all_links_returns_mutable_copy(self):
        table = RoutingTable(0, max_long=2)
        table.add_long(1)
        copy = table.all_links()
        copy.add(99)
        assert 99 not in table.link_view()

    def test_rebound_set_keeps_invalidating(self):
        # clustered/omen baselines assign ``long_links = set(...)`` wholesale;
        # later in-place mutations of the rebound set must still invalidate.
        table = RoutingTable(0, max_long=4)
        table.long_links = {1, 2}
        assert table.link_view() == {1, 2}
        table.long_links.add(3)
        assert table.link_view() == {1, 2, 3}

    def test_ring_refresh_invalidates_on_built_overlay(self, small_graph):
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=6)).build(seed=3)
        for v in range(small_graph.num_nodes):
            assert overlay.tables[v].link_view() == _fresh_links(overlay.tables[v])
        # A refresh over unchanged identifiers keeps every view object.
        views = [table.link_view() for table in overlay.tables]
        overlay._refresh_ring()
        assert all(table.link_view() is view for table, view in zip(overlay.tables, views))
        # Force a ring change and re-check: _refresh_ring rewrites the ring
        # columns and bumps the epoch, so views must track it.
        overlay.ids[:] = np.roll(overlay.ids, 1)
        overlay._refresh_ring()
        for v in range(small_graph.num_nodes):
            assert overlay.tables[v].link_view() == _fresh_links(overlay.tables[v])


# -- seam-wrap dissemination ordering ----------------------------------------


class _FixedIdOverlay(OverlayNetwork):
    """Overlay with externally chosen identifiers (ring links only)."""

    name = "fixed"

    def __init__(self, graph, ids):
        super().__init__(graph, k_links=2)
        self._fixed_ids = np.asarray(ids, dtype=np.float64)

    def build(self, seed=None):
        self.ids[:] = self._fixed_ids
        self._refresh_ring()
        self._mark_built()
        return self


class TestSeamDissemination:
    def test_orders_by_ring_distance_across_wrap(self):
        n = 4
        graph = SocialGraph(n, [(i, (i + 1) % n) for i in range(n)])
        # Publisher 0 sits at 0.98; subscriber 1 is just across the 0/1
        # seam (ring distance 0.04), subscriber 2 is half a ring away.
        overlay = _FixedIdOverlay(graph, [0.98, 0.02, 0.50, 0.75]).build()
        router = overlay.make_router(lookahead=False)
        routes = overlay.disseminate(0, [2, 1], router)
        assert list(routes) == [1, 2]  # |0.02-0.98|=0.96 would order 2 first
        d1 = ring_distance(0.02, 0.98)
        d2 = ring_distance(0.50, 0.98)
        assert d1 < d2  # the ordering key the fix pins

    def test_tie_breaks_by_node_id(self):
        n = 4
        graph = SocialGraph(n, [(i, (i + 1) % n) for i in range(n)])
        # 1 and 3 are equidistant from publisher 0 (0.1 each side).
        overlay = _FixedIdOverlay(graph, [0.5, 0.6, 0.9, 0.4]).build()
        router = overlay.make_router(lookahead=False)
        routes = overlay.disseminate(0, [3, 1], router)
        assert list(routes) == [1, 3]


# -- route_many parity --------------------------------------------------------


@pytest.fixture()
def line_overlay():
    n = 10
    graph = SocialGraph(n, [(i, (i + 1) % n) for i in range(n)])
    overlay = _FixedIdOverlay(graph, np.arange(n) / n).build()
    overlay.tables[0].long_links.add(5)
    return overlay


class TestRouteManyParity:
    def test_blind_forwarding_threads_through(self, line_overlay):
        online = np.ones(10, dtype=bool)
        online[1] = False
        router = GreedyRouter(line_overlay, lookahead=False)
        pairs = [(0, 2), (0, 5), (3, 8), (9, 2)]
        batch = router.route_many(pairs, online=online, detect_failures=False)
        singles = [router.route(s, d, online=online, detect_failures=False) for s, d in pairs]
        for got, want in zip(batch, singles):
            assert got.path == want.path
            assert got.delivered == want.delivered
        # The 0->2 message must die in offline peer 1's hands (blind mode).
        assert not batch[0].delivered
        assert batch[0].path[-1] == 1

    def test_detection_mode_parity_with_live_cache(self, line_overlay):
        online = np.ones(10, dtype=bool)
        online[1] = False
        for lookahead in (False, True):
            router = GreedyRouter(line_overlay, lookahead=lookahead)
            pairs = [(0, 2), (0, 5), (2, 9), (7, 3)]
            batch = router.route_many(pairs, online=online, detect_failures=True)
            singles = [router.route(s, d, online=online) for s, d in pairs]
            for got, want in zip(batch, singles):
                assert got.path == want.path
                assert got.delivered == want.delivered

    def test_tracing_parity(self, line_overlay):
        router = GreedyRouter(line_overlay, lookahead=True)
        router.record_decisions = True
        pairs = [(0, 7), (2, 5)]
        batch = router.route_many(pairs)
        singles = [router.route(s, d) for s, d in pairs]
        for got, want in zip(batch, singles):
            assert got.decisions is not None
            assert got.decisions == want.decisions


# -- eviction-counted churn ---------------------------------------------------


class TestEvictionChurn:
    def _overlay(self, tiny_graph):
        bw = BandwidthModel(tiny_graph.num_nodes, seed=0)
        overlay = SelectOverlay(tiny_graph, k_links=1, config=SelectConfig(), bandwidth=bw)
        overlay.upload_mbps = np.array([1.0, 5.0, 10.0, 2.0, 3.0, 4.0])
        return overlay

    def test_eviction_resets_stability_and_counts_churn(self, tiny_graph):
        overlay = self._overlay(tiny_graph)
        assert overlay._try_connect(1, 0)  # fills node 0's single slot
        overlay.tables[1].long_links.add(0)
        overlay.peers[1].stable_rounds = 7
        baseline = overlay.round_link_changes
        assert overlay._try_connect(2, 0)  # 2 is faster -> evicts 1
        assert 0 not in overlay.tables[1].long_links
        assert overlay.peers[1].stable_rounds == 0
        assert overlay.round_link_changes == baseline + 1
        assert overlay._incoming_sources[0] == {2}

    def test_rejected_connect_counts_nothing(self, tiny_graph):
        overlay = self._overlay(tiny_graph)
        assert overlay._try_connect(2, 0)
        overlay.tables[2].long_links.add(0)
        overlay.peers[2].stable_rounds = 7
        baseline = overlay.round_link_changes
        assert not overlay._try_connect(1, 0)  # 1 is slower -> refused
        assert overlay.peers[2].stable_rounds == 7
        assert overlay.round_link_changes == baseline


# -- cached vs legacy routing ---------------------------------------------------


class LegacyGreedyRouter(BruteForceRouter):
    """Pre-cache reference: rebuilds each peer's link set on every read.

    The scan of ``tests/test_routing_index.py`` over connections whose link
    sets are recomputed from the tables' raw state, the way every read
    worked before the :meth:`RoutingTable.link_view` cache landed — so
    neither that cache nor the router's index can be more than a
    performance layer.
    """

    def _connections(self, v):
        return _fresh_links(self.overlay.tables[v]) | self.overlay._incoming_sources[v]


class TestLegacyRouterParity:
    def test_cached_paths_equal_legacy_paths(self):
        # The link-view cache must be a pure performance layer.
        graph = load_dataset("facebook", num_nodes=80, seed=5)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=4))
        overlay.build(seed=5)
        rng = np.random.default_rng(5)
        pairs = [
            (int(s), int(d))
            for s, d in zip(rng.integers(80, size=120), rng.integers(80, size=120))
        ]
        for lookahead in (True, False):
            cached = GreedyRouter(overlay, lookahead=lookahead).route_many(pairs)
            legacy = LegacyGreedyRouter(overlay, lookahead=lookahead).route_many(pairs)
            assert any(r.delivered for r in cached)
            for a, b in zip(cached, legacy):
                assert a.path == b.path
                assert a.delivered == b.delivered


# -- bench harness ------------------------------------------------------------


def _load_bench_module():
    path = REPO_ROOT / "benchmarks" / "bench_hotpath.py"
    spec = importlib.util.spec_from_file_location("bench_hotpath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchHotpath:
    @staticmethod
    def _report(bench, scales):
        config = {"dataset": "facebook", "seed": 7, "max_rounds": 200}
        return {"schema": bench.BENCH_SCHEMA, "name": "hotpath", "config": config, "scales": scales}

    def test_scale_row_validates_and_says_converged(self):
        bench = _load_bench_module()
        row = bench.run_scale(300, seed=7, dataset="facebook", max_rounds=200)
        assert bench.validate_report(self._report(bench, [row])) == []
        assert row["converged"] is True and 5 < row["gossip_rounds"] < 200
        assert row["kib_per_peer"] == row["peak_rss_kb"] / 300
        capped = bench.run_scale(300, seed=7, dataset="facebook", max_rounds=5)
        assert capped["converged"] is False and capped["gossip_rounds"] == 5
        del capped["converged"]
        report = self._report(bench, [capped])
        report["schema"] = "bogus/v0"
        problems = bench.validate_report(report)
        assert any("schema" in p for p in problems)
        assert any("converged" in p for p in problems)

    def test_committed_baseline_is_valid_and_converged(self):
        bench = _load_bench_module()
        path = REPO_ROOT / "benchmarks" / "BENCH_hotpath.json"
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert bench.validate_report(report) == []
        # A capped build times a different amount of work at every size:
        # only builds that reached quiescence may be committed.
        assert report["scales"][0]["num_nodes"] >= 1500
        for row in report["scales"]:
            assert row["converged"] is True
            assert 0 < row["gossip_rounds"] <= report["config"]["max_rounds"]
