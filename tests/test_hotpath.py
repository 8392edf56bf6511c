"""Hot-path regression suite: table writers, batch routing, bugfix pins.

Covers the PR 4 invariants:

* a table's row and ``all_links()`` equal a model of what its writers
  wrote, every write marks the table and moves the overlay's link
  version, and the admission ledger's rows, fill and doctor verdict
  follow a set model of admit / link / drop / release sequences
  (property tests),
* ``disseminate`` orders subscribers by ring distance across the 0/1 seam,
* ``route_many`` has full parameter parity with ``route`` (blind
  forwarding, tracing),
* bandwidth eviction counts as churn on the evicted peer,
* the cached, indexed router is path-identical to a scan over uncached links,
* the scale harness emits schema-valid rows that say whether the build
  converged, and the committed ``BENCH_hotpath.json`` holds only
  converged ones.
"""

import gc
import importlib.util
import json
import pathlib
import tracemalloc

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
from repro.util.exceptions import ConfigurationError
from repro.overlay.base import LinkColumns, OverlayNetwork, RoutingTable
from repro.overlay.doctor import check_overlay
from repro.overlay.routing import GreedyRouter
from tests.test_routing_index import BruteForceRouter, friend_pairs

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


# -- table writers ----------------------------------------------------------

_OPS = st.lists(
    st.tuples(st.sampled_from(["add_long", "drop_long", "rebind", "pred", "succ",
                               "col_pred", "col_succ"]),
              st.integers(min_value=0, max_value=9)),
    min_size=0,
    max_size=40,
)

#: ledger-and-table writes on one overlay: ``connect`` admits ``src`` on
#: ``dst`` (with the given slack) and links it, ``disconnect`` drops the link
#: and frees the slot, the way SELECT's link step and recovery write. Three
#: targets for six sources, so ledger rows fill up to their slack.
_LEDGER_OPS = st.lists(
    st.tuples(st.sampled_from(["connect", "disconnect", "rebind"]),
              st.integers(0, 5), st.integers(0, 2), st.integers(0, 2)),
    min_size=0,
    max_size=60,
)


class TestLinkViewCache:
    """A table's links are what its writers wrote; nothing is cached."""

    @given(ops=_OPS)
    @settings(max_examples=150)
    def test_view_matches_fresh_after_arbitrary_ops(self, ops):
        # A table over a shared column block, as an overlay's tables are.
        cols = LinkColumns(1, 4)
        table = RoutingTable(0, max_long=4, columns=cols)
        long_links, ring = [], [-1, -1]  # the model: what was written, in order
        for op, arg in ops:
            cols.written[0] = False
            before = cols.version[0]
            wrote = True
            if op == "add_long":
                if arg != table.owner and arg not in long_links and len(long_links) == 4:
                    # A row holds max_long links: a fifth is refused, unwritten.
                    with pytest.raises(ConfigurationError):
                        table.add_long(arg)
                    wrote = False
                else:
                    wrote = table.add_long(arg)
                    assert wrote == (arg != table.owner)
                    if wrote and arg not in long_links:
                        long_links.append(arg)
            elif op == "drop_long":
                table.drop_long(arg)
                long_links = [w for w in long_links if w != arg]
            elif op == "rebind":
                table.long_links = long_links = [arg, arg + 1]
            elif op in ("pred", "succ"):
                setattr(table, "predecessor" if op == "pred" else "successor", arg or None)
                ring[op == "succ"] = arg or -1
            else:
                # A ring refresh: a column store plus a version bump.
                (cols.ring_pred if op == "col_pred" else cols.ring_succ)[0] = arg - 1
                cols.version[0] += 1
                ring[op == "col_succ"] = arg - 1
            assert table.long_links == tuple(long_links)
            assert cols.long_links[0].tolist() == long_links + [-1] * (4 - len(long_links))
            assert table.all_links() == (set(long_links) | {w for w in ring if w >= 0}) - {table.owner}
            assert (cols.version[0] > before) == (wrote or op.startswith("col_"))
            # A write through the table marks it for the exchange's link log.
            assert cols.written[0] == (wrote and not op.startswith("col_"))

    @given(ops=_LEDGER_OPS)
    @settings(max_examples=300, deadline=None)
    def test_tables_and_ledger_match_a_set_model(self, ops):
        n, k = 6, 2
        overlay = _RingOverlay(SocialGraph(n, [(i, (i + 1) % n) for i in range(n)]), k).build()
        links = [set() for _ in range(n)]  # the model: v's long links
        sources = [set() for _ in range(n)]  # ... and whom v admitted
        for op, src, dst, slack in ops:
            table = overlay.tables[src]
            overlay.links_written[:] = False
            before = overlay._link_version[0]
            if op == "connect":
                wrote = False
                if src != dst and (dst in links[src] or len(links[src]) < k):
                    room = src in sources[dst] or len(sources[dst]) < k + slack
                    assert overlay.try_accept_incoming(src, dst, slack) == room
                    if room:
                        wrote = table.add_long(dst)
                        sources[dst].add(src)
                        links[src].add(dst)
            elif op == "disconnect":
                wrote = True
                table.drop_long(dst)
                overlay.release_incoming(src, dst)
                links[src].discard(dst)
                sources[dst].discard(src)
            else:
                # Rewrite src's links to its admitted ones, the smaller first.
                wrote = True
                table.long_links = sorted(links[src], reverse=bool(slack))
            assert set(table.long_links) == links[src]
            rows = [set(overlay.admitted(v)) for v in range(n)]
            assert rows == sources
            fill = (overlay.incoming_sources >= 0).sum(axis=1)
            assert overlay.incoming_count.tolist() == fill.tolist() == list(map(len, sources))
            # Entries first, then padding: the fill is each row's prefix.
            for v in range(n):
                assert (overlay.incoming_sources[v, fill[v]:] == -1).all()
            assert overlay.links_written.tolist() == [v == src and wrote for v in range(n)]
            assert (overlay._link_version[0] > before) == wrote
            assert check_overlay(overlay, in_degree_slack=2).ok

    def test_all_links_returns_mutable_copy(self):
        table = RoutingTable(0, max_long=2)
        table.add_long(1)
        copy = table.all_links()
        copy.add(99)
        assert 99 not in table.all_links()

    def test_rebound_set_keeps_invalidating(self):
        # clustered/omen baselines assign ``long_links`` wholesale; the
        # table copies the links into its row, so later writes go through it.
        table = RoutingTable(0, max_long=4)
        links = {1, 2}
        table.long_links = links
        links.add(3)
        assert table.all_links() == {1, 2}
        table.add_long(3)
        assert table.all_links() == {1, 2, 3}

    def test_ring_refresh_invalidates_on_built_overlay(self, small_graph):
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=6)).build(seed=3)
        for v in range(small_graph.num_nodes):
            assert overlay.tables[v].all_links() == _fresh_links(overlay.tables[v])
        # Force a ring change and re-check: _refresh_ring rewrites the ring
        # columns and moves the link version, so the tables track it.
        version = overlay._link_version[0]
        overlay.ids[:] = np.roll(overlay.ids, 1)
        overlay._refresh_ring()
        assert overlay._link_version[0] == version + 1
        for v in range(small_graph.num_nodes):
            assert overlay.tables[v].all_links() == _fresh_links(overlay.tables[v])


# -- seam-wrap dissemination ordering ----------------------------------------


class _RingOverlay(OverlayNetwork):
    """Evenly spaced identifiers and ring links; long links are the test's."""

    name = "ring"

    def build(self, seed=None):
        self.ids[:] = np.arange(len(self.ids)) / len(self.ids)
        self._refresh_ring()
        self._mark_built()
        return self


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
    overlay.tables[0].add_long(5)
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
        overlay.tables[1].add_long(0)
        overlay.peers[1].stable_rounds = 7
        baseline = overlay.round_link_changes
        assert overlay._try_connect(2, 0)  # 2 is faster -> evicts 1
        assert 0 not in overlay.tables[1].long_links
        assert overlay.peers[1].stable_rounds == 0
        assert overlay.round_link_changes == baseline + 1
        assert overlay.admitted(0) == (2,)

    def test_rejected_connect_counts_nothing(self, tiny_graph):
        overlay = self._overlay(tiny_graph)
        assert overlay._try_connect(2, 0)
        overlay.tables[2].add_long(0)
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
    worked before the router's index landed — so that index can be no
    more than a performance layer.
    """

    def _connections(self, v):
        return _fresh_links(self.overlay.tables[v]) | set(self.overlay.admitted(v))


class TestLegacyRouterParity:
    def test_cached_paths_equal_legacy_paths(self):
        # The router's index must be a pure performance layer.
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


# -- retained memory -----------------------------------------------------------


class TestRetainedMemory:
    @pytest.fixture(scope="class")
    def traced(self):
        """The 2k/7 build and 12 000 friend routes over it under
        ``tracemalloc``: KiB a peer the overlay and then the router's index
        retain, and MiB the build peaked above what it retains."""
        graph = load_dataset("facebook", num_nodes=2000, seed=7)
        pairs = friend_pairs(graph, count=12000)
        tracemalloc.start()
        try:
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
            gc.collect()
            built, peak = tracemalloc.get_traced_memory()
            router = overlay.make_router()
            assert all(route.delivered for route in router.route_many(pairs))
            gc.collect()
            routed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return {
            "overlay_kib": (built - start) / 1024 / graph.num_nodes,
            "router_kib": (routed - built) / 1024 / graph.num_nodes,
            "transient_mib": (peak - built) / 2**20,
        }

    def test_link_state_holds_no_per_peer_containers(self, traced):
        """Link state is int32 columns and the router's connections one CSR.
        With a frozenset of long links, a set of admitted sources and a
        list of successors per table, and a connection set per routed peer,
        the same readings were 5.65 and 3.36 KiB a peer; as columns, 3.85
        and 2.27, later 3.37 and 2.27. With the edge
        stamps and views int32, LSH positions one column and no family
        object, and one packed int32 per router candidate in place of two,
        they read 2.66 and 1.22. With no bitmap codec or CMA object per peer
        and the join log as int columns, the overlay reads 2.34, and with
        each candidate column allocated exactly (an array made from bytes
        keeps about 1/16 spare) the router 1.15; these bounds are 2.34 and
        1.15 plus about 15 %.
        """
        assert traced["overlay_kib"] <= 2.70, traced
        assert traced["router_kib"] <= 1.32, traced

    def test_a_round_makes_its_temporaries_in_bounded_runs(self, traced):
        """The round kernels, the fold and the link log make their per-edge
        and per-pair arrays ``columns.CHUNK`` elements at a time, and the
        compaction keeps rows through a boolean entry mask: the build peaks
        2.53 MiB above what it retains, where whole-network temporaries and
        int64 gather indices took 5.05. The bound is 2.53 plus about 15 %."""
        assert traced["transient_mib"] <= 2.9, traced


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
