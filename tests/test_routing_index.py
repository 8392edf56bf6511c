"""The router's next-hop rule and the index that serves it.

* :class:`BruteForceRouter` is the rule as DESIGN §4 states it, scanned
  over every ``(x, w)`` a peer can see through its connections (outgoing
  links plus the incoming ones it admitted); the shipped router's
  rank-sorted index must choose the same hop on every route, calm, masked
  and blind.
* :class:`OneHopGreedyRouter` is the rule the router had before it steered
  by ``L_p``: ``lookahead=False`` still is that rule, ``lookahead=True``
  must beat it.
* The index is derived state: a router that outlives a change to the
  links or identifiers routes as a freshly made one.
* The ``advertised`` clause fires only at the source of a friend route
  that the lookahead cannot finish in two hops; every other route takes
  the two-clause rule's hops (:class:`TwoClauseRouter`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.symphony import SymphonyOverlay
from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.idspace.space import ring_distance
from repro.metrics.hops import route_stretch
from repro.overlay.base import OverlayNetwork
from repro.overlay.routing import GreedyRouter


def connections(overlay, v: int) -> set:
    """``v``'s connections straight from its table and the ledger: its
    outgoing links plus the sources whose links it admitted."""
    return overlay.tables[v].all_links() | set(overlay.admitted(v))


class BruteForceRouter(GreedyRouter):
    """The next-hop rule by exhaustive scan: K connections, K² with lookahead."""

    def _connections(self, v: int):
        return connections(self.overlay, v)

    def _next_hop(self, u, dst, visited, online):
        ids = self.overlay.ids
        target = float(ids[dst])

        def usable(p):
            return p not in visited and (online is None or online[p])

        best = None
        connections = self._connections
        for w in connections(u):
            if not usable(w):
                continue
            seen = [w]
            if self.lookahead:
                seen += [x for x in connections(w) if x != u]
            for x in seen:
                if usable(x):
                    key = (ring_distance(float(ids[x]), target), x != w, w)
                    if best is None or key < best[0]:
                        best = (key, x)
        return None if best is None else (best[0][2], best[1])

    def _advertised_hop(self, u, dst, table, online):
        ids = self.overlay.ids
        target = float(ids[dst])
        friends = self.overlay.graph.neighbor_set(u)
        connections = self._connections
        mine = connections(u)
        live = [w for w in mine if online is None or online[w]]
        if any(dst in connections(w) for w in live):
            return None  # the lookahead reaches dst
        best = None
        for w in live:
            for x in connections(w):
                if x == u or x in mine or x not in table or not (online is None or online[x]):
                    continue
                strangers = (w not in friends) + (x not in friends)
                key = (strangers, ring_distance(float(ids[x]), target), w)
                if best is None or key < best[0]:
                    best = (key, x)
        return None if best is None else (best[0][2], best[1])


class TwoClauseRouter(GreedyRouter):
    """The rule before the source read its friend's table: ``direct``,
    ``lookahead`` and ``greedy`` alone, as every baseline routes."""

    def _advertised_hop(self, u, dst, table, online):
        return None


class OneHopGreedyRouter(TwoClauseRouter):
    """The rule before ``L_p`` steered: ``dst`` among ``w``'s connections
    if any connection has it, else the connection whose own identifier is
    closest."""

    def _next_hop(self, u, dst, visited, online):
        overlay = self.overlay
        ids = overlay.ids
        target = float(ids[dst])
        links = [
            w for w in connections(overlay, u) if w not in visited and (online is None or online[w])
        ]
        if self.lookahead:
            holders = [w for w in links if dst in connections(overlay, w)]
            if holders:
                return min(holders), dst
        if not links:
            return None
        w = min(links, key=lambda w: (ring_distance(float(ids[w]), target), w))
        return w, w


class ManualOverlay(OverlayNetwork):
    """Fixed identifiers and explicit long links; ring links on request.

    ``admitted[v]`` names the long links of ``v`` whose targets admitted
    them; by default every one is (the cap is ``n`` and never binds).
    """

    name = "manual"

    def __init__(self, ids, long_links, ring=True, admitted=None, advertise=False):
        n = len(ids)
        super().__init__(SocialGraph(n, [(i, (i + 1) % n) for i in range(n)]), k_links=n)
        self._fixed = np.asarray(ids, dtype=np.float64)
        self._long = long_links
        self._admitted = long_links if admitted is None else admitted
        self._ring = ring
        self._advertise = advertise

    def advertised(self, u, v):
        """With ``advertise``, friends know each other's tables, as in SELECT."""
        if not (self._advertise and self.graph.has_edge(u, v)):
            return None
        table = self.tables[v]
        return [*table.long_links, *(w for w in (table.predecessor, table.successor) if w is not None)]

    def build(self, seed=None):
        self.ids[:] = self._fixed
        for v, links in enumerate(self._long):
            self.tables[v].long_links = links
            for w in sorted(self._admitted[v]):
                assert self.try_accept_incoming(v, w)
        if self._ring:
            self._refresh_ring()
        self._mark_built()
        return self


def friend_pairs(graph, count=4000, seed=7):
    """The suite's seeded friend-pair sample (see TestAblations)."""
    edges = list(graph.edges())
    picks = np.random.default_rng(seed).choice(len(edges), size=min(count, len(edges)), replace=False)
    return [edges[i] for i in picks]


def assert_same_routes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.path == b.path
        assert a.delivered == b.delivered
        assert a.decisions == b.decisions


def build_select(num_nodes, seed):
    graph = load_dataset("facebook", num_nodes=num_nodes, seed=seed)
    return SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(seed)


@pytest.fixture(scope="module")
def select_2k():
    """The benchmark fixture, facebook 2k/7 (do not mutate)."""
    return build_select(2000, 7)


@pytest.fixture(scope="module")
def select_400():
    return build_select(400, 7)


# -- the exclusion -------------------------------------------------------------


class TestVisitedIdentifiersDoNotSteer:
    # Every link is admitted, so each is a connection both ways.
    #      s     t     a     w     v     y     z     u
    IDS = [0.50, 0.52, 0.30, 0.95, 0.80, 0.60, 0.51, 0.10]
    LINKS = [{2, 3, 6}, set(), {7}, set(), {5}, {1}, {1}, {3, 4}]

    def test_route_leaves_the_identifier_behind_it(self):
        """``z`` is down, so ``s`` hands to ``a`` and ``a`` to ``u``. From
        ``u`` the closest identifier in sight is ``s``, two hops back,
        through ``w`` — whose only connections are ``s`` and ``u``, both
        on the path. Steering toward it dead-ends at ``w``; excluding it
        takes ``v -> y -> t``."""
        overlay = ManualOverlay(self.IDS, self.LINKS, ring=False).build()
        online = np.ones(8, dtype=bool)
        online[6] = False
        route = overlay.make_router(lookahead=True).route(0, 1, online=online)
        assert route.delivered
        assert route.path == [0, 2, 7, 4, 5, 1]

    def test_live_neighbour_of_the_target_is_used(self):
        overlay = ManualOverlay(self.IDS, self.LINKS, ring=False).build()
        assert overlay.make_router(lookahead=True).route(0, 1).path == [0, 6, 1]


class TestAdmittedLinksCarryBothWays:
    #            s     t     m
    IDS = [0.10, 0.60, 0.40]
    LINKS = [set(), set(), {0, 1}]

    def route(self, admitted):
        overlay = ManualOverlay(self.IDS, self.LINKS, ring=False, admitted=admitted).build()
        router = overlay.make_router()
        router.record_decisions = True
        return router.route(0, 1)

    def test_the_only_way_out_is_a_reverse_hop(self):
        """``s`` holds no link of its own; ``m``'s link to it is admitted,
        so ``s`` reaches ``t`` through ``m``."""
        route = self.route(admitted=None)
        assert route.delivered and route.path == [0, 2, 1]
        assert [(d.link, d.rule) for d in route.decisions] == [
            ("incoming", "lookahead"),
            ("long", "direct"),
        ]

    def test_a_link_never_admitted_stays_one_way(self):
        route = self.route(admitted=[set(), set(), {1}])
        assert not route.delivered and route.path == [0]


# -- (i) indexed == brute force ------------------------------------------------


class TestIndexEqualsScan:
    @pytest.mark.parametrize("fixture", ["select_400", "select_2k"])
    def test_route_for_route(self, fixture, request):
        overlay = request.getfixturevalue(fixture)
        n = overlay.graph.num_nodes
        pairs = friend_pairs(overlay.graph)
        for lookahead in (True, False):
            shipped = GreedyRouter(overlay, lookahead=lookahead)
            scan = BruteForceRouter(overlay, lookahead=lookahead)
            shipped.record_decisions = scan.record_decisions = True
            calm = shipped.route_many(pairs)
            assert all(r.delivered for r in calm)
            assert_same_routes(calm, scan.route_many(pairs))
            for mask_seed in (1, 2, 3):
                online = np.random.default_rng(mask_seed).random(n) > 0.2
                assert_same_routes(
                    shipped.route_many(pairs, online=online),
                    scan.route_many(pairs, online=online),
                )
            assert_same_routes(
                shipped.route_many(pairs, online=online, detect_failures=False),
                scan.route_many(pairs, online=online, detect_failures=False),
            )


class TestWideRow:
    def test_a_hub_past_256_connections_routes_as_the_scan(self):
        """A candidate packs ``w``'s position in its row into the low bits:
        a hub with 300 links takes 9 of them, and every route still takes
        the scan's hops, with lookahead on and off, masked and blind."""
        n = 320
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 64, size=n) / 64.0  # coarse: equal ids and ties
        others = [set(rng.choice(n, size=3).tolist()) - {v} for v in range(1, n)]
        overlay = ManualOverlay(ids, [set(range(1, 301))] + others).build()
        pairs = [(int(s), int(d)) for s, d in rng.integers(n, size=(200, 2))]
        pairs += [(0, d) for d in range(1, n, 5)] + [(s, 0) for s in range(1, n, 5)]
        online = rng.random(n) > 0.2
        online[0] = True
        for lookahead in (True, False):
            shipped = GreedyRouter(overlay, lookahead=lookahead)
            scan = BruteForceRouter(overlay, lookahead=lookahead)
            shipped.record_decisions = scan.record_decisions = True
            for kwargs in ({}, {"online": online}, {"online": online, "detect_failures": False}):
                assert_same_routes(shipped.route_many(pairs, **kwargs), scan.route_many(pairs, **kwargs))
            assert shipped._shift == 9


# -- (ii) against the one-hop rule ---------------------------------------------


class TestAgainstOneHopRule:
    def test_without_lookahead_is_the_one_hop_rule(self, select_400):
        pairs = friend_pairs(select_400.graph)
        online = np.random.default_rng(5).random(400) > 0.2
        shipped = GreedyRouter(select_400, lookahead=False)
        one_hop = OneHopGreedyRouter(select_400, lookahead=False)
        shipped.record_decisions = one_hop.record_decisions = True
        for kwargs in ({}, {"online": online}, {"online": online, "detect_failures": False}):
            assert_same_routes(
                shipped.route_many(pairs, **kwargs), one_hop.route_many(pairs, **kwargs)
            )

    @pytest.mark.parametrize("seed", [7, 11])
    def test_lookahead_beats_it_on_both_fixtures(self, seed, request):
        select = request.getfixturevalue("select_2k") if seed == 7 else build_select(2000, seed)
        symphony = SymphonyOverlay(select.graph).build(seed=seed)
        pairs = friend_pairs(select.graph)
        for overlay in (select, symphony):
            new = GreedyRouter(overlay, lookahead=True).route_many(pairs)
            old = OneHopGreedyRouter(overlay, lookahead=True).route_many(pairs)
            assert all(r.delivered for r in new) and all(r.delivered for r in old)
            assert sum(r.hops for r in new) < sum(r.hops for r in old)


class TestStretchOracle:
    def test_routes_stay_near_the_overlays_own_shortest_paths(self, select_2k):
        """ROADMAP 4: 4.77 routed hops over links holding 2.21-hop paths
        was a stretch of 2.2 and a 38-hop tail under the one-hop rule; over
        the connections the router uses the floor is 1.76 hops."""
        pairs = friend_pairs(select_2k.graph)
        stretch = route_stretch(select_2k, pairs)
        assert len(stretch) == len(pairs)
        assert stretch.min() >= 1.0
        assert stretch.mean() <= 1.3
        routes = select_2k.make_router().route_many(pairs)
        floor = np.array([r.hops for r in routes]) / stretch
        assert sum(r.hops for r in routes) / floor.sum() <= 1.3
        assert max(r.hops for r in routes) <= 20


class TestAdvertisedClause:
    def test_only_friend_routes_change(self, select_2k):
        """Routes between non-friends and ``lookahead=False`` routes are the
        two-clause rule's, hop for hop; friend routes only get shorter."""
        graph = select_2k.graph
        rng = np.random.default_rng(3)
        strangers = [
            (int(s), int(d))
            for s, d in rng.integers(graph.num_nodes, size=(3000, 2))
            if s != d and not graph.has_edge(int(s), int(d))
        ]
        online = rng.random(graph.num_nodes) > 0.2
        for lookahead, pairs in ((True, strangers), (False, strangers + friend_pairs(graph))):
            shipped = GreedyRouter(select_2k, lookahead=lookahead)
            before = TwoClauseRouter(select_2k, lookahead=lookahead)
            shipped.record_decisions = before.record_decisions = True
            for kwargs in ({}, {"online": online}):
                assert_same_routes(shipped.route_many(pairs, **kwargs), before.route_many(pairs, **kwargs))
        pairs = friend_pairs(graph)
        now = GreedyRouter(select_2k).route_many(pairs)
        then = TwoClauseRouter(select_2k).route_many(pairs)
        assert all(r.delivered for r in now)
        assert all(a.hops <= b.hops for a, b in zip(now, then))
        assert sum(r.hops for r in now) < sum(r.hops for r in then)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_fired_clause_takes_three_hops(self, select_400, data):
        """When the source steers by ``x`` in its friend's table and ``x``
        still links to the friend, ``w``'s lookahead finishes the route:
        exactly three hops."""
        src, dst = data.draw(st.sampled_from(friend_pairs(select_400.graph, count=400)))
        if data.draw(st.booleans()):
            src, dst = dst, src
        online = None
        mask_seed = data.draw(st.none() | st.integers(0, 2**16))
        if mask_seed is not None:
            online = np.random.default_rng(mask_seed).random(400) > 0.3
            online[[src, dst]] = True
        router = GreedyRouter(select_400)
        router.record_decisions = True
        route = router.route(src, dst, online=online)
        if route.decisions[0].rule != "advertised":
            return
        w, x = router._advertised_hop(src, dst, select_400.advertised(src, dst), online)
        assert route.path[1] == w
        if dst in connections(select_400, x):
            assert route.delivered and route.hops == 3

    def test_a_restored_overlay_routes_as_the_original(self, select_2k, tmp_path):
        """The clause reads tables and ring columns: a 2k overlay captured,
        saved and restored takes the original's hops on every friend route."""
        from repro.persist import load, restore, save

        save(select_2k.snapshot(), str(tmp_path / "snap"))
        restored = restore(load(str(tmp_path / "snap")))
        pairs = friend_pairs(select_2k.graph, count=12000)
        router, again = select_2k.make_router(), restored.make_router()
        router.record_decisions = again.record_decisions = True
        routes = router.route_many(pairs)
        assert any(r.decisions[0].rule == "advertised" for r in routes)
        assert_same_routes(again.route_many(pairs), routes)


# -- (iii) generated overlays ---------------------------------------------------


@st.composite
def small_overlays(draw):
    n = draw(st.integers(min_value=3, max_value=24))
    # A coarse grid: equal identifiers and equidistant pairs are common.
    ids = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    peers = st.integers(0, n - 1)
    long_links = [draw(st.sets(peers, max_size=4)) - {v} for v in range(n)]
    admitted = [
        draw(st.sets(st.sampled_from(sorted(links)))) if links else set() for links in long_links
    ]
    online = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    # The graph is the ring 0-1-...-(n-1): half the pairs are friends.
    friends = peers.map(lambda v: (v, (v + 1) % n)) | peers.map(lambda v: ((v + 1) % n, v))
    pairs = draw(st.lists(st.tuples(peers, peers) | friends, min_size=1, max_size=8))
    return np.array(ids) / 32.0, long_links, admitted, online, pairs


class TestGeneratedOverlays:
    @given(case=small_overlays(), lookahead=st.booleans(), detect=st.booleans(), advertise=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_index_equals_scan_and_paths_are_walks(self, case, lookahead, detect, advertise):
        ids, long_links, admitted, online, pairs = case
        overlay = ManualOverlay(ids, long_links, admitted=admitted, advertise=advertise).build()
        mask = None if online is None else np.array(online)
        shipped = GreedyRouter(overlay, lookahead=lookahead)
        scan = BruteForceRouter(overlay, lookahead=lookahead)
        shipped.record_decisions = scan.record_decisions = True
        got = shipped.route_many(pairs, online=mask, detect_failures=detect)
        assert_same_routes(got, scan.route_many(pairs, online=mask, detect_failures=detect))
        for route in got:
            assert len(set(route.path)) == len(route.path)
            # Each hop is an outgoing link, or a link of the next hop's
            # that the sender admitted.
            for u, w in zip(route.path, route.path[1:]):
                assert w in overlay.tables[u].all_links() or u in admitted[w]


# -- (iv) staleness ---------------------------------------------------------------


@pytest.fixture()
def mutable_select(small_graph):
    return SelectOverlay(small_graph, config=SelectConfig(max_rounds=40)).build(seed=7)


def warmed_router(overlay, pairs):
    router = overlay.make_router()
    return router, [r.path for r in router.route_many(pairs)]


def assert_routes_as_fresh(router, overlay, pairs, before):
    """The outliving ``router`` agrees with a new one — and the change
    was one that routes can see."""
    now = router.route_many(pairs)
    assert_same_routes(now, overlay.make_router().route_many(pairs))
    assert [r.path for r in now] != before


class TestRouterOutlivesChanges:
    def two_hops_out(self, overlay, pairs):
        """``(p, src, dst)``: ``p`` links to ``src``, and both are more than
        two hops from ``dst`` along routes that do not use that link."""
        router = overlay.make_router()
        for src, dst in pairs:
            for p in sorted(overlay.tables[src].all_links()):
                if src not in overlay.tables[p].all_links():
                    continue
                from_p = router.route(p, dst)
                if router.route(src, dst).hops > 2 and from_p.hops > 2 and from_p.path[1] != src:
                    return p, src, dst
        raise AssertionError("no such triple in the sample")

    @pytest.mark.parametrize("write", ["add_long", "drop_long", "successor", "refresh_ring"])
    def test_link_writes_reach_the_writer_and_its_neighbours_lookahead(
        self, mutable_select, write
    ):
        """Each write gives ``src`` the link ``src -> dst`` or takes it away,
        and the router that outlived it drops the connections it kept."""
        ov = mutable_select
        pairs = friend_pairs(ov.graph)
        p, src, dst = self.two_hops_out(ov, pairs)
        pairs += [(src, dst), (p, dst)]
        table = ov.tables[src]
        if len(table.long_links) == table.max_long:
            # A table holds at most max_long links: free one (not p) for dst.
            freed = max(w for w in table.long_links if w != p)
            table.drop_long(freed)
            ov.release_incoming(src, freed)
        if write == "drop_long":
            table.add_long(dst)
        router, before = warmed_router(ov, pairs)
        if write == "add_long":
            table.add_long(dst)
        elif write == "drop_long":
            table.drop_long(dst)
        elif write == "successor":
            table.successor = dst
        else:
            # dst moves next to src, on the side away from p: a ring
            # refresh makes it src's ring neighbour and not p's.
            other = table.predecessor if table.successor == p else table.successor
            step = (ov.ids[other] - ov.ids[src] + 0.5) % 1.0 - 0.5
            ov.ids[dst] = (ov.ids[src] + step / 2) % 1.0
            ov._refresh_ring()
            assert dst in (table.predecessor, table.successor)
        linked = write != "drop_long"
        assert (router.route(src, dst).path == [src, dst]) == linked
        assert (router.route(p, dst).path == [p, src, dst]) == linked
        assert_routes_as_fresh(router, ov, pairs, before)

    def test_ring_refresh_after_identifiers_move(self, mutable_select):
        pairs = friend_pairs(mutable_select.graph)
        router, before = warmed_router(mutable_select, pairs)
        mutable_select.ids[:] = np.random.default_rng(3).permutation(mutable_select.ids)
        mutable_select._refresh_ring()
        assert_routes_as_fresh(router, mutable_select, pairs, before)

    def test_recovery_replacement(self, mutable_select):
        pairs = friend_pairs(mutable_select.graph)
        router, before = warmed_router(mutable_select, pairs)
        manager = RecoveryManager(mutable_select)
        online = np.ones(mutable_select.graph.num_nodes, dtype=bool)
        online[sorted(mutable_select.tables[0].long_links)[:2]] = False
        for _ in range(4):
            manager.tick(online)
        assert manager.replacements > 0
        assert_routes_as_fresh(router, mutable_select, pairs, before)
        assert_same_routes(
            router.route_many(pairs, online=online),
            mutable_select.make_router().route_many(pairs, online=online),
        )

    def test_restore_snapshot_rewrites_ids_in_place(self, mutable_select):
        pairs = friend_pairs(mutable_select.graph)
        snapshot = mutable_select.snapshot()
        original = [r.path for r in mutable_select.make_router().route_many(pairs)]
        mutable_select.ids[:] = np.random.default_rng(3).permutation(mutable_select.ids)
        mutable_select._refresh_ring()
        router, scrambled = warmed_router(mutable_select, pairs)
        assert scrambled != original
        ids_object = mutable_select.ids
        mutable_select.restore_snapshot(snapshot)
        assert mutable_select.ids is ids_object
        assert [r.path for r in router.route_many(pairs)] == original
