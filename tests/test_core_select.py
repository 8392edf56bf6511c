"""SELECT overlay end-to-end construction."""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.core import rounds
from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.idspace.space import ring_distance
from repro.net.bandwidth import BandwidthModel
from repro.overlay.doctor import check_overlay
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.util.exceptions import ConfigurationError

from tests.conftest import edge_block


class TestConfig:
    def test_defaults_valid(self):
        SelectConfig()

    def test_three_knobs(self):
        assert [f.name for f in fields(SelectConfig)] == ["max_rounds", "reassign_ids", "use_lsh"]

    # The id is the one this case had when the table also listed the
    # knobs that are now module constants.
    @pytest.mark.parametrize("kwargs", [pytest.param({"max_rounds": 0}, id="kwargs2")])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SelectConfig(**kwargs)


class TestBuild:
    def test_converges_before_cap(self, built_select):
        assert 0 < built_select.iterations < built_select.config.max_rounds

    def test_ids_in_ring(self, built_select):
        assert (built_select.ids >= 0).all() and (built_select.ids < 1).all()
        # Distinct positions: the round barrier nudges peers that would
        # stack on the midpoint of the same anchor pair.
        distinct = len(set(built_select.ids.tolist()))
        assert distinct == built_select.graph.num_nodes

    def test_ring_links_present(self, built_select):
        for table in built_select.tables:
            assert table.predecessor is not None
            assert table.successor is not None

    def test_long_links_are_social(self, built_select):
        assert built_select.social_link_fraction() == 1.0

    def test_link_budget_respected(self, built_select):
        k = built_select.k_links
        for table in built_select.tables:
            assert len(table.long_links) <= k

    def test_incoming_cap_respected(self, built_select):
        k = built_select.k_links
        incoming = np.zeros(built_select.graph.num_nodes, dtype=int)
        for v, table in enumerate(built_select.tables):
            for w in table.long_links:
                incoming[w] += 1
        assert incoming.max() <= k

    def test_friends_cluster_in_id_space(self, built_select):
        graph = built_select.graph
        ids = built_select.ids
        friend = built_select.mean_friend_distance()
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, graph.num_nodes, size=(300, 2))
        random_pairs = np.mean(
            [ring_distance(float(ids[a]), float(ids[b])) for a, b in pairs if a != b]
        )
        # Socially connected peers sit closer than random pairs (Fig. 8).
        assert friend < 0.8 * random_pairs

    def test_using_before_build_rejected(self, small_graph):
        overlay = SelectOverlay(small_graph)
        with pytest.raises(ConfigurationError):
            overlay.connections()

    def test_deterministic_given_seed(self, small_graph):
        cfg = SelectConfig(max_rounds=12)
        a = SelectOverlay(small_graph, config=cfg).build(seed=3)
        b = SelectOverlay(small_graph, config=cfg).build(seed=3)
        assert np.array_equal(a.ids, b.ids)
        assert all(
            a.tables[v].long_links == b.tables[v].long_links
            for v in range(small_graph.num_nodes)
        )

    def test_a_second_build_is_refused(self):
        """A build is a function of (graph, config, seed): an overlay builds
        once, and the refused second call leaves the first build as it was
        (it used to reuse the first seed's LSH families)."""
        graph = load_dataset("facebook", num_nodes=200, seed=7)
        cfg = SelectConfig(max_rounds=30)
        overlay = SelectOverlay(graph, config=cfg).build(seed=1)
        with pytest.raises(ConfigurationError, match="already built"):
            overlay.build(seed=2)
        fresh = SelectOverlay(graph, config=cfg).build(seed=1)
        assert np.array_equal(overlay.ids, fresh.ids)
        assert [t.long_links for t in overlay.tables] == [t.long_links for t in fresh.tables]
        assert [p.lookahead for p in overlay.peers] == [p.lookahead for p in fresh.peers]

    def test_different_seeds_differ(self, small_graph):
        cfg = SelectConfig(max_rounds=8)
        a = SelectOverlay(small_graph, config=cfg).build(seed=3)
        b = SelectOverlay(small_graph, config=cfg).build(seed=4)
        assert not np.array_equal(a.ids, b.ids)

    def test_trace_recorded(self, built_select):
        assert built_select.trace.names() == ["id_moves", "link_changes"]

    def test_k_links_override(self, small_graph):
        overlay = SelectOverlay(small_graph, k_links=3, config=SelectConfig(max_rounds=6)).build(seed=1)
        assert overlay.k_links == 3
        assert all(len(t.long_links) <= 3 for t in overlay.tables)


class TestBuildPins:
    """Literal pins of whole builds, one per config branch of the round.

    A refactor of the construction loop must reproduce every overlay bit
    for bit; the digest is sha256 over the identifiers and every peer's
    sorted long links (the benchmark suite's ``overlay_digest``), on
    facebook graphs at seed 7 built with seed 7.
    """

    @pytest.mark.parametrize(
        "num_nodes, kwargs, bandwidth, iterations, digest",
        [
            (2000, {}, False, 48, "c8e502ef80e1753e"),
            (300, {}, False, 58, "6f6f6da66cced028"),
            (300, {}, True, 69, "0878bdad10e616c5"),
            (300, {"use_lsh": False}, False, 21, "d84076a7a70e1c66"),
            (300, {"reassign_ids": False}, False, 44, "43cf2f0f9c40030c"),
        ],
    )
    def test_build_is_bit_identical(self, num_nodes, kwargs, bandwidth, iterations, digest):
        graph = load_dataset("facebook", num_nodes=num_nodes, seed=7)
        overlay = SelectOverlay(
            graph,
            config=SelectConfig(max_rounds=200, **kwargs),
            bandwidth=BandwidthModel(num_nodes, seed=1) if bandwidth else None,
        ).build(7)
        h = hashlib.sha256(np.ascontiguousarray(overlay.ids).tobytes())
        links = [sorted(t.long_links) for t in overlay.tables]
        h.update(json.dumps(links, sort_keys=True).encode("utf-8"))
        assert overlay.iterations == iterations
        assert h.hexdigest()[:16] == digest


    @pytest.mark.parametrize("seed", [1, 2])
    def test_bandwidth_build_leaks_no_slot(self, seed):
        """Fig. 7's build path ends doctor-clean: every long link holds its
        admission slot and every slot backs a link. A pass that dropped a
        link whose eviction was queued and took the slot back by evicting
        another source left (264, 199) at seed 1 and (51, 23) at seed 2."""
        overlay = SelectOverlay(
            load_dataset("facebook", 300, seed=7), bandwidth=BandwidthModel(300, seed=seed)
        ).build(7)
        report = check_overlay(overlay)
        assert report.leaked_slots == []
        assert report.ok
        links = {(v, t) for v, table in enumerate(overlay.tables) for t in table.long_links}
        slots = {(s, t) for t in range(300) for s in overlay.admitted(t)}
        assert links == slots

    def test_full_knowledge_is_bit_identical(self):
        """Everything a peer knows after a build, not only ids and links:
        a round that skips or reorders a fold shows up here first."""
        graph = load_dataset("facebook", num_nodes=300, seed=7)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
        cols = overlay.columns
        h = hashlib.sha256(np.ascontiguousarray(overlay.ids).tobytes())
        for col in (cols.stable_rounds, cols.link_change_budget, cols.moves_done):
            h.update(np.ascontiguousarray(col).tobytes())
        for p in overlay.peers:
            blob = [
                sorted(p.table.long_links),
                list(p.known_bitmap.items()),
                sorted((f, b.bit_count()) for f, b in p.known_bitmap.items()),
                sorted((f, b) for f, b in zip(p.neighborhood.tolist(), edge_block(p)[1]) if b >= 0),
                sorted((f, sorted(v)) for f, v in p.lookahead.items()),
                sorted(p.known_mutual.items()),
            ]
            h.update(json.dumps(blob).encode())
        assert h.hexdigest()[:16] == "5ddd587edced5147"


class TestPhaseLedger:
    """``build.phase.*`` timers and ``build.exchange.*`` counters."""

    def test_every_round_is_booked(self, monkeypatch):
        gated = []
        link_gate = rounds.link_gate

        def counted_gate(*args):
            gated.append(len(gate := link_gate(*args)))
            return gate

        monkeypatch.setattr(rounds, "link_gate", counted_gate)
        graph = load_dataset("facebook", num_nodes=300, seed=7)
        registry = MetricsRegistry()
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200))
        with use_registry(registry):
            overlay.build(7)
        timers = registry.histograms()
        for phase in ("exchange", "propose", "links", "barrier"):
            assert timers[f"build.phase.{phase}.seconds"].count == overlay.iterations
        counters = registry.counters()
        folded = counters["build.exchange.folded"].value
        skipped = counters["build.exchange.skipped"].value
        # One exchange per peer per round, each teaching both sides.
        assert folded + skipped == 2 * graph.num_nodes * overlay.iterations
        assert skipped > 0 and folded > 0
        # The link step: the whole gate planned in one batch a round; the
        # walk re-plans only the peers a ledger flip reached.
        planned, replanned, changed = (
            counters[f"build.links.{name}"].value
            for name in ("planned", "replanned", "changed")
        )
        assert planned == sum(gated) and 0 < changed < planned
        assert 0 < replanned < planned

    @pytest.mark.parametrize("path", ["bandwidth", "no_lsh"])
    def test_every_link_path_books_its_steps(self, monkeypatch, path):
        # Bandwidth-aware and use_lsh=False builds plan peer by peer, not on
        # the batch walk; they book planned and changed all the same, and
        # only the walk re-plans.
        gated, changed = [], []
        link_gate, settle_counters = rounds.link_gate, rounds.settle_counters

        def counted_gate(*args):
            gated.append(len(gate := link_gate(*args)))
            return gate

        def counted_settle(ov, peers):
            changed.append(len(peers))
            settle_counters(ov, peers)

        monkeypatch.setattr(rounds, "link_gate", counted_gate)
        monkeypatch.setattr(rounds, "settle_counters", counted_settle)
        overlay = SelectOverlay(
            load_dataset("facebook", num_nodes=300, seed=7),
            config=SelectConfig(use_lsh=path != "no_lsh"),
            bandwidth=BandwidthModel(300, seed=1) if path == "bandwidth" else None,
        )
        with use_registry(MetricsRegistry()):
            overlay.build(7)
        stats = overlay.link_stats
        assert stats.planned == sum(gated) > 0
        assert 0 < stats.changed == sum(changed) < stats.planned
        assert stats.replanned == 0


class TestAblations:
    def test_reassignment_off_keeps_projection_ids(self, small_graph):
        cfg = SelectConfig(max_rounds=8, reassign_ids=False)
        overlay = SelectOverlay(small_graph, config=cfg).build(seed=5)
        # Without Algorithm 2 friends stay farther apart on the ring.
        cfg_on = SelectConfig(max_rounds=30)
        overlay_on = SelectOverlay(small_graph, config=cfg_on).build(seed=5)
        assert overlay.mean_friend_distance() > overlay_on.mean_friend_distance()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 2(c): Alg. 2 costs rounds and does not buy hops on the no-community "
        "stand-in (1.821 hops with it, 1.815 without, on this sample, since the source reads "
        "its friend's table; 2.08 / 2.05 before it did, 3.00 / 2.97 over outgoing links, "
        "4.77 / 4.68 before L_p steered); "
        "the community graph must flip this",
    )
    def test_reassignment_buys_friend_hops_at_2k(self):
        """The benchmark fixture (facebook 2k, seeds 7 / 7) over a seeded
        sample of friend pairs: identifier reassignment is the paper's
        locality mechanism, so switching it off should cost hops."""
        graph = load_dataset("facebook", num_nodes=2000, seed=7)
        edges = list(graph.edges())
        picks = np.random.default_rng(7).choice(len(edges), size=4000, replace=False)
        pairs = [edges[i] for i in picks]
        hops = {}
        for reassign in (True, False):
            config = SelectConfig(max_rounds=200, reassign_ids=reassign)
            routes = SelectOverlay(graph, config=config).build(7).make_router().route_many(pairs)
            assert all(r.delivered for r in routes)
            hops[reassign] = sum(r.hops for r in routes) / len(routes)
        assert hops[True] < hops[False]

    def test_lsh_off_still_builds(self, small_graph):
        cfg = SelectConfig(max_rounds=8, use_lsh=False)
        overlay = SelectOverlay(small_graph, config=cfg).build(seed=5)
        assert overlay.iterations > 0
        assert any(t.long_links for t in overlay.tables)


class TestBandwidthAwareness:
    def test_eviction_prefers_fast_sources(self, small_graph):
        bw = BandwidthModel(small_graph.num_nodes, seed=1)
        cfg = SelectConfig(max_rounds=12)
        overlay = SelectOverlay(small_graph, config=cfg, bandwidth=bw).build(seed=2)
        assert overlay.upload_mbps is not None
        # Sanity: still a valid overlay.
        assert all(len(t.long_links) <= overlay.k_links for t in overlay.tables)
