"""Vectorized round kernels pinned to brute-force references (hypothesis).

Every kernel in :mod:`repro.core.vectorized` has a straightforward
per-peer reference here — the scalar code path it replaced — and the
tests assert elementwise (mostly bitwise) equality, including the cases
that historically break ring arithmetic: duplicate identifiers, the 0/1
seam, empty neighborhoods, and degree-1 peers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import rounds
from repro.core.columns import PeerColumns
from repro.core.config import SelectConfig
from repro.core.gossip import exchange
from repro.core.peer import PeerState
from repro.core.reassignment import evaluate_position
from repro.core.select import SelectOverlay
from repro.core.vectorized import (
    ExchangeKernel,
    _ring_distances,
    dedup_ids,
    draw_partners,
    evaluate_positions,
)
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.idspace.space import ring_distance
from repro.telemetry.registry import MetricsRegistry
from repro.util.rng import as_generator
from tests.conftest import edge_block

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def _random_csr(rng, n, p=0.35):
    """Random symmetric adjacency as (indptr, indices), rows ascending."""
    adj = rng.random((n, n)) < p
    adj |= adj.T
    np.fill_diagonal(adj, False)
    rows = [np.flatnonzero(adj[v]).astype(np.int64) for v in range(n)]
    degs = np.array([len(r) for r in rows], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(degs)))
    indices = np.concatenate(rows) if degs.sum() else np.zeros(0, dtype=np.int64)
    return indptr, indices, rows


def _link_csr(links):
    """Per-peer link sets as the (indptr, targets) pair ``exchange_phase`` builds."""
    counts = np.array([len(ls) for ls in links], dtype=np.int64)
    targets = np.array([t for ls in links for t in ls], dtype=np.int64)
    return np.concatenate(([0], np.cumsum(counts))), targets


def _bitmap_reference(rows, links, pairs_p, partners):
    """Brute force: bit j of pair i iff ``rows[p][j]`` is one of the partner's links."""
    out = []
    for p, q in zip(pairs_p.tolist(), partners.tolist()):
        out.append(sum(1 << j for j, friend in enumerate(rows[p].tolist()) if friend in links[q]))
    return out


class TestRingDistances:
    @given(st.lists(st.tuples(unit, unit), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_bitwise_equal_to_scalar(self, pairs):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        vec = _ring_distances(a, b)
        ref = np.array([ring_distance(float(x), float(y)) for x, y in pairs])
        assert np.array_equal(vec, ref)

    def test_seam_cases(self):
        a = np.array([0.0, 0.999999, 0.0, 0.5])
        b = np.array([0.999999, 0.0, 0.0, 0.5])
        ref = np.array([ring_distance(float(x), float(y)) for x, y in zip(a, b)])
        assert np.array_equal(_ring_distances(a, b), ref)


class TestDedupIds:
    @staticmethod
    def _order_preservable(pending):
        """Whether the ring has float headroom to spread every run in-gap.

        When a duplicated value's clockwise gap to the next distinct value
        is only a few ULPs wide, there is literally no representable double
        to give each claimant inside the gap; ``dedup_ids`` then guarantees
        distinctness only, not cyclic order or the first claimant's exact
        value (the run spills into the next one and pushes it upward).
        """
        uniq, counts = np.unique(pending, return_counts=True)
        gaps = np.mod(np.roll(uniq, -1) - uniq, 1.0)
        if len(uniq) == 1:
            gaps[:] = 1.0
        steps = gaps / (counts + 1)
        return bool((steps > 4 * np.spacing(uniq + gaps)).all())

    def _check(self, pending):
        out = dedup_ids(pending)
        n = len(pending)
        # All distinct, all in the ring.
        assert len(set(out.tolist())) == n
        assert (out >= 0).all() and (out < 1).all()
        if self._order_preservable(pending):
            # The lowest-index claimant of each duplicated value keeps it.
            first = {}
            for i, v in enumerate(pending.tolist()):
                first.setdefault(v, i)
            for v, i in first.items():
                assert out[i] == v
            # Cyclic (value, index) order is preserved: sorting by the
            # original keys and by the adjusted values gives the same ring
            # sequence.
            before = np.lexsort((np.arange(n), pending))
            after = np.argsort(out)
            start = int(np.flatnonzero(after == before[0])[0])
            assert np.array_equal(np.roll(after, -start), before)
        return out

    @given(
        st.lists(unit, min_size=1, max_size=6).flatmap(
            lambda vals: st.lists(
                st.integers(min_value=0, max_value=len(vals) - 1),
                min_size=2,
                max_size=40,
            ).map(lambda idx: np.array([vals[i] for i in idx]))
        )
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_duplicate_heavy_inputs(self, pending):
        self._check(pending)

    def test_no_duplicates_is_identity(self):
        pending = np.array([0.9, 0.1, 0.5, 0.3])
        assert np.array_equal(dedup_ids(pending), pending)

    def test_all_equal_ring(self):
        self._check(np.full(17, 0.25))

    def test_seam_duplicates(self):
        # Duplicates of the largest double below 1.0 have no representable
        # space before the wrap: distinctness must survive even though
        # cyclic order cannot (the gap assertion is skipped by _check).
        sv = float(np.nextafter(1.0, 0.0))
        pending = np.array([sv, sv, 0.0, 0.0, sv])
        assert not self._order_preservable(pending)
        out = self._check(pending)
        # Run firsts claim their exact value before any wrapped spread.
        assert out[0] == sv and out[2] == 0.0

    def test_sub_ulp_gap_pushes_the_next_run_up(self):
        # The gap after 0.0 holds no double for its second claimant: the
        # spread takes 5e-324 and that value's own claimant moves up.
        pending = np.array([0.0, 0.0, 5e-324])
        assert not self._order_preservable(pending)
        out = self._check(pending)
        assert out.tolist() == [0.0, 5e-324, 1e-323]

    def test_tight_gap_never_leapfrogs(self):
        base = 0.5
        nxt = base + 2.0**-45  # far tighter than the 2^-40 nudge
        out = self._check(np.array([base, base, base, nxt]))
        assert (out[:3] < out[3]).all()

    def test_tie_break_is_node_index(self):
        out = dedup_ids(np.array([0.4, 0.4, 0.4]))
        assert out[0] == 0.4
        assert out[0] < out[1] < out[2]


class TestEvaluatePositions:
    """Columnar Alg. 2 is bitwise-equal to the per-peer scalar path."""

    @given(
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scalar_reference(self, n, seed, tight):
        rng = np.random.default_rng(seed)
        # Tight mode packs every id into one small arc so the cluster
        # guard and the stale-target gate actually fire.
        ids = rng.random(n) * (0.03 if tight else 1.0)
        degs = rng.integers(1, 5, size=n)
        top2 = np.full((n, 2), -1, dtype=np.int64)
        anchor_pair = np.full((n, 2), -1, dtype=np.int64)
        anchor_target = np.full(n, np.nan)
        for v in range(n):
            k = int(rng.integers(0, 3))
            others = [w for w in range(n) if w != v]
            if k and others:
                picks = rng.choice(others, size=min(k, len(others)), replace=False)
                top2[v, : len(picks)] = picks
                if rng.random() < 0.5:
                    # Sometimes the last-moved pair equals the current one,
                    # exercising the stale-target gate both ways.
                    pair = np.sort(picks)
                    anchor_pair[v, : len(pair)] = pair
                    anchor_target[v] = rng.random() * (0.03 if tight else 1.0)
        eligible = rng.random(n) < 0.8
        cfg = SelectConfig()

        # Scalar reference on standalone PeerState views.
        peers = []
        for v in range(n):
            p = PeerState(v, np.arange(int(degs[v]), dtype=np.int64) + n, 4)
            p.identifier = float(ids[v])
            p._top2 = [int(f) for f in top2[v] if f >= 0]
            row = anchor_pair[v]
            p.last_anchor_pair = (
                None
                if row[0] < 0
                else ((int(row[0]),) if row[1] < 0 else (int(row[0]), int(row[1])))
            )
            p.last_anchor_target = float(anchor_target[v])
            peers.append(p)
        expected = np.array(
            [
                evaluate_position(
                    peers[v],
                    ids,
                    tolerance=cfg.movement_tolerance,
                    merge_radius=cfg.merge_radius,
                )
                if eligible[v]
                else ids[v]
                for v in range(n)
            ]
        )

        pending = evaluate_positions(
            ids,
            top2,
            anchor_pair,
            anchor_target,
            eligible,
            degs,
            tolerance=cfg.movement_tolerance,
            merge_radius=cfg.merge_radius,
        )
        assert np.array_equal(pending, expected)
        # The gate memory written by the kernel matches the scalar writes.
        for v in range(n):
            row = anchor_pair[v]
            want = (
                None
                if row[0] < 0
                else ((int(row[0]),) if row[1] < 0 else (int(row[0]), int(row[1])))
            )
            assert peers[v].last_anchor_pair == want
            ours = float(anchor_target[v])
            theirs = peers[v].last_anchor_target
            assert (np.isnan(ours) and np.isnan(theirs)) or ours == theirs

    def test_stale_target_gate_blocks_and_reopens(self):
        ids = np.array([0.10, 0.12, 0.11])
        top2 = np.array([[1, 2], [-1, -1], [-1, -1]], dtype=np.int64)
        degs = np.array([2, 2, 2], dtype=np.int64)
        eligible = np.array([True, False, False])
        midpoint = 0.115
        # Last move landed exactly on the current midpoint: blocked.
        pair = np.array([[1, 2], [-1, -1], [-1, -1]], dtype=np.int64)
        target = np.array([midpoint, np.nan, np.nan])
        pending = evaluate_positions(ids, top2, pair.copy(), target.copy(), eligible, degs)
        assert pending[0] == ids[0]
        # Anchors since drifted far from the remembered target: reopened.
        target_far = np.array([0.40, np.nan, np.nan])
        pending = evaluate_positions(ids, top2, pair.copy(), target_far.copy(), eligible, degs)
        assert pending[0] != ids[0]
        assert pending[0] == pytest.approx(midpoint)


class TestDrawPartners:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_sequential_draws(self, n, seed, e, partial):
        setup = np.random.default_rng(seed)
        indptr, indices, rows = _random_csr(setup, n)
        joined = setup.random(n) < 0.7 if partial else np.ones(n, dtype=bool)

        rng_vec = np.random.default_rng(123)
        actives, partners = draw_partners(indptr, indices, joined, rng_vec, e)

        rng_ref = np.random.default_rng(123)
        exp_actives, exp_partners = [], []
        for v in range(n):
            if not joined[v]:
                continue
            cands = rows[v][joined[rows[v]]] if partial else rows[v]
            if len(cands) == 0:
                continue
            exp_actives.append(v)
            exp_partners.append(
                [int(cands[int(rng_ref.integers(len(cands)))]) for _ in range(e)]
            )
        assert actives.tolist() == exp_actives
        assert partners.tolist() == exp_partners
        # Same stream position afterwards.
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state


class TestExchangeKernel:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutual_counts_and_bitmaps(self, n, seed):
        rng = np.random.default_rng(seed)
        indptr, indices, rows = _random_csr(rng, n)
        kern = ExchangeKernel(indptr, indices)
        sets = [set(r.tolist()) for r in rows]

        npairs = int(rng.integers(1, 2 * n))
        pairs_p = rng.integers(0, n, size=npairs)
        pairs_q = rng.integers(0, n, size=npairs)

        counts = kern.mutual_counts(pairs_p, pairs_q)
        expected = [len(sets[p] & sets[q]) for p, q in zip(pairs_p, pairs_q)]
        assert counts.tolist() == expected

        links = [set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()) for _ in range(n)]
        bitmaps = kern.bitmap_ints(pairs_p, pairs_q, *_link_csr(links))
        assert bitmaps == _bitmap_reference(rows, links, pairs_p, pairs_q)
        # A subset of the pairs is the same bitmaps, restricted.
        owned = rng.random(n) < 0.5
        mine = owned[pairs_p]
        subset = kern.bitmap_ints(pairs_p[mine], pairs_q[mine], *_link_csr(links))
        assert subset == [b for b, keep in zip(bitmaps, mine.tolist()) if keep]

    def test_empty_neighborhoods(self):
        indptr = np.array([0, 0, 0], dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)
        kern = ExchangeKernel(indptr, indices)
        pairs = np.array([0, 1], dtype=np.int64)
        assert kern.mutual_counts(pairs, pairs[::-1]).tolist() == [0, 0]
        assert kern.bitmap_ints(pairs, pairs[::-1], *_link_csr([set(), set()])) == [0, 0]
        assert kern.bitmap_ints(pairs, pairs[::-1], *_link_csr([{1}, {0}])) == [0, 0]

    def test_hub_isolated_peers_and_foreign_links(self):
        # Peer 0 is a hub with 150 friends (a three-word bitmap), peers
        # 151..153 have no friends at all, and the hub's friends link
        # variously inside it, outside it, or nowhere.
        n = 154
        rows = [np.arange(1, 151)] + [np.array([0])] * 150 + [np.zeros(0, dtype=np.int64)] * 3
        degs = np.array([len(r) for r in rows], dtype=np.int64)
        kern = ExchangeKernel(np.concatenate(([0], np.cumsum(degs))), np.concatenate(rows))
        links = [set() for _ in range(n)]
        links[1] = {2, 64, 65, 129, 150}  # spans all three words of C_0
        links[2] = {151, 152, 153}  # entirely outside C_0
        links[3] = {0, 151}  # the hub itself and a stranger: not friends of 0
        links[151] = {0, 5}
        pairs_p = np.array([0, 0, 0, 0, 1, 151, 0, 152], dtype=np.int64)
        pairs_q = np.array([1, 2, 3, 4, 0, 0, 151, 153], dtype=np.int64)
        expected = _bitmap_reference(rows, links, pairs_p, pairs_q)
        assert kern.bitmap_ints(pairs_p, pairs_q, *_link_csr(links)) == expected
        assert expected[0].bit_length() == 150 and expected[1] == expected[2] == 0
        assert expected[6] == 1 << 4  # friend 5 sits at position 4 of C_0
        assert kern.mutual_counts(pairs_p, pairs_q).tolist() == [0] * len(pairs_p)
        # No links anywhere: every bitmap is empty.
        assert kern.bitmap_ints(pairs_p, pairs_q, *_link_csr([set()] * n)) == [0] * len(pairs_p)

    def test_unsorted_friend_lists_rejected(self):
        with pytest.raises(ValueError):
            ExchangeKernel(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))


class TestColumnsBinding:
    def test_overlay_ids_alias_identifier_column(self):
        graph = load_dataset("facebook", num_nodes=60, seed=3)
        ov = SelectOverlay(graph, config=SelectConfig(max_rounds=4))
        assert ov.columns.identifier is ov.ids
        ov.peers[5].identifier = 0.625
        assert ov.ids[5] == 0.625
        ov.ids[7] = 0.125
        assert ov.peers[7].identifier == 0.125

    def test_standalone_peer_owns_private_slot(self):
        p = PeerState(0, np.array([1, 2], dtype=np.int64), 4)
        p.identifier = 0.75
        p.moves_done = 3
        assert p.identifier == 0.75
        assert p.moves_done == 3
        q = PeerState(1, np.array([0], dtype=np.int64), 4)
        assert q.identifier != 0.75 or q._cols is not p._cols

    def test_shared_columns_round_trip(self):
        cols = PeerColumns(3)
        p = PeerState(2, np.array([0], dtype=np.int64), 4, columns=(cols, 2))
        p.stable_rounds = 9
        p.last_anchor_pair = (0, 1)
        p.last_anchor_target = 0.5
        assert cols.stable_rounds[2] == 9
        assert cols.anchor_pair[2].tolist() == [0, 1]
        assert cols.anchor_target[2] == 0.5


class TestEvictionBarrier:
    """Bandwidth evictions queue during the round, land at the barrier."""

    def _overlay(self):
        graph = load_dataset("facebook", num_nodes=40, seed=5)
        ov = SelectOverlay(graph, k_links=2, config=SelectConfig(max_rounds=4))
        ov.upload_mbps = np.linspace(1.0, 40.0, graph.num_nodes)
        return ov

    def test_deferred_eviction_applies_at_barrier(self):
        ov = self._overlay()
        dst, slow, fast = 0, 1, 30  # upload grows with node id
        ov._try_connect(slow, dst)
        ov._try_connect(2, dst)  # cap (k=2) now full
        ov.tables[slow].long_links.add(dst)
        ov._defer_evictions = True
        assert ov._try_connect(fast, dst)
        # Slot transferred immediately, link mutation deferred.
        assert fast in ov._incoming_sources[dst]
        assert slow not in ov._incoming_sources[dst]
        assert dst in ov.tables[slow].long_links
        assert ov._eviction_events == [(slow, dst)]

        ov.peers[slow].stable_rounds = 2
        baseline = ov.round_link_changes
        assert rounds.publish_ids(ov, *rounds.settle_ids(ov, ov.ids.copy())) == 0
        assert dst not in ov.tables[slow].long_links
        assert ov.peers[slow].stable_rounds == 0
        assert ov.round_link_changes == baseline + 1
        assert ov._eviction_events == []

    def test_immediate_eviction_outside_round(self):
        ov = self._overlay()
        dst, slow, fast = 0, 1, 30
        ov._try_connect(slow, dst)
        ov._try_connect(2, dst)
        ov.tables[slow].long_links.add(dst)
        assert ov._try_connect(fast, dst)  # _defer_evictions is False
        assert dst not in ov.tables[slow].long_links
        assert ov._eviction_events == []

    def test_slower_newcomer_rejected(self):
        ov = self._overlay()
        dst = 39
        ov._try_connect(20, dst)
        ov._try_connect(21, dst)
        assert not ov._try_connect(3, dst)  # slower than both
        assert ov._eviction_events == []


def _state(peer):
    return (
        peer.known_mutual,
        list(peer.known_bitmap.items()),
        peer.known_coverage,
        edge_block(peer),
        peer.known_bucket,
        [(friend, sorted(links)) for friend, links in peer.lookahead.items()],
        peer._top2,
        peer.stable_rounds,
    )


class TestExchangeOracle:
    """The kernel + fold of ``rounds.exchange_phase`` against Algs. 3-4
    applied pair by pair (``gossip.exchange``, the per-peer reference)."""

    #: what happens to the link tables before each round: every long-link
    #: set rebound (no view object survives), nothing but a ring refresh
    #: (every view survives), a few tables edited, or a few identifiers
    #: moved so ``(pred, succ)`` change without any long-link write.
    SCHEDULE = ("rebind", "ring", "few", "ring", "move", "ring", "rebind", "rebind", "ring")

    @staticmethod
    def _overlay(graph, seed):
        ov = SelectOverlay(graph, k_links=3, config=SelectConfig())
        ov._project(as_generator(seed))
        return ov

    @staticmethod
    def _fresh_links(table):
        links = set(table.long_links) | {table.predecessor, table.successor}
        return links - {None, table.owner}

    @staticmethod
    def _mutate(ov, kind, rng):
        n = ov.graph.num_nodes
        if kind == "rebind":
            for v, table in enumerate(ov.tables):
                size = int(rng.integers(0, 4))
                picks = rng.choice(n, size=size, replace=False).tolist()
                table.long_links = {w for w in picks if w != v}
        elif kind == "few":
            for v in rng.choice(n, size=2, replace=False).tolist():
                links, w = ov.tables[v].long_links, int(rng.integers(n))
                if w in links:
                    links.discard(w)
                elif w != v:
                    links.add(w)
        elif kind == "move":
            ov.ids[rng.choice(n, size=2, replace=False)] = rng.random(2)
        ov._refresh_ring()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_kernel_fold_matches_pairwise_exchange(self, seed):
        rng = np.random.default_rng(seed)
        registry = MetricsRegistry()
        for _ in range(6):
            n = int(rng.integers(4, 30))
            _, _, rows = _random_csr(rng, n)
            graph = SocialGraph(n, [(v, int(w)) for v in range(n) for w in rows[v] if v < w])
            build_seed = int(rng.integers(2**31 - 1))
            link_seed = int(rng.integers(2**31 - 1))
            batch, paired = (self._overlay(graph, build_seed) for _ in range(2))
            registry.attach("build.exchange", batch.exchange_stats)
            streams = [as_generator(link_seed + 1) for _ in range(2)]
            # First sightings, re-exchanges with changed bitmaps, unchanged
            # re-gossip over new view objects, and re-gossip of the very
            # view the target already folded (the skipped exchanges).
            for rnd, kind in enumerate(self.SCHEDULE):
                for ov in (batch, paired):
                    self._mutate(ov, kind, np.random.default_rng(link_seed + rnd // 2))
                fp, fq = rounds.exchange_phase(batch, streams[0])
                rp, rq = rounds.draw_pairs(paired, streams[1])
                assert np.array_equal(fp, rp) and np.array_equal(fq, rq)
                for p, q in zip(rp.tolist(), rq.tolist()):
                    exchange(paired.peers[p], paired.peers[q])
                # Whatever was skipped, every target of the round holds the
                # source's links as read off the table fields themselves.
                for t, s in zip(fp.tolist() + fq.tolist(), fq.tolist() + fp.tolist()):
                    links = self._fresh_links(batch.tables[s])
                    assert batch.peers[t].lookahead[s] == links
                    assert batch.peers[t].known_bitmap[s] == batch.peers[t].codec.encode(links)
                for v in range(n):
                    assert _state(batch.peers[v]) == _state(paired.peers[v])
        counters = registry.counters()
        assert counters["build.exchange.skipped"].value > 0
        assert counters["build.exchange.folded"].value > 0
