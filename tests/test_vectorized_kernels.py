"""Vectorized round kernels pinned to brute-force references (hypothesis).

Every kernel in :mod:`repro.core.vectorized` has a straightforward
per-peer reference here — the scalar code path it replaced — and the
tests assert elementwise (mostly bitwise) equality, including the cases
that historically break ring arithmetic: duplicate identifiers, the 0/1
seam, empty neighborhoods, and degree-1 peers.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import columns, rounds
from repro.core.columns import EdgeColumns, PeerColumns, chunks
from repro.core.config import LSH_SAMPLES, SelectConfig
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
from repro.lsh.bitsampling import BitSamplingLsh
from repro.overlay.base import RoutingTable
from repro.persist import capture, restore
from repro.social.bitmaps import encode
from repro.telemetry.registry import MetricsRegistry
from repro.util.rng import as_generator
from tests.conftest import assert_edge_columns_recompute, edge_block

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
                evaluate_position(peers[v], ids)
                if eligible[v]
                else ids[v]
                for v in range(n)
            ]
        )

        pending = evaluate_positions(ids, top2, anchor_pair, anchor_target, eligible, degs)
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
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_sequential_draws(self, n, seed):
        indptr, indices, rows = _random_csr(np.random.default_rng(seed), n)

        rng_vec = np.random.default_rng(123)
        actives, partners = draw_partners(indptr, indices, rng_vec)

        rng_ref = np.random.default_rng(123)
        exp_actives, exp_partners = [], []
        for v in range(n):
            if len(rows[v]) == 0:
                continue
            exp_actives.append(v)
            exp_partners.append(int(rows[v][int(rng_ref.integers(len(rows[v])))]))
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


class TestChunkSeams:
    """Every round kernel cut into runs of a few elements computes what it
    computes whole (``columns.CHUNK`` is the one budget)."""

    @given(st.lists(st.integers(0, 20), max_size=40), st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_runs_cover_the_segments_in_order_within_the_budget(self, lengths, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(columns, "CHUNK", budget)
            runs = list(chunks(np.array(lengths, dtype=np.int64)))
        assert [i for lo, hi in runs for i in range(lo, hi)] == list(range(len(lengths)))
        for lo, hi in runs:
            # Within the budget, unless one oversized segment stands alone,
            # and as long as it can be: the next segment would not fit.
            assert sum(lengths[lo:hi]) <= budget or hi - lo == 1
            assert hi == len(lengths) or sum(lengths[lo : hi + 1]) > budget

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kernels_in_small_runs(self, n, seed, budget):
        rng = np.random.default_rng(seed)
        indptr, indices, rows = _random_csr(rng, n)
        kern = ExchangeKernel(indptr, indices)
        npairs = int(rng.integers(1, 3 * n))
        pairs_p = rng.integers(0, n, size=npairs)
        pairs_q = rng.integers(0, n, size=npairs)
        links = [set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()) for _ in range(n)]
        degree = (indptr[1:] - indptr[:-1])[pairs_p]
        sample = rng.integers(0, np.maximum(degree, 1)[:, None], size=(npairs, LSH_SAMPLES))
        sample[rng.random(sample.shape) < 0.2] = -1
        sample[degree == 0] = -1

        def run():
            bitmaps, popcounts, bits = kern.bitmap_ints(pairs_p, pairs_q, *_link_csr(links), sample)
            return kern.mutual_counts(pairs_p, pairs_q).tolist(), bitmaps, popcounts.tolist(), bits.tolist()

        whole = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(columns, "CHUNK", budget)
            assert run() == whole
        assert whole[1] == _bitmap_reference(rows, links, pairs_p, pairs_q)
        assert whole[2] == [b.bit_count() for b in whole[1]]
        for i, positions in enumerate(sample.tolist()):
            assert whole[3][i] == [(whole[1][i] >> j) & 1 if j >= 0 else 0 for j in positions]

    def test_a_1k_build_in_small_runs_is_the_same_overlay(self, monkeypatch):
        """Seams in every kernel, fold and link log of every round, and in
        the snapshot's view dedup: the overlay, its counters and its
        snapshot id are the default budget's."""
        graph = load_dataset("facebook", num_nodes=1000, seed=7)

        def build():
            ov = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
            digest = hashlib.sha256(ov.ids.tobytes() + ov.long_links.tobytes()).hexdigest()
            stats = (ov.exchange_stats, ov.link_stats, ov.iterations)
            return digest, stats, capture(ov)["manifest"]["snapshot_id"]

        whole = build()
        monkeypatch.setattr(columns, "CHUNK", 200)
        assert build() == whole
        assert whole[2] == "89dc685e361f1933"


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
        ov.tables[slow].add_long(dst)
        ov._defer_evictions = True
        assert ov._try_connect(fast, dst)
        # Slot transferred immediately, link mutation deferred.
        assert fast in ov.admitted(dst)
        assert slow not in ov.admitted(dst)
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
        ov.tables[slow].add_long(dst)
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
        list(peer.known_mutual.items()),
        list(peer.known_bitmap.items()),
        edge_block(peer),
        [(friend, sorted(links)) for friend, links in peer.lookahead.items()],
        peer._top2,
        peer.stable_rounds,
    )


class TestExchangeOracle:
    """The kernel + fold of ``rounds.exchange_phase`` against Algs. 3-4
    applied pair by pair (``gossip.exchange``, the per-peer reference)."""

    #: what happens to the link tables before each round: every long-link
    #: set rebound (no view object survives), nothing but a ring refresh
    #: (every view survives), a few tables edited, a few identifiers
    #: moved so ``(pred, succ)`` change without any long-link write, or a
    #: few peers forgetting the friend they learned first (recovery's
    #: ``forget_peer``: the bitmap goes, the mutual count stays).
    SCHEDULE = (
        "rebind", "ring", "few", "forget", "ring", "move", "ring", "rebind", "forget", "rebind",
        "ring", "ring",
    )

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
        """Apply ``kind``; returns each forgotten ``(peer, friend, (friends
        in known_bitmap order, in known_mutual order))`` before the forget."""
        n, forgotten = ov.graph.num_nodes, []
        if kind == "rebind":
            for v, table in enumerate(ov.tables):
                size = int(rng.integers(0, 4))
                picks = rng.choice(n, size=size, replace=False).tolist()
                # A table holds at most max_long links.
                table.long_links = [w for w in picks if w != v][: table.max_long]
        elif kind == "few":
            for v in rng.choice(n, size=2, replace=False).tolist():
                table, w = ov.tables[v], int(rng.integers(n))
                if w in table.long_links:
                    table.drop_long(w)
                elif w != v and len(table.long_links) < table.max_long:
                    table.add_long(w)
        elif kind == "move":
            ov.ids[rng.choice(n, size=2, replace=False)] = rng.random(2)
        elif kind == "forget":
            for v in rng.choice(n, size=3, replace=False).tolist():
                peer = ov.peers[v]
                known = list(peer.known_bitmap)
                if known:
                    before = known, list(peer.known_mutual)
                    peer.forget_peer(known[0])
                    forgotten.append((v, known[0], before))
        ov._refresh_ring()
        return forgotten

    @pytest.mark.parametrize("seed", [3, 11])
    def test_kernel_fold_matches_pairwise_exchange(self, seed):
        self._check_against_pairwise_exchange(seed)

    def test_kernel_fold_in_small_runs_matches_pairwise_exchange(self, monkeypatch):
        """With a budget of 3 elements every kernel and the fold run a few
        pairs at a time, so seams fall inside each round."""
        monkeypatch.setattr(columns, "CHUNK", 3)
        self._check_against_pairwise_exchange(5)

    def _check_against_pairwise_exchange(self, seed):
        rng = np.random.default_rng(seed)
        registry = MetricsRegistry()
        relearned = twice = 0
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
            # re-gossip over new view objects, re-gossip of the very view
            # the target already folded (the skipped exchanges), re-learning
            # a forgotten friend, and pairs drawn twice in one round.
            forgotten = []
            for rnd, kind in enumerate(self.SCHEDULE):
                self._mutate(paired, kind, np.random.default_rng(link_seed + rnd // 2))
                forgotten += self._mutate(batch, kind, np.random.default_rng(link_seed + rnd // 2))
                fp, fq = rounds.exchange_phase(batch, streams[0])
                drawn = list(zip(fp.tolist(), fq.tolist()))
                twice += len(set(drawn) & {(q, p) for p, q in drawn})
                rp, rq = draw_partners(paired._nbr_indptr, paired._nbr_indices, streams[1])
                assert np.array_equal(fp, rp) and np.array_equal(fq, rq)
                for p, q in zip(rp.tolist(), rq.tolist()):
                    exchange(paired.peers[p], paired.peers[q])
                # Whatever was skipped, every target of the round holds the
                # source's links as read off the table fields themselves.
                for t, s in zip(fp.tolist() + fq.tolist(), fq.tolist() + fp.tolist()):
                    links = self._fresh_links(batch.tables[s])
                    assert batch.peers[t].lookahead[s] == links
                    assert batch.peers[t].known_bitmap[s] == encode(batch.peers[t].neighborhood, links)
                for v in range(n):
                    assert _state(batch.peers[v]) == _state(paired.peers[v])
                # A snapshot round trip stores each slot's log row as a view
                # and restores it as a row of a new log: the same links.
                twin = restore(capture(batch))
                for t, s in zip(fp.tolist() + fq.tolist(), fq.tolist() + fp.tolist()):
                    assert twin.peers[t].lookahead[s] == self._fresh_links(batch.tables[s])
                for v in range(n):
                    assert twin.peers[v].lookahead == batch.peers[v].lookahead
                # A re-learned bitmap goes behind every bitmap learned before
                # it was forgotten; its mutual count keeps its place.
                for v, f, (bitmaps, mutual) in list(forgotten):
                    peer = batch.peers[v]
                    order = list(peer.known_bitmap)
                    if f in order:
                        earlier = [order.index(w) for w in bitmaps[1:] if w in order]
                        assert max(earlier, default=-1) < order.index(f)
                        assert list(peer.known_mutual)[: len(mutual)] == mutual
                        forgotten.remove((v, f, (bitmaps, mutual)))
                        relearned += 1
        assert relearned > 0 and twice > 0
        counters = registry.counters()
        assert counters["build.exchange.skipped"].value > 0
        assert counters["build.exchange.folded"].value > 0

    @given(
        degree=st.one_of(st.integers(1, 8), st.integers(1, 64)),
        k=st.integers(2, 9),
        seed=st.integers(0, 2**31 - 2),
        links=st.lists(st.sets(st.integers(0, 63), max_size=8), min_size=64, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_bucket_is_the_family_hash(self, degree, k, seed, links):
        """A hub with ``degree`` friends (and friends of degree 1: families
        of fewer bits than ``LSH_SAMPLES``) learns its friends' bitmaps in
        the fold; every bucket the signature table gave is the family's
        ``BitSamplingLsh.bucket``."""
        graph = SocialGraph(degree + 1, [(0, f) for f in range(1, degree + 1)])
        ov = SelectOverlay(graph, k_links=k, config=SelectConfig())
        ov._project(as_generator(seed))
        for f in range(1, degree + 1):
            ov.tables[f].long_links = sorted({w % degree + 1 for w in links[f - 1]} - {f})[:k]
        rng = as_generator(seed + 1)
        for _ in range(3):
            rounds.exchange_phase(ov, rng)
        assert (ov.edge_columns.bucket >= 0).sum() > 1
        assert_edge_columns_recompute(ov.peers)
        family, hub = BitSamplingLsh(degree, LSH_SAMPLES, seed=ov._lsh_seed), ov.peers[0]
        assert {f: hub.bucket_of(f) for f in hub.known_bitmap} == {
            f: family.bucket(b, k) for f, b in hub.known_bitmap.items()
        }

    def test_a_build_calls_no_per_peer_learn(self, monkeypatch):
        """The fold is array passes: ``learn_exchange`` is only its reference."""
        calls = []
        learn = PeerState.learn_exchange

        def counted(*args, **kwargs):
            calls.append(args)
            return learn(*args, **kwargs)

        monkeypatch.setattr(PeerState, "learn_exchange", counted)
        graph = load_dataset("facebook", num_nodes=300, seed=7)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
        assert overlay.iterations == 58 and calls == []

    def test_a_build_logs_links_without_link_views(self, monkeypatch):
        """The fold reads each peer's long links off its table into the link
        log: a build asks no table for its combined links, and every slot
        names a log row (an int), never a link-set object."""
        calls = []
        all_links = RoutingTable.all_links

        def counted(table):
            calls.append(table.owner)
            return all_links(table)

        monkeypatch.setattr(RoutingTable, "all_links", counted)
        graph = load_dataset("facebook", num_nodes=300, seed=7)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
        edges = overlay.edge_columns
        assert overlay.iterations == 58 and calls == []
        assert all(getattr(edges, name).dtype != object for name in ("view", "targets", "indptr"))
        assert (edges.bitmap_stamp >= 0).sum() == (edges.view >= 0).sum() > 0

    def test_the_barrier_compacts_the_log(self, monkeypatch):
        """Rows die within the build (a newer head, a refolded slot): the
        barrier compacts once the log holds twice the rows the last
        compaction kept, so the 2k build's log peaks at 16 836 rows, not at
        the 22 557 it logs, and ends as the same log (row ids are only
        compared for equality). Each peer keeps a head row, so no compaction
        runs before the log holds twice the peer count."""
        peak, compacted = [], []
        append, compact = EdgeColumns.append, EdgeColumns.compact

        def counted(edges, *args):
            rows = append(edges, *args)
            peak.append(edges.rows)
            return rows

        def logged(edges, heads):
            compacted.append(edges.rows)
            compact(edges, heads)

        monkeypatch.setattr(EdgeColumns, "append", counted)
        monkeypatch.setattr(EdgeColumns, "compact", logged)
        graph = load_dataset("facebook", num_nodes=2000, seed=7)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
        edges = overlay.edge_columns
        h = hashlib.sha256()
        # ``view`` is int32; the pin hashes it widened to the int64 it was.
        for column in (edges.targets, edges.indptr, edges.view.astype(np.int64), overlay.link_head):
            h.update(np.ascontiguousarray(column).tobytes())
        assert overlay.iterations == 48 and edges.rows == 8978
        assert h.hexdigest()[:16] == "f7e1240c7fbaa03b"
        assert max(peak) == 16836 < 22557, max(peak)
        assert min(compacted) >= 2 * graph.num_nodes, compacted

    def test_a_build_keeps_only_named_log_rows(self):
        """The build ends by compacting the log: every row is some slot's
        view or some peer's head, and the head of a peer whose links did not
        move after the last exchange holds its current links."""
        graph = load_dataset("facebook", num_nodes=300, seed=7)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
        edges, head = overlay.edge_columns, overlay.link_head
        named = np.concatenate((edges.view, head))
        assert np.array_equal(np.unique(named[named >= 0]), np.arange(edges.rows))
        assert len(edges.targets) == edges.indptr[edges.rows] and len(edges.indptr) == edges.rows + 1
        ring = np.stack((overlay.ring_pred, overlay.ring_succ), axis=1)
        still = ~overlay.links_written & (ring == overlay._head_ring).all(axis=1)
        assert 0 < still.sum() < len(still)
        for v in np.flatnonzero(still).tolist():
            assert set(edges.row(head[v])) == self._fresh_links(overlay.tables[v])
