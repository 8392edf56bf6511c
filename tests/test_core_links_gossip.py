"""Algorithms 3-6: gossip exchange, link creation, picker."""

import numpy as np
import pytest

from repro.core.gossip import exchange, select_gossip_partner
import heapq

from repro.core.links import _fill_keys, create_links, random_links
from repro.core.peer import PeerState
from repro.core.picker import KEY_FIELD, packed_key, picker, sort_candidates
from repro.lsh.bitsampling import BitSamplingLsh


def make_peer(node, neighborhood, k=4, family_seed=1):
    peer = PeerState(node, np.array(sorted(neighborhood), dtype=np.int64), k)
    peer.lsh_family = BitSamplingLsh(len(neighborhood), num_samples=4, seed=family_seed)
    peer.k_buckets = k
    return peer


class Cap:
    """Incoming-cap bookkeeping stub."""

    def __init__(self, k=4):
        self.k = k
        self.incoming = {}

    def try_connect(self, src, dst):
        got = self.incoming.setdefault(dst, set())
        if src in got:
            return True
        if len(got) >= self.k:
            return False
        got.add(src)
        return True

    def disconnect(self, src, dst):
        self.incoming.get(dst, set()).discard(src)


class TestExchange:
    def test_both_sides_learn(self, tiny_graph):
        p = make_peer(0, tiny_graph.neighbors(0))
        q = make_peer(1, tiny_graph.neighbors(1))
        exchange(p, q)
        assert 1 in p.known_mutual and 0 in q.known_mutual
        # mutual friends of 0 and 1 = {2}.
        assert p.known_mutual[1] == 1
        assert q.known_mutual[0] == 1

    def test_bitmap_reflects_partner_links(self, tiny_graph):
        p = make_peer(0, tiny_graph.neighbors(0))  # C_0 = {1, 2}
        q = make_peer(1, tiny_graph.neighbors(1))
        q.table.long_links.add(2)  # q links to 2, one of p's friends
        exchange(p, q)
        covered = set(p.codec.decode(p.known_bitmap[1]).tolist())
        assert covered == {2}

    def test_lookahead_updated(self, tiny_graph):
        p = make_peer(0, tiny_graph.neighbors(0))
        q = make_peer(1, tiny_graph.neighbors(1))
        q.table.long_links.update({2, 5})
        exchange(p, q)
        assert p.lookahead[1] == frozenset({2, 5})


class TestGossipPartner:
    def test_only_joined_friends(self, rng):
        peer = make_peer(0, [1, 2, 3])
        joined = np.array([True, False, True, False])
        for _ in range(20):
            partner = select_gossip_partner(peer, joined, rng)
            assert partner == 2

    def test_none_when_no_friend_joined(self, rng):
        peer = make_peer(0, [1, 2])
        joined = np.zeros(3, dtype=bool)
        assert select_gossip_partner(peer, joined, rng) is None


class TestPicker:
    def test_coverage_ranking(self):
        coverage = {1: 3, 2: 5, 3: 1}
        assert sort_candidates([1, 2, 3], coverage) == [2, 1, 3]
        assert picker([1, 2, 3], coverage) == 2

    def test_bandwidth_tiebreak_prefers_faster_runner_up(self):
        coverage = {1: 5, 2: 5}
        upload = np.array([0.0, 1.0, 10.0])
        # sorted -> [2, 1] by bw; picker returns ranked[0]=2 already.
        assert picker([1, 2], coverage, upload) == 2
        # Equal coverage, equal bw: lowest id wins.
        upload_eq = np.array([0.0, 3.0, 3.0])
        assert picker([1, 2], coverage, upload_eq) == 1

    def test_algorithm6_swap_rule(self):
        # Leader by coverage but slower than runner-up -> runner-up wins.
        coverage = {1: 9, 2: 5}
        upload = np.array([0.0, 1.0, 50.0])
        assert picker([1, 2], coverage, upload) == 2

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            picker([], {})


class TestPackedKeys:
    """The keys packed at learn time order candidates exactly as the
    tuple keys they replaced, ties in coverage included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_packed_min_is_sort_candidates_leader(self, seed):
        rng = np.random.default_rng(seed)
        members = rng.choice(500, size=int(rng.integers(2, 40)), replace=False).tolist()
        # A handful of coverage values over many members: plenty of ties.
        coverage = {m: int(rng.integers(0, 4)) for m in members}
        leader = sort_candidates(members, coverage)[0]
        assert min(packed_key(m, coverage[m]) for m in members) & KEY_FIELD == leader
        assert picker(members, coverage) == leader

    @pytest.mark.parametrize("seed", range(8))
    def test_fill_slice_is_nsmallest_on_tuple_order(self, seed):
        rng = np.random.default_rng(100 + seed)
        # Friends 1..30 plus learned contacts 40..44 outside the
        # neighbourhood (no bit position: never counted as covered).
        peer = PeerState(0, np.arange(1, 31), k_links=6)
        known = list(range(1, 31, 2)) + list(range(40, 45))
        for f in known:
            linked = rng.choice(np.arange(1, 31), size=int(rng.integers(0, 4)), replace=False)
            peer.learn_exchange(f, 1, peer.codec.encode(linked), linked.tolist())
        links = set(rng.choice(known, size=3, replace=False).tolist())
        cover = 0
        for w in links:
            cover |= peer.known_bitmap[w]
        position, coverage = peer.codec.position, peer.known_coverage
        reference = heapq.nsmallest(
            5,
            (
                (f in position and bool(cover >> position[f] & 1), -coverage[f], f)
                for f in known
                if f not in links
            ),
        )
        keys = sorted(_fill_keys(peer, known, links, coverage))[:5]
        assert [key & KEY_FIELD for key in keys] == [f for _, _, f in reference]
        assert len(set(keys)) == len(keys)


class TestCreateLinks:
    def test_no_knowledge_no_change(self):
        peer = make_peer(0, [1, 2, 3])
        cap = Cap()
        assert not create_links(peer, 4, cap.try_connect, cap.disconnect)

    def test_links_established_from_knowledge(self):
        peer = make_peer(0, list(range(1, 9)), k=4)
        cap = Cap()
        for friend in range(1, 9):
            bitmap = peer.codec.encode([friend % 8 + 1, (friend + 2) % 8 + 1])
            peer.learn_exchange(friend, mutual=friend, bitmap=bitmap, friend_links=[])
        changed = create_links(peer, 4, cap.try_connect, cap.disconnect)
        assert changed
        assert 0 < len(peer.table.long_links) <= 4

    def test_incoming_cap_respected(self):
        peer = make_peer(0, [1, 2, 3], k=3)
        cap = Cap(k=0)  # nobody accepts incoming links
        for friend in (1, 2, 3):
            peer.learn_exchange(friend, 1, peer.codec.encode([friend]), [])
        create_links(peer, 3, cap.try_connect, cap.disconnect)
        assert peer.table.long_links == set()

    def test_budget_fill_prefers_uncovered_friends(self):
        peer = make_peer(0, [1, 2, 3, 4], k=2)
        cap = Cap()
        # friend 1 covers friends {2}; friend 3 covers nothing; friend 4 covers nothing.
        peer.learn_exchange(1, 4, peer.codec.encode([2]), [2])
        peer.learn_exchange(3, 1, peer.codec.encode([]), [])
        peer.learn_exchange(4, 1, peer.codec.encode([]), [])
        create_links(peer, 2, cap.try_connect, cap.disconnect)
        assert len(peer.table.long_links) == 2

    def test_same_bucket_redundant_link_swapped_for_diverse_one(self):
        # Budget 2, three known friends: 1 and 2 are redundant (identical
        # bitmaps -> same LSH bucket), 3 is distinct. Algorithm 5 must
        # end with one of the redundant pair plus the diverse friend, not
        # both redundant ones.
        peer = make_peer(0, list(range(1, 7)), k=2)
        cap = Cap()
        same = peer.codec.encode([1, 2])
        peer.learn_exchange(1, 5, same, [1, 2])
        peer.learn_exchange(2, 4, same, [1, 2])
        peer.learn_exchange(3, 3, peer.codec.encode([4, 5]), [4, 5])
        peer.table.long_links.update({1, 2})  # start with the redundant pair
        cap.try_connect(0, 1)
        cap.try_connect(0, 2)
        create_links(peer, 2, cap.try_connect, cap.disconnect, hysteresis=0)
        assert len({1, 2} & peer.table.long_links) == 1
        assert 3 in peer.table.long_links

    def test_hysteresis_keeps_established_link(self):
        peer = make_peer(0, list(range(1, 7)), k=3)
        cap = Cap()
        a = peer.codec.encode([1, 2])
        b = peer.codec.encode([1, 2])
        peer.learn_exchange(1, 5, a, [1, 2])
        peer.learn_exchange(2, 4, b, [1, 2])
        # 2 established; challenger 1 has equal coverage -> keep 2.
        peer.table.long_links.add(2)
        cap.try_connect(0, 2)
        create_links(peer, 3, cap.try_connect, cap.disconnect, hysteresis=2)
        assert 2 in peer.table.long_links


class TestRandomLinks:
    def test_fills_budget_from_known(self, rng):
        peer = make_peer(0, list(range(1, 10)), k=4)
        cap = Cap()
        for friend in range(1, 10):
            peer.learn_exchange(friend, 1, peer.codec.encode([]), [])
        changed = random_links(peer, 4, cap.try_connect, rng)
        assert changed
        assert len(peer.table.long_links) == 4

    def test_no_known_no_change(self, rng):
        peer = make_peer(0, [1, 2])
        cap = Cap()
        assert not random_links(peer, 2, cap.try_connect, rng)
