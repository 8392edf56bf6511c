"""Algorithms 3-6: gossip exchange, link creation, picker."""

import heapq

import numpy as np
import pytest

from repro.core.gossip import exchange, select_gossip_partner
from repro.core.links import create_links, random_links
from repro.core.peer import PeerState
from repro.core.picker import KEY_FIELD, packed_key, picker, sort_candidates
from repro.core.select import SelectOverlay
from repro.graphs.graph import SocialGraph
from repro.lsh.bitsampling import BitSamplingLsh
from repro.social.bitmaps import decode, encode
from tests.conftest import give_family


def make_peer(node, neighborhood, k=4, family_seed=1):
    peer = PeerState(node, np.array(sorted(neighborhood), dtype=np.int64), k)
    give_family(peer, BitSamplingLsh(len(neighborhood), num_samples=4, seed=family_seed))
    return peer


def star(friends, k=4, others=0):
    """Peer 0 of an overlay whose social graph is the star 0 - ``friends``,
    plus ``others`` isolated peers after them; the overlay is the explicit
    admission ledger its links are planned against and charged to."""
    n = max(friends, default=0) + 1 + others
    ov = SelectOverlay(SocialGraph(n, [(0, f) for f in friends]), k_links=k)
    peer = ov.peers[0]
    give_family(peer, BitSamplingLsh(max(len(friends), 1), num_samples=4, seed=1))
    return ov, peer


def hold(ov, src, *targets):
    """Give ``src`` long links to ``targets``, each charged on the ledger."""
    for t in targets:
        assert ov._try_connect(src, t)
        ov.tables[src].add_long(t)


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
        q.table.add_long(2)  # q links to 2, one of p's friends
        exchange(p, q)
        covered = set(decode(p.neighborhood, p.known_bitmap[1]).tolist())
        assert covered == {2}

    def test_lookahead_updated(self, tiny_graph):
        p = make_peer(0, tiny_graph.neighbors(0))
        q = make_peer(1, tiny_graph.neighbors(1))
        q.table.long_links = {2, 5}
        exchange(p, q)
        assert p.lookahead[1] == frozenset({2, 5})


class TestGossipPartner:
    def test_draws_a_friend(self, rng):
        peer = make_peer(0, [1, 2, 3])
        assert {select_gossip_partner(peer, rng) for _ in range(40)} == {1, 2, 3}

    def test_none_without_friends(self, rng):
        assert select_gossip_partner(make_peer(0, []), rng) is None


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
        """Three held links alone in their buckets and every other known
        friend in bucket 0: the plan adds bucket 0's leader, then fills the
        four slots left with the smallest (covered, -coverage, id) tuples."""
        rng = np.random.default_rng(100 + seed)
        ov, peer = star(range(1, 31), k=8)
        known = list(range(1, 31, 2))
        for f in known:
            linked = rng.choice(np.arange(1, 31), size=int(rng.integers(0, 4)), replace=False)
            peer.learn_exchange(f, 1, encode(peer.neighborhood, linked), linked.tolist())
        links = rng.choice(known, size=3, replace=False).tolist()
        hold(ov, 0, *links)
        coverage = {f: b.bit_count() for f, b in peer.known_bitmap.items()}
        for f in known:
            peer._edges.bucket[peer._edge(f)] = links.index(f) + 1 if f in links else 0
        leader = min((f for f in known if f not in links), key=lambda f: (-coverage[f], f))
        cover = 0
        for w in links + [leader]:
            cover |= peer.known_bitmap[w]
        reference = heapq.nsmallest(
            4,
            ((bool(cover >> (f - 1) & 1), -coverage[f], f) for f in known if f not in links + [leader]),
        )
        assert create_links(peer, ov)
        added = set(peer.table.long_links) - set(links)
        assert added == {leader} | {f for _, _, f in reference}

    def test_a_contact_outside_the_neighbourhood_is_refused(self):
        # Friends 1..30: a contact 40..44 has no bit position and no slot.
        peer = PeerState(0, np.arange(1, 31), k_links=6)
        for stranger in range(40, 45):
            with pytest.raises(ValueError, match="no slot"):
                peer.learn_exchange(stranger, 1, 0, [])
        assert peer.known_bitmap == {} and peer.known_mutual == {}


class TestCreateLinks:
    def test_no_knowledge_no_change(self):
        ov, peer = star([1, 2, 3])
        assert not create_links(peer, ov)

    def test_links_established_from_knowledge(self):
        ov, peer = star(range(1, 9), k=4)
        for friend in range(1, 9):
            bitmap = encode(peer.neighborhood, [friend % 8 + 1, (friend + 2) % 8 + 1])
            peer.learn_exchange(friend, mutual=friend, bitmap=bitmap, friend_links=[])
        changed = create_links(peer, ov)
        assert changed
        assert 0 < len(peer.table.long_links) <= 4
        assert all(0 in ov.admitted(w) for w in peer.table.long_links)

    def test_incoming_cap_respected(self):
        ov, peer = star([1, 2, 3], k=3, others=3)
        for friend in (1, 2, 3):
            peer.learn_exchange(friend, 1, encode(peer.neighborhood, [friend]), [])
            for src in (4, 5, 6):  # every friend's three slots are taken
                assert ov.try_accept_incoming(src, friend)
        assert not create_links(peer, ov)
        assert peer.table.long_links == ()

    def test_budget_fill_prefers_uncovered_friends(self):
        ov, peer = star([1, 2, 3, 4], k=2)
        # friend 1 covers friends {2}; friend 3 covers nothing; friend 4 covers nothing.
        peer.learn_exchange(1, 4, encode(peer.neighborhood, [2]), [2])
        peer.learn_exchange(3, 1, encode(peer.neighborhood, []), [])
        peer.learn_exchange(4, 1, encode(peer.neighborhood, []), [])
        create_links(peer, ov)
        assert len(peer.table.long_links) == 2

    def test_same_bucket_redundant_link_swapped_for_diverse_one(self):
        # Budget 2, three known friends: 1 and 2 are redundant (identical
        # bitmaps -> same LSH bucket), 3 is distinct. Algorithm 5 must
        # end with one of the redundant pair plus the diverse friend, not
        # both redundant ones.
        ov, peer = star(range(1, 7), k=2)
        same = encode(peer.neighborhood, [1, 2])
        peer.learn_exchange(1, 5, same, [1, 2])
        peer.learn_exchange(2, 4, same, [1, 2])
        peer.learn_exchange(3, 3, encode(peer.neighborhood, [4, 5]), [4, 5])
        hold(ov, 0, 1, 2)  # start with the redundant pair
        create_links(peer, ov, hysteresis=0)
        assert len({1, 2} & set(peer.table.long_links)) == 1
        assert 3 in peer.table.long_links
        # The dropped link's slot is released with it.
        assert [0 in ov.admitted(w) for w in (1, 2, 3)] == [w in peer.table.long_links for w in (1, 2, 3)]

    def test_hysteresis_keeps_established_link(self):
        ov, peer = star(range(1, 7), k=3)
        a = encode(peer.neighborhood, [1, 2])
        b = encode(peer.neighborhood, [1, 2])
        peer.learn_exchange(1, 5, a, [1, 2])
        peer.learn_exchange(2, 4, b, [1, 2])
        # 2 established; challenger 1 has equal coverage -> keep 2.
        hold(ov, 0, 2)
        create_links(peer, ov, hysteresis=2)
        assert 2 in peer.table.long_links


class TestRandomLinks:
    def test_fills_budget_from_known(self, rng):
        ov, peer = star(range(1, 10), k=4)
        for friend in range(1, 10):
            peer.learn_exchange(friend, 1, encode(peer.neighborhood, []), [])
        changed = random_links(peer, ov, rng)
        assert changed
        assert len(peer.table.long_links) == 4
        assert all(0 in ov.admitted(w) for w in peer.table.long_links)

    def test_no_known_no_change(self, rng):
        ov, peer = star([1, 2])
        assert not random_links(peer, ov, rng)
