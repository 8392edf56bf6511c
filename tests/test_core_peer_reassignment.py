"""Peer state (Table I) and Algorithm 2 reassignment."""

import numpy as np
import pytest

from repro.core.peer import PeerState
from repro.core.picker import packed_key
from repro.core.reassignment import apply_reassignment, evaluate_position
from repro.idspace.space import ring_midpoint
from tests.conftest import edge_block


def make_peer(node=0, neighborhood=(1, 2, 3), k=4):
    return PeerState(node, np.array(neighborhood, dtype=np.int64), k)


def teach(peer, friend, mutual, linked=()):
    bitmap = peer.codec.encode(linked)
    peer.learn_exchange(friend, mutual, bitmap, linked)


class TestPeerState:
    def test_strength_eq2(self):
        peer = make_peer(neighborhood=(1, 2, 3, 4))
        teach(peer, 1, mutual=2)
        assert peer.strength(1) == pytest.approx(0.5)
        assert peer.strength(99) == 0.0

    def test_strongest_known_incremental(self):
        peer = make_peer()
        teach(peer, 3, mutual=1)
        teach(peer, 1, mutual=5)
        teach(peer, 2, mutual=3)
        assert peer.strongest_known(2) == [1, 2]
        assert peer.strongest_known(1) == [1]

    def test_strongest_known_tie_breaks_to_lower_id(self):
        peer = make_peer()
        teach(peer, 2, mutual=4)
        teach(peer, 1, mutual=4)
        assert peer.strongest_known(2) == [1, 2]

    def test_strongest_known_among_filter(self):
        peer = make_peer()
        teach(peer, 1, mutual=5)
        teach(peer, 2, mutual=3)
        assert peer.strongest_known(2, among=[2]) == [2]

    def test_learn_exchange_caches(self):
        peer = make_peer()
        teach(peer, 1, mutual=2, linked=(2, 3))
        assert peer.known_coverage[1] == 2
        assert 1 in peer.known_bitmap
        assert peer.lookahead[1] == frozenset({2, 3})
        assert edge_block(peer)[0] == [packed_key(1, 2), -1, -1]

    def test_neighborhood_set_handed_in_is_kept(self):
        shared = frozenset({1, 2, 3})
        peer = PeerState(0, np.array([1, 2, 3]), k_links=2, neighborhood_set=shared)
        assert peer.neighborhood_set is shared
        assert PeerState(0, np.array([1, 2, 3]), k_links=2).neighborhood_set == shared

    def test_new_friend_resets_stability(self):
        peer = make_peer()
        peer.stable_rounds = 10
        teach(peer, 1, mutual=1)
        assert peer.stable_rounds == 0
        peer.stable_rounds = 10
        teach(peer, 1, mutual=1)  # re-learning is not new
        assert peer.stable_rounds == 10

    def test_forget_peer_clears_all(self):
        peer = make_peer()
        teach(peer, 1, mutual=2, linked=(2,))
        peer.forget_peer(1)
        assert 1 not in peer.known_bitmap
        assert 1 not in peer.known_coverage
        assert 1 not in peer.known_bucket
        assert 1 not in peer.lookahead
        assert edge_block(peer) == ([-1, -1, -1], [-1, -1, -1])

    def test_covered_friends_direct_and_lookahead(self):
        peer = make_peer(neighborhood=(1, 2, 3))
        peer.table.long_links.add(1)
        teach(peer, 1, mutual=1, linked=(2,))  # 1 links to friend 2
        covered = peer.covered_friends()
        assert 1 in covered  # direct
        assert 2 in covered  # via lookahead through 1
        assert 3 not in covered

    def test_bucket_of_without_family_is_zero(self):
        peer = make_peer()
        teach(peer, 1, mutual=1)
        assert peer.bucket_of(1) == 0


class TestEvaluatePosition:
    def test_moves_to_midpoint_of_close_anchors(self):
        peer = make_peer()
        peer.identifier = 0.9
        teach(peer, 1, mutual=5)
        teach(peer, 2, mutual=4)
        ids = np.array([0.0, 0.30, 0.32, 0.5])
        new = evaluate_position(peer, ids, merge_radius=0.05)
        assert new == pytest.approx(float(ring_midpoint(0.30, 0.32)))

    def test_stays_when_anchors_far_apart(self):
        peer = make_peer()
        peer.identifier = 0.9
        teach(peer, 1, mutual=5)
        teach(peer, 2, mutual=4)
        ids = np.array([0.0, 0.1, 0.6, 0.5])  # anchors 0.5 apart
        assert evaluate_position(peer, ids, merge_radius=0.05) == 0.9

    def test_improvement_gate_blocks_noise_moves(self):
        peer = make_peer()
        teach(peer, 1, mutual=5)
        teach(peer, 2, mutual=4)
        ids = np.array([0.0, 0.30, 0.32, 0.5])
        peer.identifier = float(ring_midpoint(0.30, 0.32))  # already optimal
        assert evaluate_position(peer, ids) == peer.identifier

    def test_no_knowledge_stays(self):
        peer = make_peer()
        peer.identifier = 0.42
        assert evaluate_position(peer, np.zeros(4)) == 0.42

    def test_single_anchor_only_for_degree_one(self):
        lonely = make_peer(node=0, neighborhood=(1,))
        teach(lonely, 1, mutual=0)
        lonely.identifier = 0.5
        ids = np.array([0.0, 0.9])
        moved = evaluate_position(lonely, ids)
        assert moved == pytest.approx(float(ring_midpoint(0.5, 0.9)))

        social = make_peer(node=0, neighborhood=(1, 2, 3))
        teach(social, 1, mutual=2)
        social.identifier = 0.5
        assert evaluate_position(social, ids=np.array([0.0, 0.9, 0.1, 0.2])) == 0.5


class TestApplyReassignment:
    def test_counts_only_real_moves(self):
        peer = make_peer()
        peer.identifier = 0.5
        assert not apply_reassignment(peer, 0.5 + 1e-9, tolerance=1e-3)
        assert apply_reassignment(peer, 0.6, tolerance=1e-3)
        assert peer.identifier == 0.6
