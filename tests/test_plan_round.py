"""Algs. 5-6 as one batch a round: ``vectorized.plan_round`` against its
per-peer reference ``links.plan_links``, the optimistic walk of the plain
build against the live-ledger outcome, and the edge columns both read.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import columns, rounds
from repro.core import select as select_module
from repro.core.config import LSH_SAMPLES, SelectConfig
from repro.core.links import create_links, plan_links
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.core.vectorized import plan_round
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.lsh.bitsampling import BitSamplingLsh
from repro.persist import capture, restore, restore_into
from repro.persist.snapshot import _canonical
from tests.conftest import assert_edge_columns_recompute, edge_block, give_family


def reference(ov, gate, hysteresis=2):
    plans = {v: plan_links(ov.peers[v], ov, hysteresis) for v in gate}
    return {v: plan for v, plan in plans.items() if plan is not None}


def overlay_of(n, edges, k, family=True):
    ov = SelectOverlay(SocialGraph(n, edges), k_links=k, config=SelectConfig())
    if family:
        for peer in ov.peers:
            give_family(peer, BitSamplingLsh(max(len(peer.neighborhood), 1), num_samples=2, seed=1))
    return ov


def teach(ov, p, friend, bits, bucket=None):
    """``p`` learns ``friend`` with a bitmap of ``bits`` set bits, in ``bucket``
    (None = whatever the peer's family hashes it to, or none without one)."""
    peer = ov.peers[p]
    peer.learn_exchange(friend, 0, (1 << bits) - 1, frozenset())
    if bucket is not None:
        pin_bucket(peer, friend, bucket)


def pin_bucket(peer, friend, bucket):
    """Put a learned ``friend`` in ``bucket``, whatever the family hashes."""
    peer._edges.bucket[peer._edge(friend)] = bucket


def link(ov, p, *targets):
    """Give ``p`` long links without touching the ledger (tests set it)."""
    for t in targets:
        ov.tables[p].add_long(t)


# -- named cases: a hub (peer 0) whose friends are 1..8; 9 is no friend -------

HUB = [(0, f) for f in range(1, 9)] + [(1, 9)]


def hub(k=3, **kwargs):
    return overlay_of(10, HUB, k, **kwargs)


class TestNamedCases:
    def check(self, ov, expected, gate=(0,)):
        got = plan_round(ov, list(gate))
        assert got == reference(ov, gate)
        assert got == expected

    def test_gain_below_hysteresis_keeps_the_link(self):
        ov = hub(k=1)
        teach(ov, 0, 1, bits=2, bucket=0)
        teach(ov, 0, 2, bits=3, bucket=0)  # leader, gain 1 == hysteresis - 1
        link(ov, 0, 1)
        self.check(ov, {})

    def test_gain_at_hysteresis_replaces_the_link(self):
        ov = hub(k=1)
        teach(ov, 0, 1, bits=2, bucket=0)
        teach(ov, 0, 2, bits=4, bucket=0)
        link(ov, 0, 1)
        self.check(ov, {0: ((1,), (2,))})

    def test_several_links_in_one_bucket_keep_the_leader(self):
        ov = hub(k=2)
        for f, bits in ((1, 3), (2, 5), (3, 1), (4, 2)):
            teach(ov, 0, f, bits, bucket=1 if f < 4 else 2)
        link(ov, 0, 1, 2)
        # 2 leads bucket 1 and is linked; 1 goes, the freed slot goes to 4.
        self.check(ov, {0: ((1,), (4,))})

    def test_full_peer_makes_room_for_a_winning_challenger(self):
        ov = hub(k=2)
        teach(ov, 0, 1, bits=1, bucket=0)
        teach(ov, 0, 2, bits=1, bucket=1)
        teach(ov, 0, 3, bits=4, bucket=1)
        link(ov, 0, 1, 2)
        self.check(ov, {0: ((2,), (3,))})

    def test_inadmissible_challenger_costs_the_bucket_its_link(self):
        ov = hub(k=2)
        teach(ov, 0, 1, bits=1, bucket=0)
        teach(ov, 0, 2, bits=1, bucket=1)
        teach(ov, 0, 3, bits=4, bucket=1)
        teach(ov, 0, 4, bits=2, bucket=0)  # gain 1: bucket 0 keeps link 1
        link(ov, 0, 1, 2)
        ov.incoming_count[3] = 2
        # 3 wins bucket 1 but is full: 2 is dropped, and the fill prefers the
        # richer 4 to taking 2 back.
        self.check(ov, {0: ((2,), (4,))})
        ov.incoming_count[4] = 2
        self.check(ov, {})  # ... or takes 2 back when nothing else is free

    def test_full_leader_of_an_empty_bucket_and_every_friend_full(self):
        ov = hub()
        for f in (1, 2, 3):
            teach(ov, 0, f, bits=f, bucket=f - 1)
        ov.incoming_count[3] = 3
        self.check(ov, {0: ((), (1, 2))})
        ov.incoming_count[:] = 3
        self.check(ov, {})

    def test_fill_prefers_uncovered_then_richer_friends(self):
        ov = hub(k=3)
        peer = ov.peers[0]
        # Bucket 0 holds everyone; 1 leads and covers friends 2 and 3 (bits
        # 1, 2 of C_0 = 1..8), so the two fill slots go to the richest
        # uncovered friends (4, then 5 before 6 by id), not to richer 2, 3.
        bitmaps = (0b11000111, 0b00001111, 0b00000111, 0b00000011, 0b00000001, 0b00010000)
        for f, bitmap in enumerate(bitmaps, start=1):
            peer.learn_exchange(f, 0, bitmap, frozenset())
            pin_bucket(peer, f, 0)
        self.check(ov, {0: ((), (1, 4, 5))})
        # Fewer candidates than slots: all of them, covered or not.
        ov.incoming_count[[4, 5, 6]] = 3
        self.check(ov, {0: ((), (1, 2, 3))})

    def test_link_to_a_friend_not_learned_yet_counts_and_stays(self):
        ov = hub(k=2)
        teach(ov, 0, 1, bits=1, bucket=0)
        teach(ov, 0, 2, bits=2, bucket=1)
        link(ov, 0, 7)
        self.check(ov, {0: ((), (1,))})

    def test_scalar_hand_offs(self):
        outside = hub(k=2)
        teach(outside, 0, 1, bits=1, bucket=0)
        link(outside, 0, 9)  # not a friend of 0: no edge slot to mask
        self.check(outside, {0: ((), (1,))})
        bucketless = hub(k=2, family=False)
        teach(bucketless, 0, 1, bits=1)
        teach(bucketless, 0, 2, bits=3)
        assert set(edge_block(bucketless.peers[0])[1]) == {-1}
        self.check(bucketless, {0: ((), (1, 2))})

    def test_degree_zero_knowledge_less_and_ungated_peers(self):
        ov = overlay_of(4, [(0, 1), (1, 2)], k=2)
        teach(ov, 1, 0, bits=1)
        teach(ov, 0, 1, bits=1)
        link(ov, 2, 1)  # 2 knows nothing yet
        self.check(ov, {0: ((), (1,)), 1: ((), (0,))}, gate=(0, 1, 2, 3))
        self.check(ov, {1: ((), (0,))}, gate=(1, 3))
        self.check(ov, {}, gate=())


# -- the same comparison over generated states ----------------------------------


@st.composite
def planning_recipes(draw):
    """Plain data for :func:`planning_state`, so one draw can be built twice."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    friends = {v: sorted({a ^ b ^ v for a, b in edges if v in (a, b)}) for v in range(n)}
    learned, links = [], []
    for v in range(n):
        for f in friends[v]:
            if draw(st.integers(0, 3)):
                bitmap = draw(st.integers(0, (1 << len(friends[v])) - 1))
                bucket = draw(st.integers(0, k - 1)) if draw(st.integers(0, 7)) else None
                learned.append((v, f, bitmap, bucket))
        pool = friends[v] * 2 + [w for w in range(n) if w != v]
        links.append(draw(st.lists(st.sampled_from(pool), max_size=k)) if pool else [])
    return {
        "n": n,
        "k": k,
        "edges": edges,
        "family": draw(st.booleans()),
        "learned": learned,
        "links": links,
        "incoming": draw(st.lists(st.integers(0, k), min_size=n, max_size=n)),
        "gate": [v for v in range(n) if draw(st.integers(0, 4))],
    }


def planning_state(recipe, ledger_from_links=False):
    """The overlay a recipe describes. The ledger is the recipe's own (any
    occupancy: a plan only reads it) or, for the walk, the links' own."""
    ov = overlay_of(recipe["n"], recipe["edges"], recipe["k"], family=recipe["family"])
    for v, f, bitmap, bucket in recipe["learned"]:
        ov.peers[v].learn_exchange(f, 0, bitmap, frozenset())
        if bucket is not None:
            pin_bucket(ov.peers[v], f, bucket)
    for v, wanted in enumerate(recipe["links"]):
        if ledger_from_links:
            wanted = [w for w in wanted if ov._try_connect(v, w)]
        link(ov, v, *wanted)
    if not ledger_from_links:
        ov.incoming_count[:] = recipe["incoming"]
    return ov


class TestAgainstReference:
    @given(planning_recipes(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_states(self, recipe, hysteresis):
        ov, gate = planning_state(recipe), recipe["gate"]
        assert plan_round(ov, gate, hysteresis) == reference(ov, gate, hysteresis)

    @given(planning_recipes(), st.integers(0, 3), st.integers(1, 8))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_states_in_small_runs(self, recipe, hysteresis, budget):
        """Peers planned a few at a time (one alone when its edges exceed the
        budget) get the plans of one pass over the gate."""
        ov, gate = planning_state(recipe), recipe["gate"]
        whole = plan_round(ov, gate, hysteresis)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(columns, "CHUNK", budget)
            assert plan_round(ov, gate, hysteresis) == whole == reference(ov, gate, hysteresis)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_every_round_of_a_build(self, seed, monkeypatch):
        calls = []

        def checked(ov, gate):
            plans = plan_round(ov, gate)
            assert plans == reference(ov, gate)
            calls.append(len(gate))
            return plans

        monkeypatch.setattr(select_module, "plan_round", checked)
        graph = load_dataset("facebook", num_nodes=300, seed=seed)
        overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(seed)
        assert len(calls) == overlay.iterations
        assert sum(calls) > 0


# -- the plain build's walk ------------------------------------------------------


class TestOptimisticWalk:
    def test_a_build_takes_both_routes(self, monkeypatch):
        routes = {"batch": 0, "fallback": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                routes[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(select_module, "apply_plan", counted("batch", select_module.apply_plan))
        monkeypatch.setattr(select_module, "create_links", counted("fallback", create_links))
        graph = load_dataset("facebook", num_nodes=300, seed=7)
        SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
        assert routes["batch"] > 0 and routes["fallback"] > 0

    @staticmethod
    def _slot_opens_mid_round():
        """u = 0 is full and swaps its link to the full target t = 2 for a
        better friend of the same bucket; v = 1 knows t and has budget."""
        ov = overlay_of(6, [(0, 2), (0, 3), (0, 5), (1, 2), (2, 4)], k=2)
        teach(ov, 0, 2, bits=0, bucket=0)
        teach(ov, 0, 3, bits=2, bucket=0)
        teach(ov, 0, 5, bits=0, bucket=1)
        teach(ov, 1, 2, bits=0, bucket=0)
        for src, dst in ((0, 2), (4, 2), (0, 5)):
            assert ov._try_connect(src, dst)
            link(ov, src, dst)
        return ov

    @staticmethod
    def _live(ov, gate):
        """Today's per-peer pass: each peer plans against the live ledger."""
        return {
            v
            for v in gate
            if create_links(ov.peers[v], ov)
        }

    @given(planning_recipes())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_rounds_match_the_live_ledger(self, recipe):
        walked, live = (planning_state(recipe, ledger_from_links=True) for _ in range(2))
        assert walked._walk_plans(recipe["gate"]) == self._live(live, recipe["gate"])
        assert [set(t.long_links) for t in walked.tables] == [set(t.long_links) for t in live.tables]
        n = walked.graph.num_nodes
        assert [set(walked.admitted(v)) for v in range(n)] == [set(live.admitted(v)) for v in range(n)]
        assert walked.incoming_count.tolist() == live.incoming_count.tolist()

    def test_a_slot_opened_by_an_earlier_vertex_is_seen(self):
        ov = self._slot_opens_mid_round()
        # Against the round-start ledger t is full, so v's batch plan is empty.
        assert plan_round(ov, [0, 1]) == {0: ((2,), (3,))}
        assert ov._walk_plans([0, 1]) == {0, 1}
        live = self._slot_opens_mid_round()
        assert self._live(live, [0, 1]) == {0, 1}
        assert [set(t.long_links) for t in ov.tables] == [set(t.long_links) for t in live.tables]
        assert ov.tables[1].long_links == (2,)
        assert ov.incoming_count.tolist() == live.incoming_count.tolist()


# -- bandwidth builds: a pending eviction never strands a slot -------------------


@st.composite
def eviction_recipes(draw):
    """A planning recipe with upload speeds (ties allowed) and a choice of
    the held link that a faster newcomer evicts before the link step."""
    recipe = draw(planning_recipes())
    speeds = st.lists(st.integers(1, 6), min_size=recipe["n"], max_size=recipe["n"])
    recipe["upload"] = [float(u) for u in draw(speeds)]
    recipe["evict"] = draw(st.integers(0, 10**6))
    return recipe


def eviction_state(recipe):
    """The recipe's overlay with ``k + 2`` isolated peers appended: ``k``
    fillers, a newcomer and a slow joiner. The chosen link goes to a friend
    its owner knows. The fillers fill the link's target, whose slowest
    source the owner is made; the
    newcomer, faster than every source there, takes the owner's slot, so
    the owner's eviction waits for the round barrier. Then the newcomer
    leaves the target and the joiner, slower than the owner, takes the
    slot it freed. Returns the overlay and the evicted ``(owner, target)``."""
    n, k = recipe["n"], recipe["k"]
    ov = planning_state(dict(recipe, n=n + k + 2), ledger_from_links=True)
    newcomer, joiner = n + k, n + k + 1
    upload = np.array(recipe["upload"] + [100.0] * k + [1000.0, 0.0])
    ov.upload_mbps = upload
    held = [(v, t) for v in range(n) for t in ov.tables[v].long_links if t in ov.peers[v].known_bitmap]
    if not held:
        return ov, None
    owner, target = held[recipe["evict"] % len(held)]
    upload[owner] = min(upload[s] for s in ov.admitted(target)) - 0.5
    for filler in range(n, n + k - int(ov.incoming_count[target])):
        assert ov._try_connect(filler, target)
        link(ov, filler, target)
    ov._defer_evictions = True  # as a build sets it
    assert ov._try_connect(newcomer, target)
    assert ov._eviction_events == [(owner, target)]
    ov.release_incoming(newcomer, target)
    upload[joiner] = upload[owner] - 1.0
    assert ov._try_connect(joiner, target)
    link(ov, joiner, target)
    return ov, (owner, target)


class TestBandwidthLedger:
    @given(eviction_recipes())
    @settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_links_and_slots_match_after_a_round(self, recipe):
        """One link step of a bandwidth build, then the barrier: every long
        link holds its slot and every slot backs a link."""
        ov, evicted = eviction_state(recipe)
        ov._reassign_links(np.random.default_rng(0))
        rounds.publish_ids(ov, np.zeros(0, dtype=np.int64), np.zeros(0))
        n = ov.graph.num_nodes
        links = {(v, t) for v in range(n) for t in ov.tables[v].long_links}
        slots = {(s, t) for t in range(n) for s in ov.admitted(t)}
        assert links == slots
        if evicted is not None:
            assert evicted not in slots


# -- the columns are the only cache of what the bitmaps imply: no stale slot -----

FRIENDS, STRANGER = (1, 2, 3, 5, 8, 13), 21  # C_p, and a contact outside it
#: peer 0's family: what a restore draws for it (``lsh_seed`` 0).
FAMILY = BitSamplingLsh(len(FRIENDS), LSH_SAMPLES, seed=0)


def lone_peer():
    """Peer 0 of an overlay where it is the only peer with more than one friend."""
    ov = SelectOverlay(SocialGraph(STRANGER + 1, [(0, f) for f in FRIENDS]), k_links=3)
    peer = ov.peers[0]
    give_family(peer, FAMILY)
    return ov, peer


contacts = st.sampled_from(FRIENDS + (STRANGER,))
peer_steps = st.lists(
    st.one_of(
        st.tuples(st.just("learn"), contacts, st.integers(0, 2 ** len(FRIENDS) - 1)),
        st.tuples(st.just("forget"), contacts),
        st.tuples(st.just("capture")),
        st.tuples(st.just("restore")),
    ),
    max_size=30,
)


class TestEdgeColumnsStayInSync:
    @given(peer_steps)
    @settings(max_examples=200, deadline=None)
    def test_after_any_sequence_of_writes_to_one_peer(self, steps):
        """Learn, re-learn with another bitmap, forget, capture and roll back
        to the capture: ``known_bitmap`` follows a plain dict in learn order,
        ``known_mutual`` one that forgetting leaves alone, and every slot is
        what the bitmaps recompute. Learning about the stranger is refused."""
        (ov, peer), model, mutual, saved = lone_peer(), {}, {}, None
        family, k = FAMILY, peer.table.max_long
        for step in steps:
            if step[0] == "learn" and step[1] == STRANGER:
                with pytest.raises(ValueError, match="no slot"):
                    peer.learn_exchange(step[1], 1, step[2], frozenset())
            elif step[0] == "learn":
                peer.learn_exchange(step[1], 1, step[2], frozenset())
                model[step[1]] = step[2]
                mutual.setdefault(step[1], 1)
            elif step[0] == "forget":
                peer.forget_peer(step[1])
                model.pop(step[1], None)
            elif step[0] == "capture":
                saved = json.loads(_canonical(capture(ov)))
                saved_models = dict(model), dict(mutual)
                fresh = restore_into(saved, lone_peer()[0])
                assert _canonical(capture(fresh)) == _canonical(saved)
                assert_edge_columns_recompute(fresh.peers[:1])
            elif saved is not None:
                restore_into(saved, ov)
                model, mutual = (dict(m) for m in saved_models)
            assert list(peer.known_bitmap.items()) == list(model.items())
            assert list(peer.known_mutual.items()) == list(mutual.items())
            assert list(peer.lookahead) == list(model)
            assert_edge_columns_recompute([peer])
            assert {f: peer.bucket_of(f) for f in model} == {
                f: family.bucket(b, k) for f, b in model.items()
            }

    @pytest.fixture(scope="class")
    def built(self):
        graph = load_dataset("facebook", num_nodes=100, seed=21)
        cfg = SelectConfig(max_rounds=25)
        return SelectOverlay(graph, config=cfg).build(seed=21)

    def test_after_a_build(self, built):
        assert (built.edge_columns.key >= 0).any()
        assert_edge_columns_recompute(built.peers)

    def test_after_a_persist_restore(self, built):
        assert_edge_columns_recompute(restore(built.snapshot()).peers)

    def test_each_row_holds_its_family_positions(self, built):
        """Peer ``v``'s row holds the positions ``BitSamplingLsh`` over its
        degree draws from ``lsh_seed + v``, after a build and after a restore."""
        for overlay in (built, restore(built.snapshot())):
            for v, peer in enumerate(overlay.peers):
                family = BitSamplingLsh(len(peer.neighborhood), LSH_SAMPLES, seed=overlay._lsh_seed + v)
                row = overlay.columns.lsh_sample[v]
                assert row[row >= 0].tolist() == family.positions.tolist(), v

    def test_after_forgetting_and_recovery(self, built):
        overlay = restore(built.snapshot())
        peer = overlay.peers[0]
        gone = next(iter(peer.known_bitmap))
        peer.forget_peer(gone)
        assert gone not in peer.known_bitmap
        assert_edge_columns_recompute(overlay.peers)
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        online[np.arange(0, overlay.graph.num_nodes, 3)] = False
        manager = RecoveryManager(overlay)
        for _ in range(4):
            manager.tick(online)
        assert manager.replacements > 0
        assert_edge_columns_recompute(overlay.peers)
