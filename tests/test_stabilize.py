"""Self-healing layer: successor lists, stabilization, merge, catch-up."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SUCCESSOR_LIST_LENGTH, SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.core.stabilize import CatchUpStore, Stabilizer, _between, _closer_successor
from repro.metrics.availability import churn_availability
from repro.metrics.healing import stabilize_until_healed
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, PingService, RingPartition
from repro.overlay.doctor import check_overlay
from repro.overlay.ring import RingIndex
from repro.pubsub.api import PubSubSystem
from repro.sim.runner import NotificationSimulator
from repro.net.workload import PublishWorkload
from repro.util.exceptions import ConfigurationError


def _snapshot(overlay):
    return [(t.predecessor, t.successor, list(t.successors)) for t in overlay.tables]


def _restore(overlay, snap):
    for table, (pred, succ, successors) in zip(overlay.tables, snap):
        table.predecessor = pred
        table.successor = succ
        table.successors = list(successors)


@pytest.fixture(scope="module")
def healing_overlay(small_graph):
    """One built overlay shared by the repair tests (restored via snapshot)."""
    overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=30)).build(seed=11)
    return overlay, _snapshot(overlay)


class TestSuccessorLists:
    def test_matches_ring_order(self):
        ids = np.array([0.9, 0.1, 0.5, 0.3])
        lists = RingIndex(ids).successor_matrix(2).tolist()
        # Clockwise tour: 1 (0.1) -> 3 (0.3) -> 2 (0.5) -> 0 (0.9) -> wrap.
        assert lists[1] == [3, 2]
        assert lists[3] == [2, 0]
        assert lists[0] == [1, 3]

    def test_first_entry_is_ring_successor(self, built_select):
        ring = RingIndex(built_select.ids)
        _, succ = ring.pred_succ()
        assert ring.successor_matrix(3)[:, 0].tolist() == succ.tolist()

    def test_depth_capped_by_population(self):
        ids = np.array([0.1, 0.6])
        assert RingIndex(ids).successor_matrix(5).tolist() == [[1], [0]]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            RingIndex(np.array([0.5])).successor_matrix(2)
        with pytest.raises(ConfigurationError):
            RingIndex(np.array([0.1, 0.2])).successor_matrix(0)

    def test_select_build_populates_lists(self, built_select):
        r = SUCCESSOR_LIST_LENGTH
        for table in built_select.tables:
            assert len(table.successors) == r
            assert table.successors[0] == table.successor

    def test_backups_not_in_routing_links(self, built_select):
        # Successor-list backups are repair state, not routing links: the
        # fault-free routing graph must be exactly what the seed had.
        for table in built_select.tables:
            links = table.all_links()
            for backup in table.successors[1:]:
                if backup not in table.long_links and backup != table.predecessor:
                    assert backup not in links

    def test_config_validation(self, built_select):
        with pytest.raises(ConfigurationError):
            Stabilizer(built_select, list_length=0)
        with pytest.raises(ConfigurationError):
            CatchUpStore(built_select, capacity=0)


def _closer_successor_reference(node, successor, candidates, ids, reachable):
    """Rectify one candidate at a time on ``(id, index)`` keys: the loop the
    array arc test replaced."""
    kn, ks = (float(ids[node]), node), (float(ids[successor]), successor)
    in_arc = []
    for cand in set(candidates):
        kc = (float(ids[cand]), cand)
        if cand not in (node, successor) and (kn < kc < ks if kn < ks else kc > kn or kc < ks):
            in_arc.append(kc)
    in_arc.sort(key=lambda kc: (0 if kc > kn else 1, kc))
    return next((c for _, c in in_arc if reachable(c)), None)


class TestArcOrder:
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0, 1, exclude_max=True),
                 min_size=2, max_size=24),
        st.data(),
    )
    @settings(max_examples=150)
    def test_rectify_matches_the_per_candidate_loop(self, raw_ids, data):
        # Repeated identifiers included: ties fall to the node index.
        ids = np.array(raw_ids)
        nodes = st.integers(0, len(ids) - 1)
        node, successor = data.draw(nodes), data.draw(nodes)
        candidates = data.draw(st.sets(nodes))
        live = data.draw(st.sets(nodes))
        assert _closer_successor(
            node, successor, candidates, ids, live.__contains__
        ) == _closer_successor_reference(node, successor, candidates, ids, live.__contains__)
        mask = _between(ids, node, np.arange(len(ids)), successor)
        assert mask.tolist() == [bool(_between(ids, node, x, successor)) for x in range(len(ids))]


class TestStabilizerNullBehaviour:
    def test_round_is_noop_on_consistent_ring(self, healing_overlay):
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        stab = Stabilizer(overlay, PingService(FaultPlan.none()))
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        for _ in range(3):
            stab.round(online)
        assert _snapshot(overlay) == snap
        assert stab.stats.promotions == 0
        assert stab.stats.rectifications == 0

    def test_recovery_with_stabilizer_bit_identical_under_null_plan(self, small_graph):
        # The stabilizer must not perturb the seed's default path: a
        # RecoveryManager given one under FaultPlan.none() keeps using the
        # oracle repair and reproduces the exact availability series.
        churn = ChurnModel(small_graph.num_nodes, seed=3)
        matrix = churn.online_matrix(horizon=1200.0, ticks=4)
        series = []
        for with_stabilizer in (False, True):
            overlay = SelectOverlay(
                small_graph, config=SelectConfig(max_rounds=25)
            ).build(seed=3)
            pings = PingService(FaultPlan.none())
            stab = Stabilizer(overlay, pings) if with_stabilizer else None
            manager = RecoveryManager(overlay, ping_service=pings, stabilizer=stab)
            points = churn_availability(
                overlay, matrix, lookups_per_tick=25, repair=manager.tick,
                faults=None, seed=5,
            )
            series.append([p.availability for p in points])
        assert series[0] == series[1]

    def test_simulator_with_idle_catchup_bit_identical(self, built_select):
        # Wiring a catch-up store into a fault-free simulation must not
        # change a single record (nothing is ever deposited).
        reports = []
        for with_catchup in (False, True):
            catchup = CatchUpStore(built_select) if with_catchup else None
            sim = NotificationSimulator(
                built_select,
                PublishWorkload(built_select.graph.num_nodes, mean_rate=0.02, seed=21),
                catchup=catchup,
            )
            reports.append(sim.run(horizon=900.0))
        a, b = reports
        assert [r.delivered for r in a.records] == [r.delivered for r in b.records]
        assert a.availability == b.availability == b.total_availability
        assert b.catchup_recovered == 0 and catchup.stats.delivered == 0


class TestCrashRecovery:
    def test_deterministic_crashes_reconverge(self, healing_overlay):
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        stab = Stabilizer(overlay, PingService(FaultPlan.none()), list_length=3)
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        online[[4, 5, 17, 60, 61, 99]] = False  # includes adjacent pairs
        report = stabilize_until_healed(overlay, stab, online, max_rounds=8)
        assert report.converged
        assert check_overlay(overlay, online=online).consistent_ring

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_crashes_below_r_reconverge(self, healing_overlay, data):
        # Property (tentpole acceptance): with f random crash failures and
        # f < r adjacent on the ring (guaranteed here by f < r globally),
        # stabilization reconverges to one consistent ring in bounded rounds.
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        n = overlay.graph.num_nodes
        r = 4
        f = data.draw(st.integers(min_value=1, max_value=r - 1), label="f")
        crashed = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=f, max_size=f, unique=True,
            ),
            label="crashed",
        )
        online = np.ones(n, dtype=bool)
        online[crashed] = False
        stab = Stabilizer(overlay, PingService(FaultPlan.none()), list_length=r)
        report = stabilize_until_healed(overlay, stab, online, max_rounds=6)
        assert report.converged, f"f={f} crashed={crashed}: {report.points}"
        assert check_overlay(overlay, online=online).consistent_ring


class TestPartitionMerge:
    def test_merge_within_ten_rounds_with_r3(self, healing_overlay):
        # Tentpole acceptance pin: RingPartition heals at t=600; with r=3
        # the doctor sees one consistent ring within <= 10 rounds.
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        median = float(np.median(overlay.ids))
        plan = FaultPlan(
            partitions=[RingPartition(cut=(median, (median + 0.5) % 1.0), end=600.0)],
            seed=4,
        )
        stab = Stabilizer(overlay, PingService(plan), list_length=3)
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        # While the cut is active the stabilizer closes each side into its
        # own ring — and cannot cross it.
        for _ in range(3):
            stab.round(online, time=100.0)
        during = check_overlay(overlay, online=online)
        assert during.ring_count == 2
        healing = stabilize_until_healed(overlay, stab, online, time=700.0, max_rounds=10)
        assert healing.converged
        assert healing.rounds_to_heal <= 10
        assert check_overlay(overlay, online=online).consistent_ring


class TestCatchUpStore:
    def _partition_setup(self, healing_overlay):
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        median = float(np.median(overlay.ids))
        plan = FaultPlan(
            partitions=[RingPartition(cut=(median, (median + 0.5) % 1.0), end=600.0)],
            seed=6,
        )
        return overlay, plan

    def test_partition_misses_recovered_after_heal(self, healing_overlay):
        overlay, plan = self._partition_setup(healing_overlay)
        catchup = CatchUpStore(overlay, faults=plan)
        pubsub = PubSubSystem(overlay, faults=plan, catchup=catchup)
        result = pubsub.publish(0, time=100.0)
        assert result.dropped > 0
        assert result.buffered == result.dropped
        assert catchup.pending() > 0
        # Still cut: nothing can cross.
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        assert catchup.deliver(online, time=100.0) < result.dropped or result.dropped == 0
        # Healed: every counted miss is handed over exactly once.
        recovered = catchup.deliver(online, time=700.0)
        assert recovered + catchup.stats.recovered - recovered == result.dropped
        assert catchup.stats.recovered == result.dropped

    def test_offline_subscribers_buffered_but_not_counted(self, healing_overlay):
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        catchup = CatchUpStore(overlay)
        pubsub = PubSubSystem(overlay, catchup=catchup)
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        offline_friend = int(overlay.graph.neighbors(0)[0])
        online[offline_friend] = False
        result = pubsub.publish(0, online=online)
        assert offline_friend not in result.subscribers
        assert result.buffered >= 1
        # The friend returns: the notification arrives but availability
        # accounting (counted misses) is untouched.
        online[offline_friend] = True
        catchup.deliver(online)
        assert catchup.stats.delivered >= 1
        assert catchup.stats.recovered == 0

    def test_duplicates_suppressed(self, healing_overlay):
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        catchup = CatchUpStore(overlay)
        seq = catchup.new_notification()
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        online[3] = False
        # Deposited at two holders; once 3 returns only one copy counts.
        catchup.deposit(seq, 0, 3, True, online)
        assert catchup.pending() == 2
        online[3] = True
        assert catchup.deliver(online) == 1
        assert catchup.stats.recovered == 1
        assert catchup.stats.duplicates == 1
        assert catchup.pending() == 0

    def test_bounded_buffer_evicts_oldest(self, healing_overlay):
        overlay, snap = healing_overlay
        _restore(overlay, snap)
        catchup = CatchUpStore(overlay, capacity=4)
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        online[3] = False
        # Force every deposit to the same two holders (3's ring neighbors).
        for _ in range(10):
            catchup.deposit(catchup.new_notification(), 0, 3, True, online)
        assert catchup.stats.evictions == 2 * (10 - 4)
        assert catchup.pending() == 2 * 4

    def test_origin_buffer_when_neighborhood_unreachable(self, healing_overlay):
        overlay, plan = self._partition_setup(healing_overlay)
        catchup = CatchUpStore(overlay, faults=plan)
        part = plan.partitions[0]
        ids = overlay.ids
        publisher = next(v for v in range(len(ids)) if part.side(ids[v]) == 0)
        subscriber = next(v for v in range(len(ids)) if part.side(ids[v]) == 1)
        online = np.ones(overlay.graph.num_nodes, dtype=bool)
        seq = catchup.new_notification()
        catchup.deposit(seq, publisher, subscriber, True, online, time=100.0)
        # The subscriber's ring neighbors are behind the cut too: the
        # publisher itself must hold the notification.
        assert list(catchup.buffers) == [publisher]
        assert catchup.deliver(online, time=100.0) == 0  # still cut
        assert catchup.deliver(online, time=700.0) == 1  # healed

    def test_capacity_validation(self, healing_overlay):
        overlay, snap = healing_overlay
        with pytest.raises(ConfigurationError):
            CatchUpStore(overlay, capacity=0)


class TestReprieve:
    def test_contact_answering_confirmation_check_is_kept(self, small_graph):
        # A contact slated for eviction whose confirmation check answers
        # (here: a dead contact the plan's fp=1.0 makes respond) is kept.
        plan = FaultPlan(ping_false_positive=1.0, suspicion_threshold=1, ping_attempts=1, seed=9)
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=3)
        manager = RecoveryManager(overlay, ping_service=PingService(plan))
        v = 0
        dead = next(iter(overlay.tables[v].long_links))
        online = np.ones(small_graph.num_nodes, dtype=bool)
        online[dead] = False
        manager.pings.set_ground_truth(online)
        for _ in range(6):
            overlay.cma.observe(v, dead, False)
        manager._replace(v, dead)
        assert manager.reprieves == 1
        assert dead in overlay.tables[v].long_links
