"""Fault injection: lossy links, noisy pings, partitions, null-plan purity."""

import numpy as np
import pytest

from repro.metrics.availability import churn_availability
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, PingService, RingPartition
from repro.pubsub.api import PubSubSystem
from repro.util.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    PartitionError,
    ReproError,
)


class TestRingPartition:
    def test_invalid_cut_rejected(self):
        with pytest.raises(PartitionError):
            RingPartition(cut=(0.2, 1.5))
        with pytest.raises(PartitionError):
            RingPartition(cut=(0.3, 0.3))
        with pytest.raises(PartitionError):
            RingPartition(cut=(0.1, 0.6), start=10.0, end=10.0)

    def test_negative_start_rejected(self):
        with pytest.raises(PartitionError):
            RingPartition(cut=(0.1, 0.6), start=-1.0, end=10.0)

    def test_partition_error_is_fault_and_repro_error(self):
        assert issubclass(PartitionError, FaultInjectionError)
        assert issubclass(FaultInjectionError, ReproError)

    def test_sides_of_simple_arc(self):
        p = RingPartition(cut=(0.25, 0.75))
        assert p.side(0.3) == 0
        assert p.side(0.74) == 0
        assert p.side(0.8) == 1
        assert p.side(0.1) == 1

    def test_sides_of_wrapping_arc(self):
        p = RingPartition(cut=(0.75, 0.25))
        assert p.side(0.8) == 0
        assert p.side(0.1) == 0
        assert p.side(0.5) == 1

    def test_time_window(self):
        p = RingPartition(cut=(0.0, 0.5), start=100.0, end=200.0)
        assert not p.separates(0.1, 0.9, 50.0)
        assert p.separates(0.1, 0.9, 150.0)
        assert not p.separates(0.1, 0.9, 200.0)
        assert not p.separates(0.1, 0.2, 150.0)  # same side

    def test_seam_wrapping_arc_sides(self):
        # The cut [0.9, 0.1) crosses the 0/1 seam: ids just below 1.0 and
        # just above 0.0 are in the SAME (cut-off) region.
        p = RingPartition(cut=(0.9, 0.1))
        assert p.side(0.95) == 0
        assert p.side(0.0) == 0
        assert p.side(0.05) == 0
        assert p.side(0.1) == 1  # half-open: hi itself is outside
        assert p.side(0.5) == 1
        assert p.side(0.9) == 0  # lo itself is inside

    def test_seam_wrapping_arc_separates(self):
        p = RingPartition(cut=(0.9, 0.1), start=0.0, end=100.0)
        # Both sides of the numeric seam, same side of the cut: connected.
        assert not p.separates(0.95, 0.05, 50.0)
        # Inside arc vs outside arc: separated while the window is open.
        assert p.separates(0.95, 0.5, 50.0)
        assert p.separates(0.05, 0.5, 50.0)
        assert not p.separates(0.95, 0.5, 150.0)  # window closed

    def test_boundary_ids_on_seam_arc(self):
        # Exactly-on-boundary identifiers obey half-open [lo, hi).
        p = RingPartition(cut=(0.9, 0.1))
        assert p.separates(0.9, 0.1, 0.0)
        assert not p.separates(0.9, 0.95, 0.0)
        assert not p.separates(0.1, 0.2, 0.0)


class TestFaultPlan:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(ping_false_negative=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(retry_budget=-1)
        with pytest.raises(ConfigurationError):
            FaultPlan(ping_attempts=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(suspicion_threshold=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(link_loss={(0, 1): 2.0})

    def test_overlapping_partition_windows_rejected(self):
        with pytest.raises(PartitionError):
            FaultPlan(
                partitions=[
                    RingPartition(cut=(0.0, 0.5), start=0.0, end=200.0),
                    RingPartition(cut=(0.25, 0.75), start=100.0, end=300.0),
                ]
            )
        # A window entirely inside another is also an overlap.
        with pytest.raises(PartitionError):
            FaultPlan(
                partitions=[
                    RingPartition(cut=(0.0, 0.5), start=0.0, end=500.0),
                    RingPartition(cut=(0.25, 0.75), start=100.0, end=200.0),
                ]
            )

    def test_touching_partition_windows_allowed(self):
        # Half-open windows: end == next start shares no instant.
        plan = FaultPlan(
            partitions=[
                RingPartition(cut=(0.0, 0.5), start=0.0, end=100.0),
                RingPartition(cut=(0.25, 0.75), start=100.0, end=200.0),
            ]
        )
        assert len(plan.partitions) == 2

    def test_none_is_null(self):
        plan = FaultPlan.none()
        assert plan.is_null
        assert not FaultPlan(loss_rate=0.1).is_null
        assert not FaultPlan(ping_false_negative=0.1).is_null
        assert not FaultPlan(partitions=(RingPartition(cut=(0.0, 0.5)),)).is_null

    def test_null_transmit_is_lossless_without_rng(self):
        plan = FaultPlan.none()
        for _ in range(50):
            outcome = plan.transmit_path([0, 1])
            assert outcome.delivered and outcome.retries == 0
        assert plan.stats.retransmissions == 0

    def test_link_loss_overrides_baseline(self):
        plan = FaultPlan(loss_rate=0.0, link_loss={(1, 0): 1.0}, retry_budget=0, seed=1)
        assert plan.hop_loss(0, 1) == 1.0  # unordered key
        assert plan.hop_loss(1, 0) == 1.0
        assert plan.hop_loss(0, 2) == 0.0
        assert not plan.transmit_path([0, 1]).delivered

    def test_seeded_plans_reproduce(self):
        a = FaultPlan(loss_rate=0.4, seed=9)
        b = FaultPlan(loss_rate=0.4, seed=9)
        outcomes_a = [a.transmit_path([0, 1]) for _ in range(40)]
        outcomes_b = [b.transmit_path([0, 1]) for _ in range(40)]
        assert outcomes_a == outcomes_b

    def test_retry_budget_bounds_retransmissions(self):
        plan = FaultPlan(loss_rate=1.0, retry_budget=3, seed=2)
        outcome = plan.transmit_path([0, 1])
        assert not outcome.delivered
        assert outcome.retries == 3
        assert plan.stats.retransmissions == 3

    def test_transmit_path_counts_and_drops(self):
        plan = FaultPlan(loss_rate=1.0, retry_budget=0, seed=3)
        outcome = plan.transmit_path([0, 1, 2])
        assert not outcome.delivered
        assert outcome.lost_at == 1
        assert plan.stats.messages == 1
        assert plan.stats.drops == 1

    def test_edge_cache_shares_hop_outcomes(self):
        # With a shared cache, the common first hop is sampled once: both
        # paths see the same fate for it.
        plan = FaultPlan(loss_rate=0.5, retry_budget=0, seed=4)
        cache = {}
        first = plan.transmit_path([0, 1, 2], edge_cache=cache)
        again = plan.transmit_path([0, 1, 3], edge_cache=cache)
        assert ((0, 1) in cache)
        ok_01 = cache[(0, 1)][0]
        if not ok_01:
            assert not first.delivered and not again.delivered
            assert first.lost_at == 1 and again.lost_at == 1

    def test_partition_blocks_regardless_of_retries(self):
        plan = FaultPlan(
            retry_budget=5,
            partitions=(RingPartition(cut=(0.0, 0.5)),),
            seed=5,
        )
        ids = np.array([0.1, 0.9])
        outcome = plan.transmit_path([0, 1], ids=ids, time=0.0)
        assert not outcome.delivered
        assert outcome.partition_blocked
        assert outcome.retries == 0
        assert plan.stats.partition_blocks == 1

    def test_cuts_reads_ids_only_under_partitions(self):
        ids = np.array([0.1, 0.9, 0.2])
        assert not FaultPlan(loss_rate=0.5).cuts(0, 1, None, 0.0)
        plan = FaultPlan(partitions=(RingPartition(cut=(0.0, 0.5), start=10.0, end=20.0),))
        assert plan.cuts(0, 1, ids, 15.0) and plan.cuts(1, 0, ids, 15.0)
        assert not plan.cuts(0, 2, ids, 15.0)
        assert not plan.cuts(0, 1, ids, 25.0)
        assert plan.stats.partition_blocks == 0

    def test_transmit_path_requires_ids_under_partitions(self):
        plan = FaultPlan(partitions=(RingPartition(cut=(0.0, 0.5)),))
        with pytest.raises(FaultInjectionError):
            plan.transmit_path([0, 1])

    def test_graceful_fraction_sampled_once(self):
        plan = FaultPlan(graceful_fraction=0.5, seed=6)
        first = [plan.departs_gracefully(p) for p in range(20)]
        second = [plan.departs_gracefully(p) for p in range(20)]
        assert first == second
        assert any(first) and not all(first)


class TestPingService:
    def _online(self, n=4, down=()):
        online = np.ones(n, dtype=bool)
        for d in down:
            online[d] = False
        return online

    def test_requires_ground_truth(self):
        service = PingService()
        with pytest.raises(FaultInjectionError):
            service.probe(0, 1)

    def test_null_plan_is_oracle(self):
        service = PingService()
        service.set_ground_truth(self._online(down=[2]))
        up = service.probe(0, 1)
        assert up.responded and up.attempts == 1 and not up.confirmed_down
        down = service.probe(0, 2)
        # Oracle pings are trustworthy: confirmed on the first failure.
        assert not down.responded and down.confirmed_down

    def test_null_plan_books_timeout_waits(self):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan.none()
        service = PingService(plan, registry=registry)
        service.set_ground_truth(self._online(down=[2]))
        for _ in range(3):
            assert not service.probe(0, 2).responded
        hist = registry.histograms()["ping.probe_wait_ms"]
        assert plan.stats.ping_wait_ms == hist.sum == 600.0

    def test_invalid_timeouts_rejected(self):
        with pytest.raises(ConfigurationError):
            PingService(base_timeout_ms=0.0)
        with pytest.raises(ConfigurationError):
            PingService(backoff=0.5)
        with pytest.raises(ConfigurationError):
            PingService(base_timeout_ms=float("nan"))
        with pytest.raises(ConfigurationError):
            PingService(backoff=float("inf"))

    def test_probe_counters_feed_registry(self):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(ping_false_negative=0.001, ping_attempts=3, seed=8)
        service = PingService(plan, registry=registry)
        service.set_ground_truth(self._online(down=[1]))
        service.probe(0, 1)  # dead contact: exhausts all 3 attempts
        service.probe(0, 2)  # live contact: answers, no timeout
        counters = registry.counters()
        assert plan.stats.pings == 4  # the attempts are the plan's counter
        assert counters["ping.probe_timeouts"].value == 1
        hist = registry.histograms()["ping.probe_wait_ms"]
        assert hist.count == 2

    def test_false_negative_beaten_by_retries(self):
        # fn = 1.0 on the first attempt would mean never answering, so use
        # a seeded moderate rate: over many probes of a live contact, every
        # probe must eventually respond far more often than the raw rate.
        plan = FaultPlan(ping_false_negative=0.4, ping_attempts=4, seed=7)
        service = PingService(plan)
        service.set_ground_truth(self._online())
        responses = [service.probe(0, 1).responded for _ in range(200)]
        assert np.mean(responses) > 0.95
        assert plan.stats.ping_retries > 0
        assert plan.stats.ping_false_negatives > 0

    def test_backoff_grows_timeouts(self):
        plan = FaultPlan(ping_false_negative=0.001, ping_attempts=3, seed=8)
        service = PingService(plan, base_timeout_ms=100.0, backoff=2.0)
        service.set_ground_truth(self._online(down=[1]))
        result = service.probe(0, 1)
        assert not result.responded
        assert result.attempts == 3
        # 100 + 200 + 400: exponential backoff across the three timeouts.
        assert result.waited_ms == pytest.approx(700.0)

    def test_suspicion_threshold_delays_confirmation(self):
        plan = FaultPlan(ping_false_negative=0.01, suspicion_threshold=3, seed=9)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        first = service.probe(0, 1)
        second = service.probe(0, 1)
        third = service.probe(0, 1)
        assert not first.confirmed_down
        assert not second.confirmed_down
        assert third.confirmed_down
        assert service.suspicion(0, 1) == 3

    def test_response_clears_suspicion(self):
        plan = FaultPlan(ping_false_negative=0.01, suspicion_threshold=2, seed=10)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        service.probe(0, 1)
        service.set_ground_truth(self._online())  # contact comes back
        assert service.probe(0, 1).responded
        assert service.suspicion(0, 1) == 0

    def test_graceful_departure_confirmed_immediately(self):
        plan = FaultPlan(graceful_fraction=1.0, suspicion_threshold=3, seed=11)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        result = service.probe(0, 1)
        assert not result.responded
        assert result.confirmed_down  # the departure was announced

    def test_false_positive_hides_dead_contact(self):
        plan = FaultPlan(ping_false_positive=1.0, seed=12)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        assert service.probe(0, 1).responded  # a zombie answered
        assert plan.stats.ping_false_positives > 0

    def test_check_does_not_touch_suspicion(self):
        plan = FaultPlan(ping_false_negative=0.01, suspicion_threshold=2, seed=13)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        assert not service.check(0, 1)
        assert service.suspicion(0, 1) == 0

    def test_check_response_clears_suspicion(self):
        # A flapping contact accrues suspicion through probes; any later
        # confirmed-live answer (even via a side-question check) resets it,
        # so the contact does not stay one bad sample from eviction.
        plan = FaultPlan(ping_false_negative=0.01, suspicion_threshold=3, seed=18)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        service.probe(0, 1)
        service.probe(0, 1)
        assert service.suspicion(0, 1) == 2
        service.set_ground_truth(self._online())  # contact comes back
        assert service.check(0, 1)
        assert service.suspicion(0, 1) == 0

    def test_response_decays_other_observers_suspicion(self):
        # During an outage several observers accumulate suspicion about the
        # same contact. Once the contact answers anyone, every other
        # observer's stale count decays by one per confirmed-live answer —
        # bounded decay, so the overlay reconverges after the outage
        # instead of keeping the healed contact one probe from eviction.
        plan = FaultPlan(ping_false_negative=0.01, suspicion_threshold=4, seed=19)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1]))
        for _ in range(3):
            service.probe(0, 1)
            service.probe(2, 1)
        assert service.suspicion(0, 1) == 3
        assert service.suspicion(2, 1) == 3
        service.set_ground_truth(self._online())  # outage heals
        assert service.probe(0, 1).responded
        # Observer 0's own count resets; observer 2's decays by one.
        assert service.suspicion(0, 1) == 0
        assert service.suspicion(2, 1) == 2
        assert service.check(0, 1)
        assert service.suspicion(2, 1) == 1
        assert service.probe(3, 1).responded
        assert service.suspicion(2, 1) == 0

    def test_decay_does_not_touch_other_contacts(self):
        plan = FaultPlan(ping_false_negative=0.01, suspicion_threshold=4, seed=20)
        service = PingService(plan)
        service.set_ground_truth(self._online(down=[1, 2]))
        service.probe(0, 1)
        service.probe(0, 2)
        service.set_ground_truth(self._online(down=[2]))  # only 1 heals
        assert service.probe(3, 1).responded
        assert service.suspicion(0, 2) == 1  # suspicion about 2 untouched

    def test_forget_clears_suspicion(self):
        service = PingService(FaultPlan(ping_false_negative=0.01, seed=14))
        service.set_ground_truth(self._online(down=[1]))
        service.probe(0, 1)
        service.forget(0, 1)
        assert service.suspicion(0, 1) == 0


class TestFaultyPublish:
    def test_total_loss_drops_everything(self, built_select):
        plan = FaultPlan(loss_rate=1.0, retry_budget=1, seed=15)
        pubsub = PubSubSystem(built_select, faults=plan)
        result = pubsub.publish(publisher=0)
        assert result.subscribers
        assert result.delivered == []
        assert result.dropped == len(result.subscribers)
        assert result.retries > 0

    def test_partition_splits_delivery(self, built_select):
        # SELECT ids cluster tightly (socially close peers get close ids),
        # so cut at the population median to actually split the overlay.
        ids = built_select.ids
        median = float(np.median(ids))
        part = RingPartition(cut=(median, 0.999))
        plan = FaultPlan(partitions=(part,), seed=16)
        pubsub = PubSubSystem(built_select, faults=plan)
        dropped_total = 0
        for publisher in range(built_select.graph.num_nodes):
            result = pubsub.publish(publisher)
            dropped_total += result.dropped
            for s in result.delivered:
                # Whatever was delivered never crossed the cut.
                assert part.side(ids[publisher]) == part.side(ids[s])
        assert dropped_total > 0
        assert plan.stats.partition_blocks > 0

    def test_lossless_plan_keeps_full_delivery(self, built_select):
        plan = FaultPlan(loss_rate=0.0, retry_budget=2, seed=17)
        pubsub = PubSubSystem(built_select, faults=plan)
        result = pubsub.publish(publisher=0)
        assert result.delivery_ratio == 1.0
        assert result.retries == 0 and result.dropped == 0


class TestZeroOverheadDefault:
    """FaultPlan.none() must be indistinguishable from no plan at all."""

    def test_publish_bit_identical(self, built_select):
        plain = PubSubSystem(built_select)
        nulled = PubSubSystem(built_select, faults=FaultPlan.none())
        for publisher in range(0, built_select.graph.num_nodes, 7):
            a = plain.publish(publisher)
            b = nulled.publish(publisher)
            assert a.subscribers == b.subscribers
            assert {s: r.path for s, r in a.routes.items()} == {
                s: r.path for s, r in b.routes.items()
            }
            assert a.relay_nodes == b.relay_nodes
            assert b.retries == 0 and b.dropped == 0

    def test_churn_availability_bit_identical(self, small_graph):
        from repro.core.config import SelectConfig
        from repro.core.recovery import RecoveryManager
        from repro.core.select import SelectOverlay

        churn = ChurnModel(small_graph.num_nodes, seed=3)
        matrix = churn.online_matrix(horizon=1200.0, ticks=4)
        series = []
        for faults in (None, FaultPlan.none()):
            overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=3)
            manager = RecoveryManager(
                overlay,
                ping_service=None if faults is None else PingService(faults),
            )
            points = churn_availability(
                overlay, matrix, lookups_per_tick=25, repair=manager.tick,
                faults=faults, seed=5,
            )
            series.append([p.availability for p in points])
        assert series[0] == series[1]