"""Time-driven notification simulator."""

import numpy as np
import pytest

from repro.core.recovery import RecoveryManager
from repro.core.stabilize import CatchUpStore
from repro.net.bandwidth import BandwidthModel
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, RingPartition
from repro.net.latency import LatencyModel
from repro.net.workload import PublishEvent, PublishWorkload
from repro.sim.runner import NotificationSimulator
from repro.util.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def workload(built_select):
    return PublishWorkload(built_select.graph.num_nodes, mean_rate=0.002, seed=4)


class TestNotificationSimulator:
    def test_static_network_full_delivery(self, built_select, workload):
        sim = NotificationSimulator(built_select, workload)
        report = sim.run(horizon=600.0)
        assert report.notifications > 0
        assert report.availability == 1.0
        assert all(r.complete for r in report.records)

    def test_latency_recorded_with_models(self, built_select, workload):
        n = built_select.graph.num_nodes
        sim = NotificationSimulator(
            built_select,
            workload,
            bandwidth=BandwidthModel(n, seed=1),
            latency=LatencyModel(n, seed=1),
        )
        report = sim.run(horizon=600.0)
        assert report.mean_latency_ms > 0

    def test_churn_with_recovery_keeps_availability(self, small_graph):
        # Fresh overlay: recovery mutates link state, so the shared
        # session fixture must stay untouched.
        from repro.core.config import SelectConfig
        from repro.core.select import SelectOverlay

        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=9)
        n = small_graph.num_nodes
        workload = PublishWorkload(n, mean_rate=0.002, seed=4)
        churn = ChurnModel(n, seed=5)
        sim = NotificationSimulator(
            overlay,
            workload,
            churn=churn,
            repair=RecoveryManager(overlay).tick,
            maintenance_period=30.0,
        )
        report = sim.run(horizon=600.0)
        assert report.maintenance_ticks >= 19
        assert report.availability > 0.9

    def test_offline_publishers_do_not_post(self, built_select, workload):
        n = built_select.graph.num_nodes
        # Extreme churn: everyone mostly offline.
        churn = ChurnModel(
            n, mean_session=1.0, mean_offline=10_000.0, offline_bias_fraction=1.0, seed=6
        )
        sim = NotificationSimulator(built_select, workload, churn=churn)
        baseline = NotificationSimulator(built_select, workload)
        assert sim.run(300.0).notifications <= baseline.run(300.0).notifications

    def test_relays_tracked(self, built_select, workload):
        sim = NotificationSimulator(built_select, workload)
        report = sim.run(horizon=600.0)
        assert report.mean_relays >= 0.0

    def test_invalid_params(self, built_select, workload):
        with pytest.raises(ConfigurationError):
            NotificationSimulator(built_select, workload, maintenance_period=0)
        sim = NotificationSimulator(built_select, workload)
        with pytest.raises(ConfigurationError):
            sim.run(horizon=0)

    def test_nonpositive_payload_rejected(self, built_select, workload):
        with pytest.raises(ConfigurationError):
            NotificationSimulator(built_select, workload, payload_mb=0)
        with pytest.raises(ConfigurationError):
            NotificationSimulator(built_select, workload, payload_mb=-1.5)

    def test_empty_report_properties(self, built_select):
        quiet = PublishWorkload(built_select.graph.num_nodes, mean_rate=1e-9, seed=7)
        sim = NotificationSimulator(built_select, quiet)
        report = sim.run(horizon=1.0)
        assert report.availability == 1.0
        assert report.mean_latency_ms == 0.0
        assert report.mean_relays == 0.0
        assert report.drops == 0 and report.retries == 0
        assert report.mean_partition_heal_time == 0.0


class _Script:
    """A workload that hands the simulator a fixed event list."""

    def __init__(self, events):
        self.events = events

    def events_until(self, horizon):
        return list(self.events)


class _Ledger(CatchUpStore):
    """A catch-up store that writes down when the simulator reached it:
    once per publish (``new_notification``), once per tick (``deliver``)."""

    def __init__(self, overlay):
        super().__init__(overlay)
        self.calls = []

    def new_notification(self):
        self.calls.append("publish")
        return super().new_notification()

    def deliver(self, online=None, time=0.0):
        self.calls.append(time)
        return super().deliver(online, time=time)


class TestClockOrder:
    def _run(self, overlay, events, horizon=100.0, period=30.0):
        """What a run did, in order — a publisher or a tick instant — and its report."""
        ledger = _Ledger(overlay)
        sim = NotificationSimulator(
            overlay, _Script(events), catchup=ledger, maintenance_period=period
        )
        report = sim.run(horizon)
        publishers = iter(r.publisher for r in report.records)
        return [next(publishers) if c == "publish" else c for c in ledger.calls], report

    def test_a_publish_runs_before_the_tick_of_the_same_instant(self, built_select):
        events = [PublishEvent(60.0, 2, 1), PublishEvent(30.0, 1, 0), PublishEvent(30.5, 3, 2)]
        seen, report = self._run(built_select, events)
        assert seen == [1, 30.0, 3, 2, 60.0, 90.0]
        assert [r.time for r in report.records] == [30.0, 30.5, 60.0]
        assert report.maintenance_ticks == 3

    def test_simultaneous_publishes_keep_their_input_order(self, built_select):
        events = [PublishEvent(45.0, 7, 0), PublishEvent(45.0, 3, 1), PublishEvent(10.0, 5, 2)]
        seen, _ = self._run(built_select, events)
        assert seen == [5, 30.0, 7, 3, 60.0, 90.0]

    def test_the_ticks_are_a_float_sum_of_the_period(self, built_select):
        ticks, _ = self._run(built_select, [], horizon=1.0, period=0.1)
        # 0.1 + 0.1 + 0.1 is 0.30000000000000004, not 3 * 0.1: a resumed
        # run has to land on the same instants as the run it continues.
        assert ticks[2] == 0.1 + 0.1 + 0.1
        assert len(ticks) == 10 and ticks[-1] < 1.0


class TestFaultySimulation:
    def test_lossy_run_records_drops_and_retries(self, built_select, workload):
        plan = FaultPlan(loss_rate=0.3, retry_budget=1, seed=41)
        sim = NotificationSimulator(built_select, workload, faults=plan)
        report = sim.run(horizon=600.0)
        assert report.notifications > 0
        assert report.drops > 0
        assert report.retries > 0
        assert report.availability < 1.0

    def test_null_plan_run_matches_no_plan(self, built_select):
        n = built_select.graph.num_nodes

        def fresh_workload():
            # The workload draws from its own RNG per run, so each side
            # gets its own identically-seeded instance.
            return PublishWorkload(n, mean_rate=0.002, seed=4)

        plain = NotificationSimulator(built_select, fresh_workload()).run(horizon=600.0)
        nulled = NotificationSimulator(
            built_select, fresh_workload(), faults=FaultPlan.none()
        ).run(horizon=600.0)
        assert nulled.records == plain.records
        assert nulled.availability == plain.availability
        assert nulled.drops == 0 and nulled.retries == 0

    def test_partition_heal_time_recorded(self, built_select, workload):
        # Cut at the id-population median so the partition actually splits
        # the overlay; it heals at t=300 of a 600-second run.
        median = float(np.median(built_select.ids))
        plan = FaultPlan(
            partitions=(RingPartition(cut=(median, 0.999), start=0.0, end=300.0),),
            seed=42,
        )
        sim = NotificationSimulator(built_select, workload, faults=plan)
        report = sim.run(horizon=600.0)
        assert len(report.partition_heal_times) == 1
        heal = report.partition_heal_times[0]
        assert 0.0 <= heal <= 300.0
        assert report.mean_partition_heal_time == heal
        # While the cut was up, deliveries were incomplete.
        assert any(r.dropped > 0 for r in report.records if r.time < 300.0)

    def test_false_evictions_surfaced_from_recovery(self, small_graph):
        from repro.core.config import SelectConfig
        from repro.core.select import SelectOverlay
        from repro.net.faults import PingService

        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=9)
        n = small_graph.num_nodes
        workload = PublishWorkload(n, mean_rate=0.002, seed=4)
        churn = ChurnModel(n, seed=5)
        # Brutal ping noise with a hair-trigger service: evictions of
        # online contacts become likely, and the manager counts them.
        plan = FaultPlan(
            ping_false_negative=0.9, ping_attempts=1, suspicion_threshold=1, seed=43
        )
        manager = RecoveryManager(overlay, ping_service=PingService(plan))
        sim = NotificationSimulator(
            overlay,
            workload,
            churn=churn,
            repair=manager.tick,
            maintenance_period=30.0,
            faults=plan,
        )
        sim.run(horizon=600.0)
        assert manager.stats.false_evictions > 0
