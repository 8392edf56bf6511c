"""Scenario engine: shapers, fault scripts, overload guard, SLO verdicts."""

import json
import os

import numpy as np
import pytest

from repro.experiments.cli import main as cli_main
from repro.net.faults import FaultPlan, RingPartition
from repro.net.workload import PublishWorkload
from repro.overlay.routing import RouteResult
from repro.scenarios import (
    SCENARIOS,
    CelebrityShaper,
    DiurnalShaper,
    FaultScript,
    FlashCrowdShaper,
    OverloadConfig,
    OverloadGuard,
    Scenario,
    ShapedWorkload,
    SLOSpec,
    cascading_churn,
    get_scenario,
    partition_storm,
    regional_outage,
    register,
    run_scenario,
    scenario_names,
)
from repro.scenarios.slo import VERDICT_SCHEMA
from repro.validate import validate_verdict
from repro.telemetry.registry import MetricsRegistry
from repro.util.exceptions import ConfigurationError, PersistError

SMALL_N = 64
SEED = 11


class TestShapers:
    def _base(self, seed=1):
        return PublishWorkload(40, mean_rate=0.05, publisher_fraction=1.0, seed=seed)

    def test_no_shapers_is_byte_identical_to_base(self):
        a = self._base().events_until(300.0)
        b = ShapedWorkload(self._base(), (), seed=9).events_until(300.0)
        assert a == b

    def test_shaped_stream_deterministic(self):
        def stream():
            shaped = ShapedWorkload(
                self._base(),
                (DiurnalShaper(period=300.0, trough=0.3),),
                seed=5,
            )
            return shaped.events_until(300.0)

        assert stream() == stream()

    def test_diurnal_thins_trough_more_than_peak(self):
        base = self._base(seed=2)
        shaper = DiurnalShaper(period=400.0, trough=0.1, peak_at=100.0)
        shaped = ShapedWorkload(self._base(seed=2), (shaper,), seed=5)
        events = shaped.events_until(400.0)
        raw = base.events_until(400.0)
        assert 0 < len(events) < len(raw)
        near_peak = sum(1 for e in events if 50.0 <= e.time < 150.0)
        near_trough = sum(1 for e in events if 250.0 <= e.time < 350.0)
        assert near_peak > 2 * near_trough

    def test_diurnal_trough_one_is_identity(self):
        shaper = DiurnalShaper(period=100.0, trough=1.0)
        shaped = ShapedWorkload(self._base(seed=3), (shaper,), seed=5)
        assert len(shaped.events_until(200.0)) == len(self._base(seed=3).events_until(200.0))

    def test_flash_crowd_adds_burst_inside_window(self):
        base_events = self._base(seed=4).events_until(300.0)
        shaper = FlashCrowdShaper(start=100.0, duration=50.0, magnitude=10.0)
        shaped = ShapedWorkload(self._base(seed=4), (shaper,), seed=5)
        events = shaped.events_until(300.0)
        assert len(events) > len(base_events)

        def in_window(evs):
            return sum(1 for e in evs if 100.0 <= e.time < 150.0)

        assert in_window(events) > 3 * in_window(base_events)
        # Outside the window the organic stream is untouched.
        assert (
            sum(1 for e in events if e.time < 100.0)
            == sum(1 for e in base_events if e.time < 100.0)
        )

    def test_flash_crowd_publishers_are_real_users(self):
        shaper = FlashCrowdShaper(start=0.0, duration=100.0, magnitude=20.0)
        shaped = ShapedWorkload(self._base(seed=6), (shaper,), seed=5)
        events = shaped.events_until(100.0)
        assert all(0 <= e.publisher < 40 for e in events)
        # Dense, deterministic message ids after re-sorting.
        assert [e.message_id for e in events] == list(range(len(events)))

    def test_celebrity_boosts_named_publisher(self):
        shaper = CelebrityShaper(publisher=7, boost=30.0)
        shaped = ShapedWorkload(self._base(seed=7), (shaper,), seed=5)
        events = shaped.events_until(400.0)
        by_celebrity = sum(1 for e in events if e.publisher == 7)
        assert by_celebrity > len(events) * 0.2

    def test_invalid_shapers_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalShaper(period=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalShaper(trough=1.5)
        with pytest.raises(ConfigurationError):
            FlashCrowdShaper(start=-1.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            FlashCrowdShaper(start=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            CelebrityShaper(publisher=-1)
        with pytest.raises(ConfigurationError):
            ShapedWorkload(self._base(), (object(),))  # type: ignore[arg-type]


class TestFaultScripts:
    def test_seam_wrapping_outage_compiles(self):
        # A region centered on the 0/1 seam yields a wrapping arc that the
        # partition machinery must treat as one connected region.
        script = regional_outage(center=0.0, width=0.2, start=0.0, duration=100.0)
        (window,) = script.windows
        assert window.cut == pytest.approx((0.9, 0.1))
        plan = script.compile(seed=1)
        (partition,) = plan.partitions
        assert not partition.separates(0.95, 0.05, 50.0)  # same cut-off region
        assert partition.separates(0.95, 0.5, 50.0)

    def test_overlapping_windows_compile_to_valid_plan(self):
        # Overlapping waves would be rejected by FaultPlan outright; the
        # script compiler serializes them instead.
        script = cascading_churn(
            start=0.0, waves=3, wave_duration=100.0, overlap=0.5,
            first_center=0.1, width=0.1, spread=0.3,
        )
        starts = [w.start for w in script.windows]
        assert starts == [0.0, 50.0, 100.0]  # raw script overlaps
        with pytest.raises(Exception):
            FaultPlan(partitions=script.windows)
        plan = script.compile(seed=2)
        assert len(plan.partitions) == 3
        spans = sorted((p.start, p.end) for p in plan.partitions)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0  # serialized: no two windows share an instant

    def test_fully_shadowed_window_dropped(self):
        script = FaultScript(
            windows=(
                RingPartition(cut=(0.0, 0.3), start=0.0, end=100.0),
                RingPartition(cut=(0.4, 0.6), start=10.0, end=90.0),
            )
        )
        assert len(script.resolved_windows()) == 1

    def test_partition_storm_and_heal_time(self):
        script = partition_storm(start=10.0, cuts=3, cut_duration=50.0, gap=20.0)
        assert len(script.windows) == 3
        assert script.heal_time() == pytest.approx(10.0 + 2 * 70.0 + 50.0)
        assert not script.is_null
        assert FaultScript().is_null

    def test_compile_is_seeded(self):
        script = regional_outage(center=0.5, width=0.2, loss_rate=0.3)
        a, b = script.compile(seed=5), script.compile(seed=5)
        ids = [0.0, 0.0]
        outcomes_a = [a.transmit_path([0, 1], ids) for _ in range(30)]
        outcomes_b = [b.transmit_path([0, 1], ids) for _ in range(30)]
        assert outcomes_a == outcomes_b


def _route(path, delivered=True):
    return RouteResult(path=list(path), delivered=delivered)


class TestOverloadGuard:
    def _guard(self, protected=True, capacity=4.0, **kw):
        config = OverloadConfig(
            capacity=capacity, window=60.0, protected=protected, **kw
        )
        return OverloadGuard(config, num_nodes=10, registry=MetricsRegistry())

    def test_within_capacity_everything_admitted(self):
        guard = self._guard()
        routes = {1: _route([0, 1]), 2: _route([0, 2])}
        out, overflowed, shed = guard.admit(routes, time=0.0)
        assert overflowed == 0 and shed == 0
        assert all(out[s].delivered for s in routes)
        assert guard.stats.charged == 2

    def test_shared_prefix_charged_once(self):
        guard = self._guard(capacity=3.0)
        # Both routes share edge 0->1; the prefix must be charged once, so
        # capacity 3 covers edges (0,1), (1,2), (1,3) exactly.
        routes = {2: _route([0, 1, 2]), 3: _route([0, 1, 3])}
        out, overflowed, shed = guard.admit(routes, time=0.0)
        assert overflowed == 0 and shed == 0
        assert guard.stats.charged == 3

    def test_unprotected_overflow_truncates_route(self):
        guard = self._guard(protected=False, capacity=1.0)
        routes = {3: _route([0, 1, 2, 3])}
        out, overflowed, shed = guard.admit(routes, time=0.0)
        assert overflowed == 1 and shed == 0
        assert not out[3].delivered
        assert len(out[3].path) < 4  # truncated at the saturated hop
        assert guard.stats.overflow_drops == 1

    def test_protected_saturation_sheds(self):
        guard = self._guard(protected=True, capacity=1.0, retry_budget=0)
        routes = {3: _route([0, 1, 2, 3])}
        out, overflowed, shed = guard.admit(routes, time=0.0)
        assert shed == 1 and overflowed == 0
        assert not out[3].delivered
        assert guard.stats.shed == 1

    def test_protected_retry_lets_queue_drain(self):
        # capacity 2, window 2s -> refill 1 token/s; backoff 1s x 2 retries
        # buys 2 tokens back, enough for the second edge.
        config = OverloadConfig(
            capacity=2.0, window=2.0, protected=True, retry_budget=2,
            backoff_s=1.0, priority_reserve=0.0,
        )
        guard = OverloadGuard(config, num_nodes=5, registry=MetricsRegistry())
        guard.tokens[:] = 0.0  # start saturated
        out, overflowed, shed = guard.admit({1: _route([0, 1])}, time=0.0)
        assert shed == 0 and overflowed == 0
        assert out[1].delivered
        assert guard.stats.retries > 0
        assert guard.stats.waited_s > 0.0

    def test_priority_reserve_favors_direct_hops(self):
        # Reserve half the queue: with 1 token left, a relay edge is
        # refused but a direct publisher->subscriber hop is admitted.
        config = OverloadConfig(
            capacity=2.0, window=1e9, protected=True, retry_budget=0,
            priority_reserve=0.5,
        )
        guard = OverloadGuard(config, num_nodes=5, registry=MetricsRegistry())
        guard.tokens[:] = 1.0
        out, _, shed = guard.admit({2: _route([0, 1, 2])}, time=0.0)
        assert shed == 1  # relay chain refused: only the reserve is left
        out, _, shed = guard.admit({1: _route([0, 1])}, time=0.0)
        assert shed == 0
        assert out[1].delivered
        assert guard.stats.priority_grants == 1

    def test_protected_admits_short_routes_first(self):
        # One token at the shared source: the direct hop must win it even
        # though the longer route sorts earlier by subscriber id.
        config = OverloadConfig(
            capacity=1.0, window=1e9, protected=True, retry_budget=0,
            priority_reserve=0.0,
        )
        guard = OverloadGuard(config, num_nodes=6, registry=MetricsRegistry())
        routes = {1: _route([0, 4, 1]), 5: _route([0, 5])}
        out, _, shed = guard.admit(routes, time=0.0)
        assert out[5].delivered
        assert not out[1].delivered
        assert shed == 1

    def test_refill_clock_never_rewinds(self):
        config = OverloadConfig(
            capacity=2.0, window=2.0, protected=True, retry_budget=2, backoff_s=1.0,
            priority_reserve=0.0,
        )
        guard = OverloadGuard(config, num_nodes=3, registry=MetricsRegistry())
        guard.tokens[:] = 0.0
        guard.admit({1: _route([0, 1])}, time=5.0)  # backoff pushes clock past 5.0
        clock_after = float(guard.last_refill[0])
        tokens_after = float(guard.tokens[0])
        # A second event at the same instant must not refill node 0 again.
        guard.admit({2: _route([0, 2], delivered=False)}, time=5.0)
        guard._refill(0, 5.0)
        assert float(guard.last_refill[0]) == clock_after
        assert float(guard.tokens[0]) == tokens_after

    def test_undelivered_routes_pass_through_unchanged(self):
        guard = self._guard(capacity=1.0)
        dead = _route([0, 1, 2], delivered=False)
        out, overflowed, shed = guard.admit({2: dead}, time=0.0)
        assert out[2] is dead
        assert overflowed == 0 and shed == 0
        assert guard.stats.charged == 0

    def test_state_roundtrip(self):
        guard = self._guard(capacity=8.0)
        guard.admit({1: _route([0, 1]), 3: _route([0, 2, 3])}, time=2.0)
        state = json.loads(json.dumps(guard.state_dict()))  # JSON-safe
        other = self._guard(capacity=8.0)
        other.restore_state(state)
        assert np.array_equal(other.tokens, guard.tokens)
        assert np.array_equal(other.last_refill, guard.last_refill)
        assert other.stats == guard.stats

    def test_restore_rejects_wrong_shape(self):
        guard = self._guard()
        state = guard.state_dict()
        state["tokens"] = state["tokens"][:-1]
        with pytest.raises(PersistError):
            self._guard().restore_state(state)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            OverloadConfig(capacity=0.0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(window=0.0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(retry_budget=-1)
        with pytest.raises(ConfigurationError):
            OverloadConfig(priority_reserve=1.0)
        with pytest.raises(ConfigurationError):
            OverloadGuard(OverloadConfig(), num_nodes=0)


class TestSLOSpec:
    def test_floor_and_ceiling_margins(self):
        spec = SLOSpec(availability_floor=0.9, max_drop_rate=0.05)
        rows = spec.objectives({"availability": 0.95, "drop_rate": 0.1})
        by_name = {r["name"]: r for r in rows}
        assert by_name["availability"]["passed"]
        assert by_name["availability"]["margin"] == pytest.approx(0.05)
        assert not by_name["drop_rate"]["passed"]
        assert by_name["drop_rate"]["margin"] == pytest.approx(-0.05)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            SLOSpec(availability_floor=1.5)
        with pytest.raises(ConfigurationError):
            SLOSpec(max_drop_rate=-0.1)
        with pytest.raises(ConfigurationError):
            SLOSpec(p99_hops_ceiling=-1.0)


class TestCatalog:
    def test_required_scenarios_registered(self):
        names = scenario_names()
        for required in (
            "null", "diurnal", "flash_crowd", "celebrity",
            "regional_outage", "partition_storm",
        ):
            assert required in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register(SCENARIOS["null"])

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", description="", slo=SLOSpec(), horizon=0.0)
        with pytest.raises(ConfigurationError):
            Scenario(name="x", description="", slo=SLOSpec(), expected_verdict="maybe")


class TestRunScenario:
    @pytest.fixture(scope="class")
    def null_result(self):
        return run_scenario("null", num_nodes=SMALL_N, seed=SEED)

    def test_null_scenario_passes_and_validates(self, null_result):
        assert null_result.passed
        assert null_result.verdict["schema"] == VERDICT_SCHEMA
        assert validate_verdict(null_result.verdict) == []
        assert null_result.overload is None
        assert null_result.faults is None

    def test_null_scenario_matches_plain_simulator(self, null_result):
        # The null scenario must be bit-identical to hand-building the
        # seed stack with the same derived seeds: the scenario layer adds
        # no physics of its own.
        from repro.core.config import SelectConfig
        from repro.core.select import SelectOverlay
        from repro.graphs.datasets import load_dataset
        from repro.sim.runner import NotificationSimulator
        from repro.util.rng import RngStream

        scenario = get_scenario("null")
        stream = RngStream(SEED)

        def child_seed(label):
            return int(stream.child(f"scenario:null:{label}").integers(2**31 - 1))

        graph = load_dataset(
            "facebook",
            num_nodes=SMALL_N,
            seed=stream.child(f"scenario:null:graph:facebook:{SMALL_N}"),
        )
        overlay = SelectOverlay(graph, config=SelectConfig()).build(
            seed=child_seed("overlay")
        )
        workload = PublishWorkload(
            graph.num_nodes,
            mean_rate=scenario.mean_rate,
            rate_sigma=scenario.rate_sigma,
            seed=child_seed("workload"),
        )
        simulator = NotificationSimulator(
            overlay, workload, maintenance_period=scenario.maintenance_period
        )
        report = simulator.run(scenario.horizon)
        assert report.records == null_result.report.records
        assert report.availability == null_result.report.availability

    def test_same_seed_same_verdict_bytes(self, null_result):
        again = run_scenario("null", num_nodes=SMALL_N, seed=SEED)
        assert json.dumps(again.verdict, sort_keys=True) == json.dumps(
            null_result.verdict, sort_keys=True
        )

    def test_flash_crowd_protection_holds_the_slo(self):
        protected = run_scenario("flash_crowd", num_nodes=SMALL_N, seed=SEED)
        unprotected = run_scenario(
            "flash_crowd", num_nodes=SMALL_N, seed=SEED, protected=False
        )
        assert protected.passed
        assert not unprotected.passed
        obs_p = protected.verdict["observed"]
        obs_u = unprotected.verdict["observed"]
        # Protection converts silent overflow into shed-then-caught-up.
        assert obs_p["shed"] > 0 and obs_p["catchup_recovered"] > 0
        assert obs_u["shed"] == 0 and obs_u["drops"] > 0
        assert obs_p["total_availability"] > obs_u["total_availability"]
        assert validate_verdict(unprotected.verdict) == []

    def test_scenario_resumes_bit_identically(self, tmp_path):
        full = run_scenario("flash_crowd", num_nodes=SMALL_N, seed=SEED)
        ckpt = tmp_path / "ckpts"
        run_scenario(
            "flash_crowd", num_nodes=SMALL_N, seed=SEED,
            snapshot_every=5, snapshot_dir=str(ckpt),
        )
        snaps = sorted(os.listdir(ckpt))
        assert snaps
        resumed = run_scenario(
            "flash_crowd", num_nodes=SMALL_N, seed=SEED,
            resume_from=str(ckpt / snaps[-1]),
        )
        assert resumed.report.records == full.report.records
        va, vb = dict(full.verdict), dict(resumed.verdict)
        pa, pb = dict(va.pop("provenance")), dict(vb.pop("provenance"))
        assert pb.pop("snapshot_id") is not None
        pa.pop("snapshot_id")
        assert pa == pb
        assert json.dumps(va, sort_keys=True) == json.dumps(vb, sort_keys=True)


class TestVerdictValidation:
    @pytest.fixture(scope="class")
    def verdict(self):
        return run_scenario("null", num_nodes=48, seed=3).verdict

    def test_valid_verdict_accepted(self, verdict):
        assert validate_verdict(verdict) == []

    def test_mutations_detected(self, verdict):
        broken = json.loads(json.dumps(verdict))
        broken["schema"] = "other/v9"
        assert any("schema" in e for e in validate_verdict(broken))

        broken = json.loads(json.dumps(verdict))
        del broken["objectives"]
        assert validate_verdict(broken)

        broken = json.loads(json.dumps(verdict))
        broken["objectives"][0]["margin"] += 1.0
        assert any("margin" in e for e in validate_verdict(broken))

        broken = json.loads(json.dumps(verdict))
        broken["passed"] = not broken["passed"]
        assert any("passed" in e for e in validate_verdict(broken))

        # Parseable but mistyped: reported, not raised on by the margin rule.
        broken = json.loads(json.dumps(verdict))
        broken["objectives"][0]["threshold"] = "0.9"
        assert any("threshold" in e for e in validate_verdict(broken))

    def test_cli_validator(self, verdict, tmp_path, capsys):
        from repro.validate import main as validate_main
        from repro.scenarios.slo import write_verdict

        path = tmp_path / "verdict.json"
        write_verdict(verdict, str(path))
        assert validate_main([str(tmp_path)]) == 0
        bad = json.loads(path.read_text())
        bad["passed"] = "yes"
        path.write_text(json.dumps(bad))
        assert validate_main([str(path)]) == 1


class TestScenarioCli:
    def test_list(self, capsys):
        assert cli_main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_missing_name_is_usage_error(self, capsys):
        assert cli_main(["scenario"]) == 2

    def test_run_writes_valid_verdict(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        code = cli_main([
            "scenario", "null", "--num-nodes", "48", "--seed", "3",
            "--telemetry", str(tel),
        ])
        assert code == 0
        with open(tel / "verdict.json", "r", encoding="utf-8") as fh:
            verdict = json.load(fh)
        assert validate_verdict(verdict) == []
        assert (tel / "metrics.prom").exists()
        out = capsys.readouterr().out
        assert "PASS" in out
