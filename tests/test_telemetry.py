"""Telemetry subsystem: registry, tracer, exporters, zero-overhead pin."""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.experiments import fig2_hops
from repro.experiments.common import ExperimentConfig
from repro.pubsub.api import PubSubSystem
from repro.telemetry import (
    HOP_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    get_registry,
    prometheus_text,
    registry_snapshot,
    use_registry,
    use_tracer,
    write_telemetry,
)
from repro.telemetry.registry import Histogram
from repro.telemetry.report import render_report
from repro.telemetry.tracer import assemble, chain_errors, summarize
from repro.util.atomicio import read_jsonl
from repro.validate import validate_telemetry as validate_dir
from repro.util.exceptions import ConfigurationError


class TestRegistry:
    def test_counter_gauge_basics(self):
        from repro.net.faults import PingStats

        reg = MetricsRegistry()
        stats = PingStats()
        reg.attach("ping", stats)
        stats.probe_timeouts += 3
        counter = reg.counters()["ping.probe_timeouts"]
        assert counter.value == 3.0
        assert counter.help == "probes that exhausted every attempt unanswered"
        g = reg.gauge("a.level")
        g.set(7)
        assert g.value == 7.0
        level = [4]
        g.set_function(lambda: level[0])
        level[0] = 5
        assert g.value == 5.0

    def test_same_name_shares_instrument(self):
        reg = MetricsRegistry()
        assert reg.gauge("x") is reg.gauge("x")
        assert reg.histogram("h") is reg.histogram("h")
        with pytest.raises(ConfigurationError):
            reg.histogram("x")

    def test_timer_uses_perf_counter(self):
        reg = MetricsRegistry()
        with reg.timer("phase") as t:
            pass
        assert t.elapsed >= 0.0
        hist = reg.histograms()["phase.seconds"]
        assert hist.count == 1
        assert hist.sum == pytest.approx(t.elapsed)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0))


class TestLabeledInstruments:
    def test_labels_make_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.gauge("live.node_delivered", labels={"node": "0"})
        b = reg.gauge("live.node_delivered", labels={"node": "1"})
        plain = reg.gauge("live.node_delivered")
        assert a is not b and a is not plain
        a.set(3)
        assert b.value == 0 and plain.value == 0
        assert a.name == "live.node_delivered" and a.labels == {"node": "0"}

    def test_same_labels_share_instrument_regardless_of_order(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", labels={"x": "1", "y": "2"})
        b = reg.gauge("g", labels={"y": "2", "x": "1"})
        assert a is b
        assert 'g{x=1,y=2}' in reg.gauges()

    def test_labeled_histogram_and_type_collision(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0), labels={"node": "3"})
        # Same composite key with a different type is still rejected.
        with pytest.raises(ConfigurationError):
            reg.gauge("h", labels={"node": "3"})


class TestHistogramDeterminism:
    def test_fixed_edges_order_independent(self):
        values = [0.5, 1.0, 1.5, 3.0, 9.0, 100.0, 1000.0]
        a = Histogram("a", buckets=HOP_BUCKETS)
        b = Histogram("b", buckets=HOP_BUCKETS)
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.counts == b.counts
        assert a.sum == b.sum and a.count == b.count

    def test_edge_values_land_in_le_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(2.0001)
        assert h.counts == [1, 1, 1]
        assert h.cumulative() == [1, 2, 3]

    def test_snapshot_identical_across_runs(self):
        def run():
            reg = MetricsRegistry()
            h = reg.histogram("hops", HOP_BUCKETS)
            for v in (1, 2, 2, 5, 9, 40):
                h.observe(v)
            reg.gauge("n").set(6)
            return registry_snapshot(reg)

        assert run() == run()


class TestNullRegistry:
    def test_no_ops_and_shared_instrument(self):
        from repro.net.faults import PingStats

        null = NullRegistry()
        g = null.gauge("anything")
        assert g is null.gauge("other") is null.histogram("third")
        g.set(5)
        g.observe(1.0)
        assert g.value == 0.0
        null.attach("ping", PingStats(probe_timeouts=2))
        assert len(null) == 0 and null.counters() == {}
        with null.timer("phase") as t:
            pass
        assert t.elapsed == 0.0

    def test_process_default_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert get_registry().is_null

    def test_use_registry_restores(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
        assert get_registry() is NULL_REGISTRY


class TestZeroOverheadPin:
    """Telemetry off (default) and on must give bit-identical results."""

    def test_publish_bit_identical_with_telemetry(self, built_select):
        plain = PubSubSystem(built_select)
        baseline = {p: plain.publish(p) for p in range(0, built_select.graph.num_nodes, 11)}
        with use_registry(MetricsRegistry()), use_tracer(Tracer()):
            traced = PubSubSystem(built_select)
            for p, a in baseline.items():
                b = traced.publish(p)
                assert a.subscribers == b.subscribers
                assert {s: r.path for s, r in a.routes.items()} == {
                    s: r.path for s, r in b.routes.items()
                }
                assert a.relay_nodes == b.relay_nodes

    def test_experiment_rows_bit_identical(self):
        config = ExperimentConfig(
            datasets=("facebook",),
            systems=("select",),
            num_nodes=48,
            trials=1,
            lookups=20,
            publishers=4,
        )
        baseline = fig2_hops.run(config)
        with use_registry(MetricsRegistry()), use_tracer(Tracer()):
            instrumented = fig2_hops.run(config)
        assert baseline == instrumented

    def test_null_registry_pins_seed_behavior(self, built_select):
        # Explicit NullRegistry == no registry argument at all.
        a = PubSubSystem(built_select).publish(3)
        b = PubSubSystem(built_select, registry=NullRegistry()).publish(3)
        assert {s: r.path for s, r in a.routes.items()} == {
            s: r.path for s, r in b.routes.items()
        }


class TestRouteTracer:
    """The simulator's publishes and lookups as causal chains."""

    @pytest.fixture()
    def traced_publish(self, built_select):
        tracer = Tracer()
        with use_registry(MetricsRegistry()) as reg, use_tracer(tracer):
            ps = PubSubSystem(built_select)
            result = ps.publish(0)
            ps.lookup(0, result.subscribers[0])
        return tracer, reg, result

    def test_span_contents(self, traced_publish):
        tracer, reg, result = traced_publish
        traces = assemble(tracer.spans())
        # One chain per subscriber of message 0, then the lookup's, message 1.
        sub = result.subscribers[0]
        assert list(traces) == [f"0:{s}" for s in result.subscribers] + [f"1:{sub}"]
        assert [s["name"] for s in traces[f"1:{sub}"]][0] == "lookup"
        for s, route in result.routes.items():
            chain = traces[f"0:{s}"]
            assert chain_errors(f"0:{s}", chain) == []
            assert chain[0]["name"] == "publish" and chain[0]["node"] == 0
            assert chain[-1]["name"] == "delivered" and chain[-1]["terminal"]
            assert chain[-1]["node"] == s and chain[-1]["hop"] == route.hops
            # Each span parents to the one before: a relay per node between
            # the publisher and the subscriber, in path order.
            assert [x["parent"] for x in chain[1:]] == [x["span"] for x in chain[:-1]]
            relays = chain[1:-1]
            assert [x["name"] for x in relays] == ["relay"] * (route.hops - 1)
            assert [x["node"] for x in relays] == route.path[1:-1]
            assert [x["hop"] for x in relays] == list(range(1, route.hops))
            # The router's decision for the hop into each span rides in attrs.
            decided = [x["attrs"] for x in chain[1:]]
            assert [d["link"] for d in decided] == [d.link for d in route.decisions]
            for d in decided:
                assert d["link"] in ("short", "long", "incoming", "successor", "other")
                assert d["rule"] in ("direct", "lookahead", "greedy", "advertised")
                assert d["distance"] >= 0.0
            # The delivering hop is always the direct rule.
            assert decided[-1]["rule"] == "direct"
            assert all(x["t0"] == x["t1"] == 0.0 for x in chain)

    def test_a_subscriber_three_hops_away_records_the_advertised_clause(self, built_select):
        """The publisher reaches a friend past its lookahead through the
        friend's own table: the first relay's span says ``advertised``."""
        router = built_select.make_router()
        router.record_decisions = True
        publisher, subscriber = next(
            (u, v)
            for u, v in built_select.graph.edges()
            if router.route(u, v).decisions[0].rule == "advertised"
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = PubSubSystem(built_select).publish(publisher)
        assert subscriber in result.subscribers
        chain = assemble(tracer.spans())[f"0:{subscriber}"]
        assert chain_errors(f"0:{subscriber}", chain) == []
        assert [x["name"] for x in chain] == ["publish", "relay", "relay", "delivered"]
        assert [x["attrs"]["rule"] for x in chain[1:]] == ["advertised", "lookahead", "direct"]

    def test_metrics_match_result(self, traced_publish):
        tracer, reg, result = traced_publish
        counters = {n: c.value for n, c in reg.counters().items()}
        assert counters["publish.events"] == 1
        assert counters["publish.delivered"] == len(result.delivered)
        assert counters["lookup.events"] == 1
        hops = reg.histograms()["publish.hops"]
        assert hops.count == len(result.delivered)

    def test_jsonl_round_trip(self, traced_publish, tmp_path):
        tracer, _, _ = traced_publish
        path = tracer.export(str(tmp_path / "traces.jsonl"))
        assert [span for _, span in read_jsonl(path)] == tracer.spans()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                assert isinstance(json.loads(line), dict)


class TestExportAndReport:
    def _populated(self, built_select, tmp_path):
        reg = MetricsRegistry()
        tracer = Tracer()
        with use_registry(reg), use_tracer(tracer):
            ps = PubSubSystem(built_select)
            for p in range(4):
                ps.publish(p)
        with reg.timer("experiment.demo"):
            pass
        out = str(tmp_path / "tel")
        paths = write_telemetry(out, reg, tracer=tracer, meta={"experiments": "demo"})
        return out, paths

    def test_prometheus_text_format(self, built_select, tmp_path):
        out, paths = self._populated(built_select, tmp_path)
        text = open(paths["metrics"], encoding="utf-8").read()
        assert "# TYPE select_repro_publish_events counter" in text
        assert "# TYPE select_repro_publish_hops histogram" in text
        assert 'select_repro_publish_hops_bucket{le="+Inf"}' in text

    def test_prometheus_labels_and_single_family_header(self, tmp_path):
        from repro.telemetry.export import prometheus_text

        reg = MetricsRegistry()
        reg.gauge("live.node_delivered", "per-node", labels={"node": "0"}).set(4)
        reg.gauge("live.node_delivered", "per-node", labels={"node": "1"}).set(9)
        reg.histogram("live.trace_hops", (1.0, 2.0), labels={"node": "0"}).observe(1.5)
        text = prometheus_text(reg)
        assert 'select_repro_live_node_delivered{node="0"} 4' in text
        assert 'select_repro_live_node_delivered{node="1"} 9' in text
        # One HELP/TYPE header per family, not per labeled series.
        assert text.count("# TYPE select_repro_live_node_delivered gauge") == 1
        # Instrument labels compose with the bucket's le label.
        assert 'select_repro_live_trace_hops_bucket{node="0",le="2"} 1' in text
        assert 'select_repro_live_trace_hops_count{node="0"} 1' in text

    def test_schema_validates(self, built_select, tmp_path):
        out, _ = self._populated(built_select, tmp_path)
        assert validate_dir(out) == []

    def test_schema_catches_corruption(self, built_select, tmp_path):
        out, paths = self._populated(built_select, tmp_path)
        with open(paths["traces"], "a", encoding="utf-8") as fh:
            fh.write('{"type": "mystery"}\n')
        errors = validate_dir(out)
        assert any("unknown span type" in e for e in errors)
        # Parseable but mistyped documents are reported, not raised on.
        with open(paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        name = next(iter(report["metrics"]["histograms"]))
        report["metrics"]["histograms"][name]["counts"] = "ab"
        with open(paths["report"], "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        assert any(f"histogram {name!r}" in e for e in validate_dir(out))
        with open(paths["report"], "w", encoding="utf-8") as fh:
            json.dump([1, 2], fh)
        assert any("report must be an object" in e for e in validate_dir(out))

    def test_report_renders_phases_traces_counters(self, built_select, tmp_path):
        out, _ = self._populated(built_select, tmp_path)
        text = render_report(out)
        assert "Per-phase timings" in text
        assert "experiment.demo" in text
        assert "publish.events" in text
        # One line of chain counts: every subscriber of the four publishes
        # was online and reached, so each chain ended delivered.
        with open(f"{out}/report.json", encoding="utf-8") as fh:
            n = int(json.load(fh)["metrics"]["counters"]["publish.delivered"])
        assert f"Trace summary: {n} chains, {n} complete (100.0%)" in text
        assert f"terminals delivered={n}; mean delivered hops" in text
        assert f"(drill down: select-repro trace {out})" in text

    def test_validate_missing_dir(self, tmp_path):
        assert validate_dir(str(tmp_path / "nope"))


class TestSimulatorChains:
    """A simulator run writes the causal chains a live run does."""

    def test_fig2_lookups_are_chains_the_report_and_trace_verb_read(self, tmp_path, capsys):
        from repro.experiments.cli import main

        config = ExperimentConfig(
            datasets=("facebook",), systems=("select",), num_nodes=48, trials=1
        )
        reg, tracer = MetricsRegistry(), Tracer()
        with use_registry(reg), use_tracer(tracer):
            fig2_hops.run(config)
        out = str(tmp_path / "tel")
        write_telemetry(out, reg, tracer=tracer)
        assert validate_dir(out) == []
        with open(f"{out}/report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        traces, metrics = report["traces"], report["metrics"]
        hops = metrics["histograms"]["lookup.hops"]
        assert traces["traces"] == metrics["counters"]["lookup.events"] > 0
        assert traces["terminals"]["delivered"] == hops["count"]
        assert traces["mean_hops"] == pytest.approx(hops["sum"] / hops["count"])
        assert sum(traces["link_kinds"].values()) == hops["sum"]
        assert main(["trace", out, "--limit", "2"]) == 0
        rendered = capsys.readouterr().out
        assert f"Causal traces: {traces['traces']} chains" in rendered
        assert "lookup" in rendered and "delivered*" in rendered

    @staticmethod
    def _partitioned(overlay, catchup: bool):
        """Publishes across an active ring cut; ``(pubsub, results, spans)``."""
        from repro.core.stabilize import CatchUpStore
        from repro.net.faults import FaultPlan, RingPartition

        median = float(np.median(overlay.ids))
        cut = RingPartition(cut=(median, (median + 0.5) % 1.0))
        plan = FaultPlan(partitions=(cut,), seed=5)
        tracer = Tracer()
        with use_registry(MetricsRegistry()), use_tracer(tracer):
            store = CatchUpStore(overlay, faults=plan) if catchup else None
            ps = PubSubSystem(overlay, faults=plan, catchup=store)
            results = [ps.publish(p, time=3.0) for p in range(0, overlay.graph.num_nodes, 7)]
        return ps, results, tracer.spans()

    def test_partitioned_publish_chains_close_at_publish_time(self, built_select):
        ps, results, spans = self._partitioned(built_select, catchup=True)
        traces = assemble(spans)
        assert all(chain_errors(tid, chain) == [] for tid, chain in traces.items())
        assert len(traces) == sum(len(r.subscribers) for r in results)
        drops = [s for s in spans if s["name"] == "drop"]
        assert drops and all(s["status"] == "partition" for s in drops)
        summary = summarize(spans)
        assert summary["terminals"]["delivered"] == ps.stats.delivered
        # Every missed pair was parked for catch-up, so its chain is pending.
        missed = {f"{m}:{s}" for m, r in enumerate(results) for s in r.failed}
        pending = {tid for tid, chain in traces.items() if chain[-1]["name"] == "pending"}
        assert missed and pending == missed
        assert summary["terminals"] == {"delivered": ps.stats.delivered, "pending": len(missed)}
        assert all(s["t0"] == s["t1"] == 3.0 for s in spans)

    def test_missed_pair_without_catchup_is_lost(self, built_select):
        ps, _, spans = self._partitioned(built_select, catchup=False)
        terminals = summarize(spans)["terminals"]
        assert terminals["lost"] == ps.stats.dropped > 0
        assert terminals["delivered"] == ps.stats.delivered


@pytest.fixture(scope="module")
def churned(small_graph):
    """One seeded lossy churn run through all five stats-keeping components."""
    from repro.core.recovery import RecoveryManager
    from repro.core.stabilize import CatchUpStore, Stabilizer
    from repro.net.churn import ChurnModel
    from repro.net.faults import FaultPlan, PingService
    from repro.net.workload import PublishWorkload
    from repro.scenarios.overload import OverloadConfig, OverloadGuard
    from repro.sim.runner import NotificationSimulator

    n = small_graph.num_nodes
    reg = MetricsRegistry()
    overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=3)
    plan = FaultPlan(loss_rate=0.3, ping_false_negative=0.2, seed=11, registry=reg)
    pings = PingService(plan, registry=reg)
    stabilizer = Stabilizer(overlay, pings, registry=reg)
    recovery = RecoveryManager(overlay, pings, stabilizer=stabilizer, registry=reg)
    catchup = CatchUpStore(overlay, capacity=4, faults=plan, registry=reg)
    guard = OverloadGuard(OverloadConfig(capacity=6.0), n, registry=reg)
    sim = NotificationSimulator(
        overlay,
        PublishWorkload(n, mean_rate=0.05, seed=5),
        churn=ChurnModel(n, seed=3),
        faults=plan,
        repair=recovery.tick,
        catchup=catchup,
        overload=guard,
        maintenance_period=60.0,
        registry=reg,
    )
    sim.run(600.0)
    owners = {
        "faults": plan,
        "recovery": recovery,
        "stabilize": stabilizer,
        "catchup": catchup,
        "overload": guard,
        "publish": sim.pubsub,
        "sim": sim,
        "ping": pings,
    }
    return reg, owners


def exported(reg, prefix: str) -> dict:
    """The registry's ``prefix.*`` counters, keyed by field name."""
    return {
        name[len(prefix) + 1 :]: value
        for name, value in registry_snapshot(reg)["counters"].items()
        if name.startswith(prefix + ".")
    }


class TestAttachedStats:
    @pytest.mark.parametrize(
        "prefix",
        ["faults", "recovery", "stabilize", "catchup", "overload", "publish", "sim", "ping"],
    )
    def test_exported_counters_are_the_stats_fields(self, churned, prefix):
        reg, owners = churned
        stats = asdict(owners[prefix].stats)
        counts = exported(reg, prefix)
        assert counts == stats
        assert all(isinstance(v, float) for v in counts.values())
        assert sum(stats.values()) > 0  # the run reached this component

    def test_live_cluster_counters_are_its_nodes_and_transport(self):
        from repro.live import LiveScenario
        from repro.live.cluster import LiveCluster

        reg = MetricsRegistry()
        scenario = LiveScenario(
            name="stats_crash",
            description="small crash run",
            duration=1.0,
            settle=2.0,
            crash_fraction=0.2,
            crash_at=0.5,
        )
        cluster = LiveCluster(num_nodes=10, scenario=scenario, seed=3, registry=reg)
        asyncio.run(cluster.run())
        live = asdict(cluster.supervisor.stats)
        for node in cluster.nodes.values():
            for name, value in asdict(node.stats).items():
                live[name] = live.get(name, 0) + value
        assert exported(reg, "live") == live
        assert live["requests"] > 0 and live["gossip_rounds"] > 0
        transport = asdict(cluster.transport.stats)
        assert exported(reg, "transport") == transport
        assert transport["sent"] > 0 and transport["dropped_unregistered"] > 0

    def test_build_counters_are_its_stats(self, small_graph):
        reg = MetricsRegistry()
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25))
        with use_registry(reg):
            overlay.build(seed=3)
        assert exported(reg, "build.exchange") == asdict(overlay.exchange_stats)
        assert exported(reg, "build.links") == asdict(overlay.link_stats)
        assert overlay.link_stats.planned > 0

    def test_a_refused_second_build_counts_nothing(self, small_graph):
        # An overlay builds once: the refused second call attaches nothing,
        # so the registry still reads the one build's counts.
        reg = MetricsRegistry()
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25))
        with use_registry(reg):
            overlay.build(seed=3)
            first = exported(reg, "build.exchange"), exported(reg, "build.links")
            with pytest.raises(ConfigurationError, match="already built"):
                overlay.build(seed=3)
        assert (exported(reg, "build.exchange"), exported(reg, "build.links")) == first
        assert first[0]["folded"] > 0 and first[1]["planned"] > 0

    def test_gauges_are_read_when_asked(self, churned):
        reg, owners = churned
        store, guard = owners["catchup"], owners["overload"]
        assert reg.gauges()["catchup.pending"].value == store.pending() > 0
        fill = reg.gauges()["overload.max_saturation"].value
        assert fill == 1.0 - guard.tokens.min() / guard.config.capacity > 0
        drained = store.buffers.copy()
        store.buffers.clear()
        try:
            assert reg.gauges()["catchup.pending"].value == 0
        finally:
            store.buffers.update(drained)

    def test_objects_under_one_prefix_sum_and_latest_gauge_wins(self):
        from repro.core.stabilize import CatchUpStats

        reg = MetricsRegistry()
        first, second = CatchUpStats(deposited=2), CatchUpStats(deposited=3, evictions=1)
        for stats, level in ((first, 7), (second, 9)):
            reg.attach("catchup", stats)
            reg.gauge("catchup.pending", "buffered").set_function(lambda level=level: level)
        first.deposited += 1
        assert reg.counters()["catchup.deposited"].value == 6.0
        assert reg.counters()["catchup.evictions"].value == 1.0
        assert reg.gauges()["catchup.pending"].value == 9.0
        text = prometheus_text(reg)
        assert "# HELP select_repro_catchup_deposited missed notifications handed to the store" in text
        assert "select_repro_catchup_deposited 6\n" in text

    def test_a_name_is_pushed_or_read_never_both(self):
        from repro.net.faults import FaultStats
        from repro.scenarios.overload import OverloadStats

        reg = MetricsRegistry()
        reg.attach("faults", FaultStats())
        with pytest.raises(ConfigurationError):
            reg.gauge("faults.pings")
        reg.gauge("overload.shed")
        with pytest.raises(ConfigurationError):
            reg.attach("overload", OverloadStats())

    def test_null_registry_keeps_no_reference(self):
        import gc
        import weakref

        from repro.net.faults import FaultPlan

        plan = FaultPlan(seed=1)  # attaches to the process default: the null registry
        ref = weakref.ref(plan.stats)
        null = NullRegistry()
        null.attach("faults", plan.stats)
        null.gauge("faults.level").set_function(plan.departs_gracefully)
        del plan
        gc.collect()
        assert ref() is None


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_telemetry_flag_and_report(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = str(tmp_path / "tel")
        rc = main(
            [
                "fig2",
                "--preset",
                "quick",
                "--num-nodes",
                "48",
                "--trials",
                "1",
                "--datasets",
                "facebook",
                "--systems",
                "select",
                "--telemetry",
                out,
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert validate_dir(out) == []
        # The run installed and must have uninstalled the registry.
        assert get_registry() is NULL_REGISTRY
        assert main(["report", out]) == 0
        rendered = capsys.readouterr().out
        assert "Per-phase timings" in rendered
        assert "experiment.fig2" in rendered
        assert "lookup.events" in rendered

    def test_report_without_dir_errors(self, capsys):
        from repro.experiments.cli import main

        assert main(["report"]) == 2
