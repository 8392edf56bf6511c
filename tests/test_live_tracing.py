"""Live causal tracing: spans, flight recorders, chain validation, SLOs."""

from __future__ import annotations

import asyncio
import hashlib
import json
import os

import pytest

from repro.live import (
    FLIGHT_SCHEMA,
    Envelope,
    FlightRecorder,
    LiveScenario,
    TraceContext,
    dump_flight_recorders,
)
from repro.live.cluster import LiveCluster
from repro.live.envelope import NOTIFY
from repro.telemetry import MetricsRegistry, Tracer, write_telemetry
from repro.telemetry.tracer import (
    COMPLETE_TERMINALS,
    TERMINAL_NAMES,
    TRACE_SCHEMA,
    chain_errors,
    is_complete,
    summarize,
)
from repro.validate import validate_telemetry as validate_dir
from repro.validate import main as validate_main


class FakeClock:
    """Deterministic elapsed clock: every read advances by ``step``."""

    def __init__(self, step: float = 0.25):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.t
        self.t += self.step
        return value


class TestTraceContext:
    def test_wire_dict_is_json_safe(self):
        ctx = TraceContext("7:3", parent=12, hop=2)
        assert ctx.wire() == {"id": "7:3", "parent": 12, "hop": 2}
        # A relay re-stamps the parent without touching id or hop.
        assert ctx.wire(parent=99) == {"id": "7:3", "parent": 99, "hop": 2}
        json.dumps(ctx.wire())

    def test_envelope_trace_defaults_none_and_reply_preserves(self):
        from repro.live.envelope import ACK, PING

        plain = Envelope(kind=PING, src=0, dst=1, seq=1)
        assert plain.trace is None
        wire = TraceContext("1:1", parent=1).wire()
        traced = Envelope(kind=PING, src=0, dst=1, seq=1, trace=wire)
        assert traced.reply(ACK, seq=2).trace == wire


class TestLiveTracer:
    def _tracer(self):
        return Tracer(clock=FakeClock())

    def test_two_phase_span_brackets_clock(self):
        tracer = self._tracer()
        sid = tracer.start("1:2", "send", node=0, parent=None, hop=0, attempt=0)
        tracer.finish(sid, status="acked")
        (span,) = tracer.spans()
        assert span["name"] == "send" and span["status"] == "acked"
        assert span["t1"] > span["t0"] >= 0.0
        assert span["attrs"]["attempt"] == 0

    def test_event_is_instantaneous(self):
        tracer = self._tracer()
        tracer.event("1:2", "publish", node=3, sub=2)
        (span,) = tracer.spans()
        assert span["t0"] == span["t1"]
        assert span["parent"] is None and not span["terminal"]

    def test_exactly_one_terminal_per_trace(self):
        # A catch-up recovery racing a live delivery must not leave two
        # terminals: the loser degrades to a post_terminal annotation.
        tracer = self._tracer()
        root = tracer.event("5:9", "publish", node=0)
        tracer.event("5:9", "delivered", node=9, parent=root, terminal=True)
        assert tracer.has_terminal("5:9")
        tracer.event("5:9", "recovered", node=9, parent=root, terminal=True)
        spans = tracer.spans()
        terminals = [s for s in spans if s["terminal"]]
        assert len(terminals) == 1 and terminals[0]["name"] == "delivered"
        late = next(s for s in spans if s["name"] == "recovered")
        assert not late["terminal"] and late["attrs"]["post_terminal"] is True
        assert chain_errors("5:9", spans) == []

    def test_flush_open_closes_leftovers_unfinished(self):
        tracer = self._tracer()
        tracer.start("1:1", "send", node=0, parent=None)
        tracer.start("1:1", "send", node=0, parent=None)
        assert tracer.flush_open() == 2
        assert tracer.flush_open() == 0
        assert all(s["status"] == "unfinished" for s in tracer.spans())

    def test_drop_annotates_only_traced_envelopes(self):
        tracer = self._tracer()
        tracer.drop(Envelope(kind=NOTIFY, src=0, dst=1, seq=1), "loss")
        assert tracer.spans() == []
        wire = TraceContext("4:1", parent=7, hop=3).wire()
        tracer.drop(Envelope(kind=NOTIFY, src=0, dst=1, seq=1, trace=wire), "loss")
        (span,) = tracer.spans()
        assert span["name"] == "drop" and span["status"] == "loss"
        assert span["parent"] == 7 and span["hop"] == 3 and span["node"] == 1

    def test_injected_clock_makes_spans_deterministic(self):
        # Timestamps come from the injectable elapsed clock, never
        # wall-clock — identical scripts give byte-identical spans. The
        # digest pins those bytes to what the live runtime's span factory
        # wrote before it became the one Tracer both runtimes share.
        def run():
            tracer = Tracer(clock=FakeClock(step=0.5))
            root = tracer.event("0:1", "publish", node=0, sub=1)
            sid = tracer.start("0:1", "send", node=0, parent=root, hop=0, attempt=0, dst=3)
            tracer.finish(sid, status="acked")
            relay = tracer.event("0:1", "relay", node=3, parent=sid, hop=1)
            wire = TraceContext("0:1", parent=relay, hop=1).wire()
            tracer.drop(Envelope(kind=NOTIFY, src=3, dst=1, seq=1, trace=wire), "loss")
            tracer.event("0:1", "delivered", node=1, parent=relay, hop=2, terminal=True)
            tracer.event("0:1", "recovered", node=1, parent=root, terminal=True)
            tracer.start("2:5", "send", node=2, parent=None, attempt=1)
            tracer.flush_open()
            return [json.dumps(s, sort_keys=True) for s in tracer.spans()]

        lines = run()
        assert lines == run()
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "51eb43ad6b3f86edea52e9e73b7d553cce315f80cf9b8b125b4c8aed103636f0"
        )


class TestChainValidation:
    def _chain(self):
        return [
            {"type": "live", "trace_id": "1:2", "span": 1, "parent": None, "name": "publish", "node": 0, "t0": 0.0, "t1": 0.0, "terminal": False},
            {"type": "live", "trace_id": "1:2", "span": 2, "parent": 1, "name": "send", "node": 0, "t0": 0.1, "t1": 0.4, "terminal": False},
            {"type": "live", "trace_id": "1:2", "span": 3, "parent": 2, "name": "relay", "node": 5, "t0": 0.2, "t1": 0.2, "hop": 1, "terminal": False},
            {"type": "live", "trace_id": "1:2", "span": 4, "parent": 3, "name": "delivered", "node": 2, "t0": 0.3, "t1": 0.3, "hop": 2, "terminal": True},
        ]

    def test_sound_chain_has_no_errors(self):
        spans = self._chain()
        assert chain_errors("1:2", spans) == []
        assert is_complete(spans, [])

    def test_orphan_parent_detected(self):
        spans = self._chain()
        spans[2]["parent"] = 999
        errors = chain_errors("1:2", spans)
        assert any("orphan span" in e and "999" in e for e in errors)
        assert not is_complete(spans, errors)

    def test_missing_and_duplicate_terminals_detected(self):
        spans = self._chain()
        spans[3]["terminal"] = False
        assert any("no terminal" in e for e in chain_errors("1:2", spans))
        spans[3]["terminal"] = True
        spans[1]["terminal"] = True
        assert any("2 terminal spans" in e for e in chain_errors("1:2", spans))

    def test_pending_terminal_closes_but_does_not_complete(self):
        # So does the simulator's ``lost``: missed with no catch-up store.
        for name in ("pending", "lost"):
            spans = self._chain()
            spans[3]["name"] = name
            assert name in TERMINAL_NAMES and name not in COMPLETE_TERMINALS
            assert chain_errors("1:2", spans) == []
            assert not is_complete(spans, [])
            summary = summarize(spans)
            assert summary["complete_chains"] == 0 and summary["terminals"] == {name: 1}

    def test_summarize_latency_and_hops(self):
        summary = summarize(self._chain())
        assert summary["schema"] == TRACE_SCHEMA
        assert summary["complete_chain_ratio"] == 1.0
        assert summary["latency_ms"] == [pytest.approx(300.0)]
        assert summary["hops"] == [2]


class TestFlightRecorder:
    def test_ring_evicts_oldest_and_counts(self):
        clock = FakeClock(step=1.0)
        rec = FlightRecorder(7, capacity=3, clock=clock)
        for i in range(5):
            rec.record("probe", peer=i)
        assert len(rec) == 3 and rec.dropped == 2
        assert [e["peer"] for e in rec.events()] == [2, 3, 4]
        assert all(e["kind"] == "probe" for e in rec.events())
        # Timestamps ride the same injectable clock as the tracer.
        assert [e["t"] for e in rec.events()] == [2.0, 3.0, 4.0]

    def test_dump_schema_and_makedirs(self, tmp_path):
        rec = FlightRecorder(0, capacity=4)
        rec.record("membership", peer=1, old="alive", new="suspect")
        path = str(tmp_path / "deep" / "nested" / "flight.json")
        dump_flight_recorders(
            path,
            {0: rec},
            incidents=[{"t": 1.0, "node": 0, "kind": "crash"}],
            meta={"reason": "test"},
        )
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["meta"]["reason"] == "test"
        assert doc["incidents"][0]["kind"] == "crash"
        node = doc["nodes"]["0"]
        assert node["capacity"] == 4 and node["dropped"] == 0
        assert node["events"][0]["kind"] == "membership"


#: short scripted run shared by the integration tests below.
SMALL = LiveScenario(
    name="test_traced_crash",
    description="small traced crash run",
    duration=1.0,
    settle=8.0,
    crash_fraction=0.2,
    crash_at=0.5,
)


def _run_traced(tmp_path, num_nodes=20, scenario=SMALL, seed=7):
    registry = MetricsRegistry()
    cluster = LiveCluster(
        num_nodes=num_nodes,
        scenario=scenario,
        seed=seed,
        registry=registry,
        trace=True,
        flight_path=str(tmp_path / "flight.json"),
    )
    result = asyncio.run(cluster.run())
    return cluster, registry, result


class TestTraceReportDistribution:
    """``live.json``'s ``latency_ms`` / ``hops`` blocks: nearest-rank, floats."""

    @pytest.mark.parametrize(
        "values, block",
        [
            ([], {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}),
            ([7], {"count": 1, "p50": 7.0, "p99": 7.0, "max": 7.0}),
            ([2, 1, 3, 1], {"count": 4, "p50": 1.0, "p99": 3.0, "max": 3.0}),
            ([4.5, 0.25, 3.0, 9.75, 1.5], {"count": 5, "p50": 3.0, "p99": 9.75, "max": 9.75}),
            (list(range(101, 0, -1)), {"count": 101, "p50": 51.0, "p99": 100.0, "max": 101.0}),
        ],
    )
    def test_blocks_are_unchanged(self, values, block):
        from repro.live.cluster import _distribution

        out = _distribution(values)
        assert out == block
        assert all(isinstance(out[k], float) for k in ("p50", "p99", "max"))


class TestTracedRun:
    def test_small_traced_run_chains_and_report(self, tmp_path):
        cluster, registry, result = _run_traced(tmp_path)
        trace = result["trace"]
        assert trace["schema"] == TRACE_SCHEMA
        assert trace["traces"] == result["intended_pairs"]
        assert trace["orphan_spans"] == 0 and trace["chain_errors"] == 0
        assert trace["complete_chain_ratio"] >= 0.99
        # Every span the run made is kept: one root per intended pair.
        roots = [s for s in cluster.tracer.spans() if s["parent"] is None]
        assert len(roots) == trace["traces"]
        assert set(trace["terminals"]) <= set(TERMINAL_NAMES)
        # The metrics plane picked up the chain-derived series.
        gauges = registry.gauges()
        assert gauges["live.trace_complete_chain_ratio"].value == pytest.approx(
            trace["complete_chain_ratio"]
        )
        assert registry.histograms()["live.trace_latency_ms"].count == trace["latency_ms"]["count"]
        # Per-node labeled live series exist for every node.
        assert gauges["live.node_delivered{node=0}"].labels == {"node": "0"}
        assert "live.node_flight_events{node=5}" in gauges

    def test_flight_recorders_capture_protocol_events(self, tmp_path):
        cluster, _, result = _run_traced(tmp_path)
        kinds = {e["kind"] for rec in cluster.recorders.values() for e in rec.events()}
        assert "probe" in kinds or "membership" in kinds
        # The scripted crash produced incidents, so the run dumped.
        assert cluster.incidents
        path = tmp_path / "flight.json"
        assert path.is_file()
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["meta"]["reason"] in ("end_of_run", "crash", "gave_up")
        assert any(i["kind"] in ("crash", "kill") for i in doc["incidents"])

    def test_tracing_off_is_the_pr7_code_path(self):
        # Zero-overhead pin: an untraced cluster registers no trace
        # instruments, stamps no envelopes, and carries no recorders.
        registry = MetricsRegistry()
        cluster = LiveCluster(
            num_nodes=10, scenario=SMALL, seed=3, registry=registry
        )
        assert cluster.tracer is None
        assert cluster.recorders == {} and cluster.transport.tracer is None
        assert cluster.supervisor.on_incident is None
        assert all(n.recorder is None and n.tracer is None for n in cluster.nodes.values())
        result = asyncio.run(cluster.run())
        assert "trace" not in result
        names = set(registry.counters()) | set(registry.gauges()) | set(
            registry.histograms()
        )
        assert not any("trace" in n or "flight" in n or "{" in n for n in names)


class TestValidatorRoundTrip:
    def _telemetry_dir(self, tmp_path):
        cluster, registry, result = _run_traced(tmp_path, num_nodes=15, seed=11)
        out = str(tmp_path / "tel")
        write_telemetry(
            out,
            registry,
            tracer=cluster.tracer,
            meta={"experiments": "live"},
        )
        return out

    def test_valid_live_traces_pass(self, tmp_path, capsys):
        out = self._telemetry_dir(tmp_path)
        assert validate_dir(out) == []
        assert validate_main([out]) == 0
        assert "telemetry schema OK" in capsys.readouterr().out

    def _mutate_traces(self, out, fn):
        path = os.path.join(out, "traces.jsonl")
        lines = open(path, encoding="utf-8").read().splitlines()
        spans = [json.loads(line) for line in lines]
        fn(spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    def test_mutated_trace_id_fails_with_pointed_error(self, tmp_path, capsys):
        out = self._telemetry_dir(tmp_path)

        def corrupt(spans):
            # Re-home one mid-chain span: its old trace loses a link
            # (orphaning any child) and the new trace gains a stray.
            victim = next(
                s for s in spans if s.get("type") == "live" and s.get("parent") is not None
            )
            victim["trace_id"] = "9999:9999"

        self._mutate_traces(out, corrupt)
        errors = validate_dir(out)
        assert errors
        assert any("9999:9999" in e for e in errors)
        assert validate_main([out]) == 1
        assert "SCHEMA ERROR" in capsys.readouterr().err

    def test_stripped_terminal_fails_with_pointed_error(self, tmp_path):
        out = self._telemetry_dir(tmp_path)

        def corrupt(spans):
            for s in spans:
                if s.get("type") == "live" and s.get("terminal"):
                    s["terminal"] = False
                    break

        self._mutate_traces(out, corrupt)
        errors = validate_dir(out)
        assert any("no terminal span" in e for e in errors)

    def test_missing_required_key_fails(self, tmp_path):
        out = self._telemetry_dir(tmp_path)
        path = os.path.join(out, "traces.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "live", "trace_id": "1:1"}\n')
        errors = validate_dir(out)
        assert any("live span missing keys" in e for e in errors)


class TestTraceCli:
    def test_trace_verb_renders_causal_tree(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = str(tmp_path / "tel")
        rc = main(
            [
                "live",
                "calm",
                "--num-nodes",
                "12",
                "--seed",
                "5",
                "--trace",
                "--telemetry",
                out,
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert validate_dir(out) == []
        assert main(["trace", out, "--limit", "2"]) == 0
        rendered = capsys.readouterr().out
        assert "Causal traces:" in rendered
        assert "publish" in rendered and "delivered*" in rendered
        # Drill into one specific chain by id.
        tid = next(
            line.split()[1] for line in rendered.splitlines() if line.startswith("trace ")
        )
        assert main(["trace", out, "--trace-id", tid]) == 0
        assert f"trace {tid}" in capsys.readouterr().out

    @pytest.mark.parametrize("alias", [["--nodes", "12"], ["--scenario", "calm"]])
    def test_live_has_one_name_per_option(self, alias, capsys):
        # The cluster size is --num-nodes and the scenario the positional NAME.
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["live", "calm", *alias])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(alias)}" in capsys.readouterr().err

    def test_trace_verb_without_traces_errors(self, tmp_path):
        from repro.experiments.cli import main
        from repro.util.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["trace", str(tmp_path)])


class TestTracedAcceptance:
    def test_100_node_traced_crash_and_partition_chains_complete(self):
        # The ISSUE's tracing acceptance bar: a seeded 100-node traced
        # crash_and_partition run yields schema-valid chains — >= 99%
        # complete (publish root through relay hops to exactly one
        # resolving terminal), zero orphan spans — and passes the live
        # trace SLO.
        result = asyncio.run(
            LiveCluster(
                num_nodes=100,
                scenario="crash_and_partition",
                seed=2018,
                registry=MetricsRegistry(),
                trace=True,
            ).run()
        )
        trace = result["trace"]
        assert trace["traces"] == result["intended_pairs"] > 0
        assert trace["complete_chain_ratio"] >= 0.99
        assert trace["orphan_spans"] == 0
        assert trace["chain_errors"] == 0
        assert set(trace["terminals"]) <= set(TERMINAL_NAMES)
        assert trace["slo"]["passed"]
        # The non-trace accounting still holds at the PR 7 bar.
        assert result["unaccounted"] == 0
        assert result["eventual_delivery_ratio"] >= 0.99
