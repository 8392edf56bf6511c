"""Simulation substrate: superstep engine, trace recorder."""

import pytest

from repro.sim.engine import SuperstepEngine
from repro.sim.trace import TraceRecorder
from repro.util.atomicio import read_jsonl
from repro.util.exceptions import SimulationError


class EchoProgram:
    """Vertex 0 sends a token around a ring of vertices, then halts."""

    def __init__(self, laps=1):
        self.laps = laps
        self.received = []

    def compute(self, ctx, vertex, messages):
        if ctx.superstep == 0 and vertex == 0:
            ctx.send(1 % ctx.num_vertices, ("token", 0))
        for kind, hops in messages:
            self.received.append((vertex, ctx.superstep))
            if hops + 1 < self.laps * ctx.num_vertices:
                ctx.send((vertex + 1) % ctx.num_vertices, (kind, hops + 1))
        ctx.vote_to_halt()


class TestSuperstepEngine:
    def test_message_arrives_next_superstep(self):
        program = EchoProgram()
        engine = SuperstepEngine(3, program)
        engine.run(max_supersteps=10)
        # Token visits vertices 1, 2, 0 at supersteps 1, 2, 3.
        assert program.received == [(1, 1), (2, 2), (0, 3)]

    def test_quiesces_when_all_halt(self):
        engine = SuperstepEngine(3, EchoProgram())
        iterations = engine.run(max_supersteps=100)
        assert iterations < 100

    def test_message_reactivates_halted_vertex(self):
        program = EchoProgram(laps=2)
        engine = SuperstepEngine(3, program)
        engine.run(max_supersteps=20)
        assert len(program.received) == 6  # two laps

    def test_max_supersteps_caps(self):
        class Chatter:
            def compute(self, ctx, vertex, messages):
                ctx.send(vertex, "again")  # never quiet

        engine = SuperstepEngine(2, Chatter())
        assert engine.run(max_supersteps=5) == 5

    def test_stop_when_predicate(self):
        class Chatter:
            def compute(self, ctx, vertex, messages):
                ctx.send(vertex, "x")

        engine = SuperstepEngine(2, Chatter())
        engine.run(max_supersteps=50, stop_when=lambda e: e.supersteps_run >= 3)
        assert engine.supersteps_run == 3

    def test_total_messages_counted(self):
        program = EchoProgram()
        engine = SuperstepEngine(4, program)
        engine.run(max_supersteps=10)
        assert engine.total_messages == 4  # initial + 3 forwards

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            SuperstepEngine(0, EchoProgram())
        engine = SuperstepEngine(1, EchoProgram())
        with pytest.raises(SimulationError):
            engine.run(max_supersteps=0)

    def test_active_count_drops(self):
        engine = SuperstepEngine(3, EchoProgram())
        engine.run(max_supersteps=10)
        assert engine.active_count == 0


class TestTraceRecorder:
    def test_names_and_contains(self):
        t = TraceRecorder()
        assert t.names() == []
        t.record("b", 0, 1)
        t.record("a", 0, 1)
        assert t.names() == ["a", "b"]
        assert "a" in t.names() and "c" not in t.names()

    def test_to_rows_deterministic_order(self):
        t = TraceRecorder()
        t.record("b", 1, 2.0)
        t.record("a", 0, 1.0)
        t.record("b", 0, 3.0)
        assert t.to_rows() == [
            {"series": "a", "round": 0, "value": 1.0},
            {"series": "b", "round": 1, "value": 2.0},
            {"series": "b", "round": 0, "value": 3.0},
        ]

    def test_export_load_roundtrip(self, tmp_path):
        t = TraceRecorder()
        t.record("avail", 0, 0.5)
        t.record("avail", 1, 1.0)
        t.record("peers", 0, 100)
        path = t.export(str(tmp_path / "series.jsonl"))
        assert [row for _, row in read_jsonl(path)] == t.to_rows()
