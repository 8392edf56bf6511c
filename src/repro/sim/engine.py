"""Synchronous vertex-centric superstep engine (Pregel/Gelly semantics).

Each superstep, every *active* vertex receives the messages sent to it in
the previous superstep and runs the program's ``compute``. A vertex
deactivates by voting to halt and is reactivated by an incoming message.
The engine stops when all vertices have halted and no messages are in
flight, or when ``max_supersteps`` is reached.

This mirrors the execution model the paper used (Flink/Gelly vertex-centric
iterations), so iteration counts measured here are comparable to Figure 5.

Nothing in ``src/`` runs it since SELECT's build became the loop over
:mod:`repro.core.rounds`. It stays because ``SuperstepEngine.run`` is a
public name and a trace point of the benchmark suite
(``benchmarks/suite/tracing.POINTS``); ROADMAP 7(b) removes it with the
PR that may edit that suite.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.util.exceptions import SimulationError

__all__ = ["VertexProgram", "VertexContext", "SuperstepEngine"]


class VertexProgram(Protocol):
    """Per-vertex behaviour plugged into the engine.

    A program may additionally define ``begin_round(engine)``; when
    present the engine calls it once at the start of every superstep,
    before any vertex's ``compute``. This is the hook a program uses to
    run whole-network batch phases (vectorized supersteps) while keeping
    per-vertex work in ``compute`` — mirroring Gelly's ability to stage a
    DataSet-wide transformation between vertex iterations.
    """

    def compute(self, ctx: "VertexContext", vertex: int, messages: list) -> None:
        """Process ``messages`` addressed to ``vertex`` this superstep."""
        ...  # pragma: no cover - protocol stub


class VertexContext:
    """Handle a vertex program uses to interact with the engine."""

    __slots__ = ("_engine", "_vertex")

    def __init__(self, engine: "SuperstepEngine", vertex: int):
        self._engine = engine
        self._vertex = vertex

    @property
    def superstep(self) -> int:
        """Zero-based index of the current superstep."""
        return self._engine.superstep

    @property
    def num_vertices(self) -> int:
        """Total vertex count."""
        return self._engine.num_vertices

    def send(self, dst: int, message) -> None:
        """Deliver ``message`` to ``dst`` at the next superstep."""
        self._engine._outbox[dst].append(message)
        self._engine._messages_sent += 1

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message arrives."""
        self._engine._active[self._vertex] = False


class SuperstepEngine:
    """Runs a :class:`VertexProgram` over ``num_vertices`` vertices."""

    def __init__(self, num_vertices: int, program: VertexProgram):
        if num_vertices <= 0:
            raise SimulationError(f"need at least one vertex, got {num_vertices}")
        self.num_vertices = num_vertices
        self.program = program
        self.superstep = 0
        self._inbox: list[list] = [[] for _ in range(num_vertices)]
        self._outbox: list[list] = [[] for _ in range(num_vertices)]
        self._active = [True] * num_vertices
        self._messages_sent = 0
        self.total_messages = 0
        self.supersteps_run = 0

    def run(
        self,
        max_supersteps: int = 100,
        stop_when: "Callable[[SuperstepEngine], bool] | None" = None,
    ) -> int:
        """Run to quiescence (or ``stop_when``/``max_supersteps``).

        Returns the number of supersteps executed — the "iterations"
        reported by Figure 5.
        """
        if max_supersteps <= 0:
            raise SimulationError(f"max_supersteps must be positive, got {max_supersteps}")
        for _ in range(max_supersteps):
            if not self._step():
                break
            if stop_when is not None and stop_when(self):
                break
        return self.supersteps_run

    def _step(self) -> bool:
        """Execute one superstep; False when the computation has quiesced."""
        pending = any(self._active) or any(self._inbox[v] for v in range(self.num_vertices))
        if not pending:
            return False
        self._messages_sent = 0
        begin_round = getattr(self.program, "begin_round", None)
        if begin_round is not None:
            begin_round(self)
        for vertex in range(self.num_vertices):
            messages = self._inbox[vertex]
            if messages:
                self._active[vertex] = True  # message reactivates a halted vertex
            if not self._active[vertex]:
                continue
            ctx = VertexContext(self, vertex)
            self.program.compute(ctx, vertex, messages)
            self._inbox[vertex] = []
        # Swap mailboxes: everything sent this superstep arrives next one.
        self._inbox, self._outbox = self._outbox, [[] for _ in range(self.num_vertices)]
        self.total_messages += self._messages_sent
        self.superstep += 1
        self.supersteps_run += 1
        return True

    @property
    def active_count(self) -> int:
        """Number of vertices that have not voted to halt."""
        return sum(self._active)
