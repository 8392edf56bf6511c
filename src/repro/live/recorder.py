"""Per-node flight recorders: bounded rings of protocol events.

Every traced node carries a :class:`FlightRecorder` — a fixed-capacity
ring buffer (``collections.deque(maxlen=...)``) of timestamped protocol
events: membership transitions, probe outcomes, request retry/backoff
decisions, shed reasons, and supervisor incidents. Like an aircraft's
flight recorder it is cheap enough to run always (one dict append per
event, oldest evicted first) yet holds exactly the minutes that matter
when a run dies: the CI live-smoke uploads the dump of a failed run, so
a crash that only reproduces at 2 a.m. under a 100-node partition still
leaves per-node evidence of which suspicion verdict or retry storm
preceded it.

Timestamps use the same injectable elapsed clock as the span tracer
(:class:`repro.telemetry.tracer.Tracer`), never wall-clock, so a
recorder dump lines up with ``traces.jsonl`` timestamps line for line.

:func:`dump_flight_recorders` writes the whole cluster's rings as one
``select-repro/flight/v1`` JSON document through
:mod:`repro.util.atomicio`, so a dump raced by the crash that triggered
it can never leave a truncated file for the post-mortem.
"""

from __future__ import annotations

import os
from collections import deque

from repro.live.config import FLIGHT_RECORDER_CAPACITY
from repro.util.atomicio import atomic_write_json

__all__ = ["FLIGHT_SCHEMA", "FlightRecorder", "dump_flight_recorders"]

FLIGHT_SCHEMA = "select-repro/flight/v1"


class FlightRecorder:
    """Fixed-capacity ring of one node's protocol events (oldest evicted)."""

    def __init__(self, node_id: int, capacity: int = FLIGHT_RECORDER_CAPACITY, clock=None):
        self.node_id = int(node_id)
        self.capacity = int(capacity)
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._events: deque = deque(maxlen=self.capacity)
        #: events evicted from the ring to admit newer ones.
        self.dropped = 0

    def record(self, kind: str, **fields) -> None:
        """Append one event; evicts (and counts) the oldest when full."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        event = {"t": round(float(self.clock()), 6), "kind": str(kind)}
        event.update(fields)
        self._events.append(event)

    def events(self) -> "list[dict]":
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(node={self.node_id}, events={len(self._events)}/"
            f"{self.capacity}, dropped={self.dropped})"
        )


def dump_flight_recorders(
    path: str,
    recorders: "dict[int, FlightRecorder]",
    incidents=(),
    meta: "dict | None" = None,
) -> str:
    """Atomically write every node's ring as one flight/v1 document."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    doc = {
        "schema": FLIGHT_SCHEMA,
        "meta": dict(meta or {}),
        "incidents": [dict(i) for i in incidents],
        "nodes": {
            str(node_id): {
                "events": recorder.events(),
                "dropped": recorder.dropped,
                "capacity": recorder.capacity,
            }
            for node_id, recorder in sorted(recorders.items())
        },
    }
    return atomic_write_json(path, doc, indent=2, sort_keys=True, default=float)
