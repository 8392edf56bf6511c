"""Simulation substrate.

:class:`NotificationSimulator` replays a publish workload against an
overlay on one clock — the publish events merged with the periodic
maintenance instants — and asks
:meth:`repro.net.churn.ChurnTimeline.online_at` who is up at each of
them; a run checkpoints and resumes bit-identically.
:class:`SuperstepEngine` is the paper's Apache Flink/Gelly vertex-centric
model (synchronized supersteps, messages between them, vote-to-halt), kept
as a public name; construction itself runs in :mod:`repro.core.rounds`.
"""

from repro.sim.engine import SuperstepEngine, VertexContext, VertexProgram
from repro.sim.runner import NotificationRecord, NotificationSimulator, SimulationReport
from repro.sim.trace import TraceRecorder

__all__ = [
    "SuperstepEngine",
    "VertexContext",
    "VertexProgram",
    "NotificationRecord",
    "NotificationSimulator",
    "SimulationReport",
    "TraceRecorder",
]
