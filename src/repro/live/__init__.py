"""Live asyncio runtime: real concurrency over the SELECT overlay.

The lock-step simulator (:mod:`repro.sim`) replays failures
synchronously; this package runs the system for real — hundreds of
in-process :class:`~repro.live.node.PeerNode` tasks exchanging typed
:class:`~repro.live.envelope.Envelope`s over a
:class:`~repro.live.transport.LoopbackTransport` whose loss/partition
model is the familiar :class:`~repro.net.faults.FaultPlan`, with
SWIM-style membership, a retry/timeout/backoff request layer, a
restarting :class:`~repro.live.supervisor.NodeSupervisor`, and graceful
degradation into the catch-up store. One run is one
:class:`~repro.live.cluster.LiveCluster`: construct it, then
``await cluster.run()`` for the accounting dict; ``select-repro live NAME``
does the same from the command line.
"""

from repro.live.cluster import LiveCluster
from repro.live.config import LiveConfig
from repro.live.envelope import Envelope
from repro.live.membership import ALIVE, DEAD, SUSPECT, MembershipView
from repro.live.node import PeerNode
from repro.live.recorder import FLIGHT_SCHEMA, FlightRecorder, dump_flight_recorders
from repro.live.scenarios import LiveScenario, get_live_scenario, live_scenario_names
from repro.live.supervisor import NodeSupervisor
from repro.live.transport import LoopbackTransport
from repro.telemetry.tracer import TraceContext

__all__ = [
    "ALIVE",
    "DEAD",
    "FLIGHT_SCHEMA",
    "SUSPECT",
    "Envelope",
    "FlightRecorder",
    "LiveCluster",
    "LiveConfig",
    "LiveScenario",
    "LoopbackTransport",
    "MembershipView",
    "NodeSupervisor",
    "PeerNode",
    "TraceContext",
    "dump_flight_recorders",
    "get_live_scenario",
    "live_scenario_names",
]
