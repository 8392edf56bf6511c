"""Overlay substrate shared by SELECT and the baselines.

Every overlay in this library exposes the same contract
(:class:`OverlayNetwork`): peer identifiers on the unit ring, per-peer link
sets, and greedy routing (optionally with Symphony-style lookahead). The
experiment harness measures hops/relays/latency through this interface so
SELECT and the baselines are compared on identical footing.
"""

from repro.overlay.base import OverlayNetwork, RoutingTable
from repro.overlay.routing import GreedyRouter, RouteResult
from repro.overlay.doctor import DoctorReport, check_overlay

__all__ = [
    "OverlayNetwork",
    "RoutingTable",
    "GreedyRouter",
    "RouteResult",
    "DoctorReport",
    "check_overlay",
]
