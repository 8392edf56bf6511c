"""Network environment models.

Everything the paper's testbed provided physically is modelled here:
heterogeneous per-peer bandwidth, per-link latency, serialized simultaneous
transfers (the §IV-D probe), log-normal churn sessions [20], the social
network growth process [19], the exponential posting workload [21], and the
Cumulative Moving Average online-behaviour tracker that SELECT's recovery
mechanism consumes. :mod:`repro.net.faults` adds what the testbed did
*not* provide: seeded fault injection — lossy links with bounded
retransmission, noisy liveness probes behind a timeout/backoff/suspicion
:class:`~repro.net.faults.PingService`, crash vs. graceful departures,
and time-windowed ring partitions.
"""

from repro.net.bandwidth import BandwidthModel, PeerBandwidth
from repro.net.latency import LatencyModel
from repro.net.transfer import fanout_transfer_time, tree_dissemination_time
from repro.net.churn import ChurnModel, ChurnTimeline
from repro.net.growth import GrowthModel, JoinEvent
from repro.net.workload import PublishEvent, PublishWorkload
from repro.net.availability import CumulativeMovingAverage, OnlineBehavior
from repro.net.faults import (
    FaultPlan,
    FaultStats,
    PathOutcome,
    PingResult,
    PingService,
    RingPartition,
)
from repro.net.geo import GeoLatencyModel, Region, social_region_assignment

__all__ = [
    "BandwidthModel",
    "PeerBandwidth",
    "LatencyModel",
    "fanout_transfer_time",
    "tree_dissemination_time",
    "ChurnModel",
    "ChurnTimeline",
    "GrowthModel",
    "JoinEvent",
    "PublishEvent",
    "PublishWorkload",
    "CumulativeMovingAverage",
    "OnlineBehavior",
    "FaultPlan",
    "FaultStats",
    "PathOutcome",
    "PingResult",
    "PingService",
    "RingPartition",
    "GeoLatencyModel",
    "Region",
    "social_region_assignment",
]
