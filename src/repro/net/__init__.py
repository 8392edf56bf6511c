"""Network environment models.

Everything the paper's testbed provided physically is modelled here:
heterogeneous per-peer bandwidth, per-link latency, serialized simultaneous
transfers (the §IV-D probe), log-normal churn sessions [20], the social
network growth process [19] (a join log as int columns), the exponential
posting workload [21], and the book of Cumulative Moving Averages — one
``(observer, contact) -> (count, mean)`` entry per pinged contact — that
SELECT's recovery mechanism consumes. :mod:`repro.net.faults` adds what the testbed did
*not* provide: seeded fault injection — lossy links with bounded
retransmission, noisy liveness probes behind a timeout/backoff/suspicion
:class:`~repro.net.faults.PingService`, crash vs. graceful departures,
and time-windowed ring partitions.
"""

from repro.net.bandwidth import BandwidthModel, PeerBandwidth
from repro.net.latency import LatencyModel
from repro.net.transfer import fanout_transfer_time, tree_dissemination_time
from repro.net.churn import ChurnModel, ChurnTimeline
from repro.net.growth import GrowthModel
from repro.net.workload import PublishEvent, PublishWorkload
from repro.net.availability import CmaBook
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
    "PublishEvent",
    "PublishWorkload",
    "CmaBook",
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
