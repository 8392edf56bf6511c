"""Configuration for the live asyncio runtime.

The peers run one fixed protocol, so every setting of it is a constant
stated once here: the SWIM gossip and probe policy, the request layer's
backoff (mirroring the :class:`~repro.scenarios.overload.OverloadConfig`
shape: a bounded budget with exponential doubling), the supervisor's
restart budget and the flight recorder's size. :class:`LiveConfig`
keeps the timings that tests turn down to quiet or speed up the
protocol loops. Defaults are tuned for CI: a few hundred in-process
nodes converge membership in single-digit seconds.

All durations are **seconds** of wall clock — the live runtime runs on
the event loop's real clock, unlike the simulator's virtual time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.exceptions import ConfigurationError

__all__ = ["LiveConfig"]

# -- SWIM membership ----------------------------------------------------------
#: believed-alive targets each gossip round pushes the digest to.
GOSSIP_FANOUT = 3
#: probability a gossip round *also* targets one non-alive member — the
#: resurrection channel that re-discovers peers across a healed partition
#: (their own gossip does the rest).
GOSSIP_RESURRECT_P = 0.25
#: per-attempt timeout of one direct/indirect probe, in seconds.
PROBE_TIMEOUT = 0.2
#: helpers asked to ping-req the target when the direct probe fails.
INDIRECT_PROBES = 2
#: consecutive failed probe rounds before SUSPECT hardens into DEAD.
SUSPICION_THRESHOLD = 3

# -- request layer ------------------------------------------------------------
#: multiplier applied to the timeout-derived backoff per attempt (the
#: OverloadGuard discipline: bounded budget, exponential wait).
REQUEST_BACKOFF = 2.0
#: hard cap on one backoff sleep, in seconds.
REQUEST_BACKOFF_MAX = 1.0

# -- supervision and observability ----------------------------------------------
#: crashes after which the supervisor stops restarting a node.
MAX_RESTARTS = 5
#: per-node flight-recorder ring capacity (events retained; oldest evicted
#: first). Untraced runs allocate no recorders at all.
FLIGHT_RECORDER_CAPACITY = 512


def _positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def _non_negative(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class LiveConfig:
    """Timings of one :class:`~repro.live.cluster.LiveCluster`."""

    # -- transport (loopback network weather) --------------------------------
    #: mean one-way delivery delay per transport send, in seconds.
    delay_mean: float = 0.002
    #: +/- uniform jitter applied around :attr:`delay_mean`.
    delay_jitter: float = 0.002

    # -- SWIM membership ------------------------------------------------------
    #: seconds between push-gossip rounds at each node.
    gossip_interval: float = 0.05
    #: seconds between failure-detector probe rounds at each node.
    probe_interval: float = 0.05

    # -- request layer (envelope retry / timeout / backoff) -------------------
    #: per-attempt response timeout, in seconds.
    request_timeout: float = 0.25
    #: retries after the first attempt (total attempts = 1 + retries).
    request_retries: int = 3

    # -- supervision -----------------------------------------------------------
    #: first restart backoff after a node task crash, in seconds.
    restart_backoff: float = 0.05
    #: exponential cap on the restart backoff.
    restart_backoff_max: float = 1.0

    def __post_init__(self):
        _non_negative("delay_mean", self.delay_mean)
        _non_negative("delay_jitter", self.delay_jitter)
        _positive("gossip_interval", self.gossip_interval)
        _positive("probe_interval", self.probe_interval)
        _positive("request_timeout", self.request_timeout)
        _positive("restart_backoff", self.restart_backoff)
        _positive("restart_backoff_max", self.restart_backoff_max)
        if self.request_retries < 0:
            raise ConfigurationError(
                f"request_retries must be >= 0, got {self.request_retries}"
            )
