"""Scripted failure scenarios for the live runtime.

Each :class:`LiveScenario` is a wall-clock timeline: publishes flow at a
steady rate while the script crashes a seeded fraction of nodes and/or
opens a time-windowed ring partition, then the cluster gets a settle
phase to reconverge membership and drain the catch-up store. All times
are **elapsed seconds from cluster start** — the same clock the
transport and the stabilizer see, so a scripted partition blocks live
traffic and repair rounds identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.faults import RingPartition
from repro.util.exceptions import ConfigurationError

__all__ = ["LiveScenario", "get_live_scenario", "live_scenario_names", "LIVE_SCENARIOS"]


@dataclass(frozen=True)
class LiveScenario:
    """One scripted live-cluster run."""

    name: str
    description: str
    #: seconds of publish traffic (after a short membership warm-up).
    duration: float = 3.0
    #: extra seconds granted for reconvergence + catch-up drain.
    settle: float = 12.0
    #: seconds between publish events.
    publish_interval: float = 0.05
    #: fraction of nodes crashed (silently) at :attr:`crash_at`.
    crash_fraction: float = 0.0
    #: crash instant, elapsed seconds.
    crash_at: float = 1.0
    #: the ring partition (window in elapsed seconds), or ``None``.
    partition: "RingPartition | None" = None
    #: baseline per-hop transport loss probability.
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.settle < 0:
            raise ConfigurationError(f"settle must be >= 0, got {self.settle}")
        if self.publish_interval <= 0:
            raise ConfigurationError(
                f"publish_interval must be positive, got {self.publish_interval}"
            )
        if not (0.0 <= self.crash_fraction < 1.0):
            raise ConfigurationError(
                f"crash_fraction must be in [0, 1), got {self.crash_fraction}"
            )
        if not (0.0 <= self.loss_rate <= 1.0):
            raise ConfigurationError(f"loss_rate must be in [0, 1], got {self.loss_rate}")


LIVE_SCENARIOS: "dict[str, LiveScenario]" = {
    s.name: s
    for s in (
        LiveScenario(
            name="calm",
            description="no injected faults; baseline delivery and membership",
            duration=2.0,
            settle=4.0,
        ),
        LiveScenario(
            name="crash_quarter",
            description="25% of nodes crash silently mid-publish",
            crash_fraction=0.25,
            crash_at=1.0,
        ),
        LiveScenario(
            name="regional_outage",
            description="a 2-arc ring partition opens mid-run and heals",
            partition=RingPartition(cut=(0.15, 0.65), start=1.0, end=2.5),
            loss_rate=0.02,
        ),
        LiveScenario(
            name="crash_and_partition",
            description="25% crash plus a 2-arc partition — the acceptance gauntlet",
            crash_fraction=0.25,
            crash_at=1.0,
            partition=RingPartition(cut=(0.15, 0.65), start=1.5, end=3.0),
            duration=3.5,
            settle=16.0,
        ),
    )
}


def live_scenario_names() -> "list[str]":
    """Sorted names of the built-in live scenarios."""
    return sorted(LIVE_SCENARIOS)


def get_live_scenario(name: str) -> LiveScenario:
    """Look up a built-in scenario; unknown names raise ConfigurationError."""
    try:
        return LIVE_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown live scenario {name!r}; known: {', '.join(live_scenario_names())}"
        ) from None
