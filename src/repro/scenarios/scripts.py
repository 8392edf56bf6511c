"""Correlated failure scripts compiled down to :class:`FaultPlan`.

A scenario describes *what happens to the network* as a small script of
time-windowed events — "this region goes dark for ten minutes",
"partitions sweep the ring" — and compiles it onto the existing
fault machinery: each window is a :class:`~repro.net.faults.RingPartition`
(a contiguous identifier-ring arc cut off from the rest; SELECT ids are
socially clustered, so an arc is the overlay analogue of a regional
outage), and the script's ambient noise becomes the plan's loss/ping
parameters.

``FaultPlan`` refuses overlapping partition windows (side-of-cut would be
ambiguous), so :meth:`FaultScript.compile` serializes overlapping script
windows first: windows are sorted by start time and a window that begins
before its predecessor ended is clipped to start when the predecessor
ends (an empty remainder is dropped). Scenario authors can therefore
write overlapping waves freely and still get a valid plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.net.faults import FaultPlan, RingPartition
from repro.util.exceptions import ConfigurationError

__all__ = [
    "FaultScript",
    "regional_outage",
    "partition_storm",
]


@dataclass(frozen=True)
class FaultScript:
    """A declarative failure storyline, compilable to one :class:`FaultPlan`."""

    windows: "tuple[RingPartition, ...]" = ()
    loss_rate: float = 0.0
    retry_budget: int = 2
    ping_false_negative: float = 0.0
    ping_false_positive: float = 0.0
    graceful_fraction: float = 0.0

    def resolved_windows(self) -> "tuple[RingPartition, ...]":
        """Windows with time overlaps serialized (clip-to-predecessor)."""
        out: list[RingPartition] = []
        for w in sorted(self.windows, key=lambda w: (w.start, w.end, *w.cut)):
            if out and w.start < out[-1].end:
                if w.end <= out[-1].end:
                    continue  # fully shadowed by the previous window
                w = replace(w, start=out[-1].end)
            out.append(w)
        return tuple(out)

    def compile(self, seed=None, registry=None) -> FaultPlan:
        """One seeded :class:`FaultPlan` realizing this script."""
        return FaultPlan(
            loss_rate=self.loss_rate,
            retry_budget=self.retry_budget,
            ping_false_negative=self.ping_false_negative,
            ping_false_positive=self.ping_false_positive,
            graceful_fraction=self.graceful_fraction,
            partitions=self.resolved_windows(),
            seed=seed,
            registry=registry,
        )

    @property
    def is_null(self) -> bool:
        return (
            not self.windows
            and self.loss_rate == 0.0
            and self.ping_false_negative == 0.0
            and self.ping_false_positive == 0.0
            and self.graceful_fraction == 0.0
        )

    def heal_time(self) -> float:
        """When the last scripted window ends (0.0 for a calm script)."""
        return max((w.end for w in self.windows), default=0.0)


def _arc(center: float, width: float) -> "tuple[float, float]":
    """The ring arc of ``width`` centered on ``center`` (may wrap 0/1)."""
    if not (0.0 < width < 1.0):
        raise ConfigurationError(f"arc width must be in (0, 1), got {width}")
    lo = (center - width / 2.0) % 1.0
    hi = (center + width / 2.0) % 1.0
    return lo, hi


def regional_outage(
    center: float = 0.25,
    width: float = 0.2,
    start: float = 0.0,
    duration: float = math.inf,
    **noise,
) -> FaultScript:
    """One contiguous ring arc offline for a window (a region going dark)."""
    return FaultScript(
        windows=(RingPartition(cut=_arc(center, width), start=start, end=start + duration),),
        **noise,
    )


def partition_storm(
    start: float,
    cuts: int = 4,
    cut_duration: float = 90.0,
    gap: float = 30.0,
    width: float = 0.25,
    **noise,
) -> FaultScript:
    """Back-to-back short partitions at rotating positions on the ring."""
    if cuts < 1:
        raise ConfigurationError(f"cuts must be >= 1, got {cuts}")
    windows = []
    t = start
    for i in range(cuts):
        cut = _arc((i + 0.5) / cuts, width)
        windows.append(RingPartition(cut=cut, start=t, end=t + cut_duration))
        t += cut_duration + gap
    return FaultScript(windows=tuple(windows), **noise)
