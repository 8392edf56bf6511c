"""Time-driven notification simulation.

Ties the substrates together into one clock: the posting workload emits
publish events, the churn model flips peers on/off, maintenance runs
periodically (SELECT's recovery), and every publish
is disseminated over the overlay *as the network looks at that instant*.
An optional :class:`~repro.net.faults.FaultPlan` makes delivery lossy and
the report then doubles as a graceful-degradation readout: drops,
retransmissions, false evictions, and partition healing times.
The result is an event log with per-notification delivery outcomes and
latencies — the closest in-process analogue of the paper's ten-hour
"realistic experiment" runs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.net.bandwidth import BandwidthModel
from repro.net.churn import ChurnModel, ChurnTimeline
from repro.net.faults import FaultPlan
from repro.net.transfer import DEFAULT_PAYLOAD_MB, tree_dissemination_time
from repro.net.workload import PublishEvent, PublishWorkload
from repro.overlay.base import OverlayNetwork
from repro.pubsub.api import PubSubSystem
from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.exceptions import ConfigurationError, PersistError

__all__ = ["NotificationRecord", "SimulationReport", "SimStats", "NotificationSimulator"]

RepairFn = Callable[[np.ndarray], None]


@dataclass(frozen=True)
class NotificationRecord:
    """Outcome of one published notification."""

    time: float
    publisher: int
    subscribers_online: int
    delivered: int
    relay_nodes: int
    latency_ms: float
    #: subscribers lost to injected link faults or silent queue overflow
    #: (0 without a fault plan / overload model).
    dropped: int = 0
    #: retransmissions spent on this notification's lossy hops.
    retries: int = 0
    #: subscribers shed by overload protection into the catch-up path.
    shed: int = 0

    @property
    def complete(self) -> bool:
        """True when every online subscriber received the notification."""
        return self.delivered == self.subscribers_online


@dataclass
class SimulationReport:
    """Aggregate of a full simulation run."""

    records: list[NotificationRecord] = field(default_factory=list)
    maintenance_ticks: int = 0
    #: per injected partition: time from the cut healing until the first
    #: fully delivered notification (graceful-degradation metric).
    partition_heal_times: list[float] = field(default_factory=list)
    #: missed notifications recovered by catch-up that count toward
    #: availability (subscriber was online at publish time).
    catchup_recovered: int = 0

    @property
    def notifications(self) -> int:
        return len(self.records)

    @property
    def availability(self) -> float:
        """Fraction of online subscribers reached, over all notifications."""
        wanted = sum(r.subscribers_online for r in self.records)
        got = sum(r.delivered for r in self.records)
        return got / wanted if wanted else 1.0

    @property
    def total_availability(self) -> float:
        """Availability including late catch-up deliveries.

        A notification counts once per online subscriber whether it
        arrived directly or through a later anti-entropy digest; the
        store deduplicates, so this can never exceed 1.0 (the ``min`` is
        belt-and-braces).
        """
        wanted = sum(r.subscribers_online for r in self.records)
        if not wanted:
            return 1.0
        got = sum(r.delivered for r in self.records) + self.catchup_recovered
        return min(1.0, got / wanted)

    @property
    def mean_latency_ms(self) -> float:
        values = [r.latency_ms for r in self.records if r.delivered]
        return float(np.mean(values)) if values else 0.0

    @property
    def mean_relays(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.relay_nodes for r in self.records]))

    @property
    def drops(self) -> int:
        """Total subscriber deliveries lost to injected link faults."""
        return sum(r.dropped for r in self.records)

    @property
    def shed(self) -> int:
        """Total subscriber deliveries shed by overload protection."""
        return sum(r.shed for r in self.records)

    @property
    def retries(self) -> int:
        """Total retransmissions spent across all notifications."""
        return sum(r.retries for r in self.records)

    @property
    def mean_partition_heal_time(self) -> float:
        """Average partition healing time (0.0 when none were injected)."""
        if not self.partition_heal_times:
            return 0.0
        return float(np.mean(self.partition_heal_times))


@dataclass
class SimStats(Stats):
    """Events one :class:`NotificationSimulator` processed (``sim.*``)."""

    publishes: int = stat("publish events disseminated by the simulator")
    maintenance_ticks: int = stat("maintenance ticks executed")


class NotificationSimulator:
    """Drives an overlay through a time window of posts and churn."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        workload: PublishWorkload,
        churn: "ChurnModel | None" = None,
        bandwidth: "BandwidthModel | None" = None,
        latency=None,
        repair: "RepairFn | None" = None,
        maintenance_period: float = 60.0,
        payload_mb: float = DEFAULT_PAYLOAD_MB,
        faults: "FaultPlan | None" = None,
        catchup=None,
        overload=None,
        registry=None,
        snapshot_every: "int | None" = None,
        snapshot_dir: "str | None" = None,
        resume_from=None,
    ):
        if maintenance_period <= 0:
            raise ConfigurationError(
                f"maintenance_period must be positive, got {maintenance_period}"
            )
        if payload_mb <= 0:
            raise ConfigurationError(f"payload_mb must be positive, got {payload_mb}")
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.overlay = overlay
        self.faults = faults
        #: optional :class:`~repro.core.stabilize.CatchUpStore`; wired into
        #: the pub/sub layer for deposits and drained at maintenance ticks.
        self.catchup = catchup
        #: optional :class:`~repro.scenarios.overload.OverloadGuard`; the
        #: pub/sub layer consults it per publish, and checkpoints carry
        #: its queue state so resumed runs stay bit-identical.
        self.overload = overload
        self.registry = registry if registry is not None else get_registry()
        self.pubsub = PubSubSystem(
            overlay,
            faults=faults,
            catchup=catchup,
            overload=overload,
            registry=self.registry,
        )
        self.workload = workload
        self.churn = churn
        self.bandwidth = bandwidth
        self.latency = latency
        self.repair = repair
        # A RecoveryManager bound method carries degradation counters the
        # report surfaces; plain callables simply report zero.
        self._repair_owner = getattr(repair, "__self__", None)
        #: that owner when it is a RecoveryManager: checkpoints carry its state.
        self._recovery = (
            self._repair_owner if hasattr(self._repair_owner, "false_evictions") else None
        )
        self.maintenance_period = maintenance_period
        self.payload_mb = payload_mb
        self._timeline: "ChurnTimeline | None" = None
        #: every this many maintenance ticks, capture a full checkpoint of
        #: the run (overlay + components + pending events). Checkpoints
        #: accumulate in :attr:`snapshots`; with ``snapshot_dir`` each is
        #: also written to ``<dir>/tick-<index>`` on disk. Requires a
        #: SELECT overlay (the persist layer serializes its gossip state).
        self.snapshot_every = snapshot_every
        self.snapshot_dir = snapshot_dir
        #: a snapshot dict (or a path to a saved snapshot directory) to
        #: resume from; :meth:`run` then continues the checkpointed run
        #: instead of starting at t=0, and the returned report is
        #: bit-identical to the uninterrupted run's.
        self.resume_from = resume_from
        #: snapshots captured by this simulator, in tick order.
        self.snapshots: list[dict] = []
        self._run_timer = self.registry.timer("sim.run")
        self.stats = SimStats()
        self.registry.attach("sim", self.stats)
        self._tick_index = 0
        self._horizon = 0.0
        self._events: list[PublishEvent] = []

    # -- main loop -----------------------------------------------------------

    def run(self, horizon: float) -> SimulationReport:
        """Simulate ``[0, horizon)`` seconds; returns the event log.

        With :attr:`resume_from` set, the run continues the checkpointed
        simulation from its snapshot instant instead of starting at t=0;
        the returned report is bit-identical to the uninterrupted run's
        (the horizon must match the original run's).
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self._horizon = float(horizon)
        if self.resume_from is not None:
            report, start = self._resume(horizon)
        else:
            if self.churn is not None:
                self._timeline = self.churn.schedules(horizon)
            self._events = self.workload.events_until(horizon)
            self._tick_index = 0
            report, start = SimulationReport(), 0.0
        # One clock: the publishes (a stable sort keeps simultaneous ones in
        # input order) merged with the maintenance instants, a publish before
        # a tick at the same instant. The ticks accumulate ``period`` as a
        # float sum whatever ``start`` is: ``k * period`` can land a late tick
        # one ulp away from where the uninterrupted run fired it.
        publishes = sorted(self._events, key=attrgetter("time"))
        with self._run_timer:
            done = 0
            tick = self.maintenance_period
            while tick < horizon:
                if tick > start:
                    while done < len(publishes) and publishes[done].time <= tick:
                        self._publish(publishes[done], report)
                        done += 1
                    self._maintain(tick, report)
                tick += self.maintenance_period
            for publish in publishes[done:]:
                self._publish(publish, report)
        if self.faults is not None:
            report.partition_heal_times = self._partition_heal_times(report, horizon)
        return report

    def _stabilizer_in_play(self):
        # The stabilizer embedded in the repair hook, if any: checkpoints
        # carry its state.
        return getattr(self._repair_owner, "stabilizer", None)

    # -- checkpoint / resume ----------------------------------------------------

    def _resume(self, horizon: float) -> "tuple[SimulationReport, float]":
        """Restore a checkpointed run; the report so far and its instant."""
        from repro.persist.snapshot import load, restore_into

        snapshot = self.resume_from
        if not isinstance(snapshot, dict):
            snapshot = load(str(snapshot))
        state = snapshot.get("state", {})
        sim = state.get("sim")
        if sim is None:
            raise PersistError(
                "cannot resume: snapshot carries no simulator state (it was "
                "captured outside a run; use snapshot_every= to checkpoint runs)"
            )
        if float(sim["horizon"]) != float(horizon):
            raise PersistError(
                f"cannot resume: snapshot belongs to a horizon={sim['horizon']} run, "
                f"resume asked for horizon={horizon}"
            )
        restore_into(
            snapshot,
            self.overlay,
            faults=self.faults,
            stabilizer=self._stabilizer_in_play(),
            recovery=self._recovery,
            catchup=self.catchup,
        )
        self._timeline = (
            None if sim["schedules"] is None else ChurnTimeline.from_peers(sim["schedules"])
        )
        self._events = [
            PublishEvent(time=float(t), publisher=int(p), message_id=int(m))
            for t, p, m in sim["events"]
        ]
        report = SimulationReport()
        report.records = [NotificationRecord(**r) for r in sim["records"]]
        report.maintenance_ticks = int(sim["maintenance_ticks"])
        report.catchup_recovered = int(sim["catchup_recovered"])
        self._tick_index = int(sim["tick_index"])
        if self.overload is not None and sim.get("overload") is not None:
            self.overload.restore_state(sim["overload"])
        return report, float(sim["time"])

    def _capture_checkpoint(self, now: float, report: SimulationReport) -> dict:
        from repro.persist.snapshot import capture, save

        sim = {
            "time": float(now),
            "tick_index": int(self._tick_index),
            "horizon": float(self._horizon),
            "maintenance_period": float(self.maintenance_period),
            "payload_mb": float(self.payload_mb),
            # Events strictly after `now` are exactly the unprocessed set:
            # an equal-time publish runs before the tick doing this capture.
            "events": [
                [float(e.time), int(e.publisher), int(e.message_id)]
                for e in self._events
                if e.time > now
            ],
            "schedules": (
                None
                if self._timeline is None
                else [[bounds.tolist(), init] for bounds, init in self._timeline.peers()]
            ),
            "records": [asdict(r) for r in report.records],
            "maintenance_ticks": int(report.maintenance_ticks),
            "catchup_recovered": int(report.catchup_recovered),
            "overload": None if self.overload is None else self.overload.state_dict(),
        }
        snap = capture(
            self.overlay,
            faults=self.faults,
            stabilizer=self._stabilizer_in_play(),
            recovery=self._recovery,
            catchup=self.catchup,
            sim=sim,
        )
        self.snapshots.append(snap)
        if self.snapshot_dir is not None:
            save(snap, os.path.join(self.snapshot_dir, f"tick-{self._tick_index:05d}"))
        return snap

    def _partition_heal_times(self, report: SimulationReport, horizon: float) -> list[float]:
        """Healing delay per injected partition that ends inside the run.

        A partition counts as healed at the first notification after its
        end that reached every online subscriber; an unhealed partition is
        charged the remaining horizon.
        """
        heal_times = []
        for partition in self.faults.partitions:
            if not (0.0 <= partition.end < horizon):
                continue
            healed_at = next(
                (
                    r.time
                    for r in report.records
                    if r.time >= partition.end and r.complete and r.subscribers_online > 0
                ),
                horizon,
            )
            heal_times.append(healed_at - partition.end)
        return heal_times

    def _maintain(self, now: float, report: SimulationReport) -> None:
        online = None if self._timeline is None else self._timeline.online_at(now)
        if self.repair is not None and online is not None:
            if self._repair_owner is not None and hasattr(self._repair_owner, "now"):
                # Hand the clock to the RecoveryManager so an embedded
                # stabilizer sees the right partition windows.
                self._repair_owner.now = now
            self.repair(online)
        if self.catchup is not None:
            report.catchup_recovered += self.catchup.deliver(online, time=now)
        report.maintenance_ticks += 1
        self.stats.maintenance_ticks += 1
        self._tick_index += 1
        if self.snapshot_every is not None and self._tick_index % self.snapshot_every == 0:
            self._capture_checkpoint(now, report)

    def _publish(self, publish: PublishEvent, report: SimulationReport) -> None:
        online = None if self._timeline is None else self._timeline.online_at(publish.time)
        if online is not None and not online[publish.publisher]:
            return  # offline users do not post
        result = self.pubsub.publish(publish.publisher, online=online, time=publish.time)
        latency_ms = 0.0
        if self.bandwidth is not None and self.latency is not None and result.delivered:
            latency_ms = tree_dissemination_time(
                result.tree.children_map(),
                result.publisher,
                self.bandwidth,
                self.latency,
                size_mb=self.payload_mb,
            )
        report.records.append(
            NotificationRecord(
                time=publish.time,
                publisher=publish.publisher,
                subscribers_online=len(result.subscribers),
                delivered=len(result.delivered),
                relay_nodes=len(result.relay_nodes),
                latency_ms=latency_ms,
                dropped=result.dropped,
                retries=result.retries,
                shed=result.shed,
            )
        )
        self.stats.publishes += 1
