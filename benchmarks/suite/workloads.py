"""The four workloads: build, publish (calm / churn) and live.

Each takes a :class:`Run` and ends in :func:`harness.emit`. The untraced
path uses only names exported by ``repro``, ``repro.live``,
``repro.net.*`` and ``repro.sim.runner`` and ``SelectConfig(max_rounds=)``,
the surface ROADMAP item 1 keeps; it runs under the default
``NullRegistry`` with no tracer.

Every workload reports every end-to-end metric, as the driver's contract
requires: the Fig. 2 / 3 / 5 / 6 counts are read off the workload's own
overlay. The timings are per-layer metrics (README, "Bounds"), each
measured on the one workload that repeats its stage.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass

# Module-level functions that are trace points (load_dataset, the snapshot
# verbs) are called as ``repro.<name>``: the tracer rebinds them in repro's
# namespaces, and a ``from repro import`` copy here would keep the original.
import repro
from repro import (
    CatchUpStore,
    FaultPlan,
    PingService,
    RecoveryManager,
    SelectConfig,
    SelectOverlay,
    Stabilizer,
    check_overlay,
)
from repro.live import LiveCluster, LiveConfig, LiveScenario, PeerNode
from repro.net.churn import ChurnModel
from repro.net.workload import PublishWorkload
from repro.sim.runner import NotificationSimulator

from harness import (
    FIXTURE_SEED,
    OUT_DIR,
    emit,
    friend_hops_mean,
    friend_pairs,
    gate,
    digest_of,
    median_seconds,
    overlay_digest,
    peak_rss_mib,
    percentile,
    run_units,
    span,
    stream_seed,
    timed_setup,
)
from tracing import UNIT_SPAN, layer_metrics

#: round cap of every benchmark build; a build that reaches it was stopped,
#: it did not converge, and the run fails.
MAX_ROUNDS = 200
CALM_HORIZON = 100.0
CHURN_HORIZON = 120.0
CHURN_PERIOD = 24.0
#: horizon of the publish pass that closes ``build_2k`` (relays and
#: availability of the built overlay: 381 publishes, a third of a second).
PASS_HORIZON = 20.0
LIVE_INTERVAL = 0.02
LIVE_SETTLE = 4.0
CPU_WINDOW_S = 2.0
LAG_TICK_S = 0.01

#: node counts and unit counts per workload. The unit counts are the
#: ISSUE's floors: at this box's speed they fill the driver's time cap
#: (README, "The time cap").
FULL = {
    "build": 2000, "calm": 2000, "churn": 1000, "live": 64,
    "build_units": 5, "calm_units": 12, "churn_units": 5, "cheap_setups": 5,
}  # fmt: skip
#: same code paths at tiny sizes (the suite driver's ``--smoke``).
SMOKE = {
    "build": 300, "calm": 300, "churn": 300, "live": 24,
    "build_units": 2, "calm_units": 2, "churn_units": 2, "cheap_setups": 2,
}  # fmt: skip
#: on the traced ``build_2k`` run: fewer builds, then the snapshot round trips.
TRACED_BUILD_UNITS = 3
TRIPS = 3


@dataclass
class Run:
    """One invocation: the contract's arguments plus what they select."""

    spec: dict
    seed: int
    seconds: float
    tracer: object  # tracing.Tracer on the traced run, else None
    sizes: dict
    #: ``--seconds`` after the workload began: ``run_units``'s deadline.
    deadline: float = 0.0

    def __post_init__(self):
        self.deadline = time.perf_counter() + self.seconds

    def begin(self, unit: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_unit(unit)

    def finish(self, values, timings, extras, *, detail, live_pairs=0, **result) -> None:
        """Emit the end-to-end metrics, or on the traced run the per-layer ones.

        ``timings`` are the workload's stopwatch readings: per-layer
        metrics, so the result line has them on the traced run only; the
        untraced run, which measures them without the tracer's overhead,
        records them in its ``detail`` line.
        """
        detail = dict(detail, timings=timings)
        if self.tracer is None:
            emit(self.spec, False, values, detail=detail, **result)
            return
        layers = layer_metrics(self.tracer, dict(extras, **timings), live_pairs)
        emit(self.spec, True, layers, detail=dict(detail, end_to_end=values), **result)


def _build(graph):
    return SelectOverlay(graph, config=SelectConfig(max_rounds=MAX_ROUNDS)).build(FIXTURE_SEED)


def _check_built(overlay) -> str:
    gate(
        overlay.iterations < MAX_ROUNDS,
        f"build stopped at the {MAX_ROUNDS}-round cap: it did not converge",
    )
    report = check_overlay(overlay)
    gate(report.ok, f"doctor found violations on the built overlay: {report}")
    return overlay_digest(overlay)


def _records_digest(report) -> str:
    return digest_of(
        [dataclasses.astuple(r) for r in report.records],
        report.maintenance_ticks,
        report.catchup_recovered,
    )


def _ack_ms(samples, q: float) -> float:
    return percentile(samples, q) * 1e3


# -- build_2k ----------------------------------------------------------------


def build_2k(run: Run) -> None:
    n = run.sizes["build"]
    tracer = run.tracer
    setup_s, graph = timed_setup(
        lambda: repro.load_dataset("facebook", num_nodes=n, seed=FIXTURE_SEED),
        run.sizes["cheap_setups"],
        tracer,
    )

    builds = run_units(
        lambda _: _build(graph),
        _check_built,
        TRACED_BUILD_UNITS if tracer is not None else run.sizes["build_units"],
        run.deadline,
        tracer=tracer,
        label="build",
    )
    rss = peak_rss_mib()
    overlay = builds[-1].result

    # Fig. 2, 3 and 6 of the overlay just built: the contract wants every
    # end-to-end metric on every workload.
    run.begin("tail")
    pairs = friend_pairs(graph, run.seed)
    hops = friend_hops_mean(overlay, pairs)
    publish = PublishWorkload(n, mean_rate=0.01, seed=FIXTURE_SEED)
    served = NotificationSimulator(overlay, publish).run(PASS_HORIZON)
    gate(served.availability == 1.0, f"calm availability {served.availability!r} != 1.0")

    timings = {"build_converge_s": median_seconds(builds)}
    trips, extras = [], {}
    if tracer is not None:
        # The snapshot round trips cost two builds' time: they fit the
        # traced run, which times fewer builds, and its four spans a trip
        # add no overhead worth the name.
        built = builds[-1].digest
        path = os.path.join(OUT_DIR, f"tmp-{os.getpid()}", "snapshot")

        def trip(_):
            repro.save_snapshot(repro.capture_snapshot(overlay), path)
            return repro.restore_snapshot(repro.load_snapshot(path))

        def check_trip(restored) -> str:
            digest = overlay_digest(restored)
            gate(digest == built, "restored overlay's identifiers / long links differ")
            return digest

        try:
            trips = run_units(trip, check_trip, TRIPS, run.deadline, tracer=tracer, label="trip")
            snapshot_bytes = sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
        finally:
            shutil.rmtree(os.path.dirname(path), ignore_errors=True)
        timings["snapshot_roundtrip_s"] = median_seconds(trips)
        extras = {
            "core.rounds": overlay.iterations,
            "core.round_ms": median_seconds(builds) / overlay.iterations * 1e3,
            "persist.bytes": snapshot_bytes,
            "persist.peak_rss_mib": peak_rss_mib(),
        }

    values = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "build_rounds": overlay.iterations,
        "friend_hops_mean": hops,
        "relays_per_publish": served.mean_relays,
        "availability": served.availability,
    }
    run.finish(
        values,
        timings,
        extras,
        detail={
            "state_digest": builds[-1].digest,
            "units": len(builds),
            "unit_seconds": [u.seconds for u in builds],
            "trips": len(trips),
            "nodes": n,
        },
        attempted=len(builds) + len(pairs) + len(trips),
        failed=0,
    )


# -- publish_calm_2k / publish_churn_1k --------------------------------------


def _publish(run: Run, churn: bool) -> None:
    n = run.sizes["churn" if churn else "calm"]
    tracer = run.tracer
    horizon = CHURN_HORIZON if churn else CALM_HORIZON

    def setup():
        graph = repro.load_dataset("facebook", num_nodes=n, seed=FIXTURE_SEED)
        overlay = _build(graph)
        return graph, overlay, overlay.snapshot() if churn else None

    setup_s, (graph, overlay, start) = timed_setup(setup, 1, tracer)
    _check_built(overlay)

    def prepare():
        publish = PublishWorkload(n, mean_rate=0.01, seed=FIXTURE_SEED)
        if not churn:
            sim, plan, recovery, catchup = NotificationSimulator(overlay, publish), None, None, None
        else:
            overlay.restore_snapshot(start)
            plan = FaultPlan(loss_rate=0.02, seed=stream_seed(run.seed, "loss"))
            pings = PingService(plan)
            recovery = RecoveryManager(overlay, pings, stabilizer=Stabilizer(overlay, pings))
            catchup = CatchUpStore(overlay, faults=plan)
            sim = NotificationSimulator(
                overlay,
                publish,
                churn=ChurnModel(n, seed=FIXTURE_SEED),
                faults=plan,
                repair=recovery.tick,
                catchup=catchup,
                maintenance_period=CHURN_PERIOD,
            )
        return sim, plan, recovery, catchup

    def body(context):
        sim, catchup = context[0], context[3]
        report = sim.run(horizon)
        # What a lossy hop parked after the last maintenance tick is handed
        # over when its subscriber next polls: one closing pass with every
        # peer reachable, so that only a copy the store lost counts as failed.
        closing = catchup.deliver(time=horizon) if churn else 0
        return report, closing, context

    def check(result) -> str:
        report, closing, _ = result
        gate(report.notifications > 0, "the simulator published nothing")
        if churn:
            ticks = math.ceil(horizon / CHURN_PERIOD) - 1
            gate(report.maintenance_ticks == ticks, f"{report.maintenance_ticks} ticks != {ticks}")
        else:
            gate(report.availability == 1.0, f"calm availability {report.availability!r} != 1.0")
        return digest_of(_records_digest(report), closing)

    units = run_units(
        body,
        check,
        run.sizes["churn_units" if churn else "calm_units"],
        run.deadline,
        prepare=prepare,
        tracer=tracer,
    )
    rss = peak_rss_mib()
    report, closing, (_, plan, recovery, catchup) = units[-1].result
    wanted = sum(r.subscribers_online for r in report.records)
    reached = sum(r.delivered for r in report.records) + report.catchup_recovered + closing

    run.begin("tail")
    if churn:
        overlay.restore_snapshot(start)
    pairs = friend_pairs(graph, run.seed)
    hops = friend_hops_mean(overlay, pairs)

    extras = {
        "core.rounds": overlay.iterations,
        "sim.events": report.notifications + report.maintenance_ticks,
    }
    if churn:
        extras.update(
            {
                "net.faults.retries": plan.stats.retransmissions,
                "net.faults.drops": plan.stats.drops,
                "core.recovery.replacements": recovery.replacements,
                "core.recovery.failed_replacements": recovery.failed_replacements,
                "core.recovery.kept": recovery.kept_unresponsive,
                "core.stabilize.recovered": catchup.stats.recovered,
                "core.stabilize.evictions": catchup.stats.evictions,
            }
        )
    values = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "build_rounds": overlay.iterations,
        "friend_hops_mean": hops,
        "relays_per_publish": report.mean_relays,
        "availability": report.availability,
    }
    run.finish(
        values,
        {"publish_per_s": report.notifications / median_seconds(units)},
        extras,
        detail={
            "state_digest": units[-1].digest,
            "units": len(units),
            "unit_seconds": [u.seconds for u in units],
            "notifications": report.notifications,
            "pairs": wanted,
            "closing_handovers": closing,
            "nodes": n,
        },
        attempted=wanted * len(units),
        failed=(wanted - min(wanted, reached)) * len(units),
    )


def publish_calm_2k(run: Run) -> None:
    _publish(run, churn=False)


def publish_churn_1k(run: Run) -> None:
    _publish(run, churn=True)


# -- live_calm_64 ------------------------------------------------------------


async def _drive(cluster, shares: list, lags: "list | None") -> dict:
    """``cluster.run()`` beside the harness's CPU sampler and lag ticker."""

    async def sample_cpu():
        wall, cpu = time.perf_counter(), time.process_time()
        while True:
            await asyncio.sleep(CPU_WINDOW_S)
            now_wall, now_cpu = time.perf_counter(), time.process_time()
            shares.append((now_cpu - cpu) / (now_wall - wall))
            wall, cpu = now_wall, now_cpu

    async def tick():
        while True:
            t0 = time.perf_counter()
            await asyncio.sleep(LAG_TICK_S)
            lags.append((time.perf_counter() - t0 - LAG_TICK_S) * 1e3)

    tasks = [asyncio.create_task(sample_cpu())]
    if lags is not None:
        tasks.append(asyncio.create_task(tick()))
    try:
        return await cluster.run()
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


def live_calm_64(run: Run) -> None:
    n = run.sizes["live"]
    tracer = run.tracer
    scenario = LiveScenario(
        name="bench_calm",
        description="benchmark",
        duration=float(run.seconds),
        settle=LIVE_SETTLE,
        publish_interval=LIVE_INTERVAL,
    )
    # LiveCluster takes one seed for graph, overlay, transport weather and
    # publisher script; all of it is fixture here (p95 ran 13.5-18.1 ms over
    # four cluster seeds), so what varies run to run is the real scheduling.
    setup_s, cluster = timed_setup(
        lambda: LiveCluster(num_nodes=n, scenario=scenario, seed=FIXTURE_SEED, config=LiveConfig()),
        run.sizes["cheap_setups"],
        tracer,
    )
    run.begin("tail")  # untimed, like the stages that close the other workloads
    rounds = cluster.overlay.iterations
    pairs = friend_pairs(cluster.graph, run.seed)
    hops = friend_hops_mean(cluster.overlay, pairs)

    # The one harness stopwatch of the untraced run: publisher-side call to
    # end-to-end ack. A publish that raises (shed) leaves no sample.
    acks: list[tuple] = []
    publish_along = PeerNode.publish_along

    async def timed(self, path, seq, publisher, trace=None):
        t0 = time.perf_counter()
        await publish_along(self, path, seq, publisher, trace=trace)
        done = time.perf_counter()
        acks.append((done - t0, seq, publisher, path, done))

    shares: list[float] = []
    lags = [] if tracer is not None else None
    run.begin("unit#0")
    PeerNode.publish_along = timed
    try:
        with span(tracer, UNIT_SPAN):
            cpu0, t0 = time.process_time(), time.perf_counter()
            result = asyncio.run(_drive(cluster, shares, lags))
            seconds, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        PeerNode.publish_along = publish_along
    rss = peak_rss_mib()

    intended, acked = result["intended_pairs"], result["delivered_live"]
    gate(result["unaccounted"] == 0, f"{result['unaccounted']} intended pairs unaccounted")
    gate(result["membership_converged"], "membership did not converge")
    gate(result["doctor_ok"], "doctor found violations after the live run")
    gate(acked == len(acks) > 0, f"{acked} pairs acked live, {len(acks)} stopwatch samples")

    ack_s = [a[0] for a in acks]
    # Like the CPU share, latency is the median 2-s window's: a slow phase
    # of the machine that lasts less than half the run leaves it alone.
    windows: dict[int, list] = {}
    for ack in acks:
        windows.setdefault(int((ack[4] - t0) / CPU_WINDOW_S), []).append(ack[0])
    full = [w for i, w in sorted(windows.items()) if 0 < i < int(scenario.duration / CPU_WINDOW_S)]
    full = full or [ack_s]
    relays: dict[int, set] = {}
    ends: dict[int, set] = {}
    for _, seq, publisher, path, _ in acks:
        relays.setdefault(seq, set()).update(path[1:-1])
        ends.setdefault(seq, {publisher}).add(path[-1])
    publishes = len({seq for seq, _, _ in cluster.intended})
    rate_ratio = publishes / (scenario.duration / scenario.publish_interval)
    # The first window holds the membership warm-up; a run shorter than a
    # window (tests) has the whole run's share.
    share = statistics.median(shares[1:] or shares or [cpu_s / seconds])

    extras = {}
    if tracer is not None:
        tracer.stopwatch["unit#0"] = seconds
        extras = {
            "core.rounds": rounds,
            "live.ack_ms_p99": _ack_ms(ack_s, 99),
            "live.ack_ms_max": max(ack_s) * 1e3,
            "live.loop_lag_ms_p50": percentile(lags, 50),
            "live.loop_lag_ms_p99": percentile(lags, 99),
            "live.generator_rate_ratio": rate_ratio,
            "live.cpu_ms_per_pair": cpu_s * 1e3 / acked,
        }
    values = {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "build_rounds": rounds,
        "friend_hops_mean": hops,
        "relays_per_publish": sum(len(relays[s] - ends[s]) for s in relays) / len(relays),
        "availability": acked / intended,
    }
    timings = {
        "live_ack_ms_p50": statistics.median(_ack_ms(w, 50) for w in full),
        "live_ack_ms_p95": statistics.median(_ack_ms(w, 95) for w in full),
        "live_cpu_share": share,
    }
    run.finish(
        values,
        timings,
        extras,
        detail={
            # Wall-clock scheduling decides how many publishes fit the
            # window, so a live run has no state digest to repeat.
            "state_digest": None,
            "units": 1,
            "unit_seconds": [seconds],
            "publishes": publishes,
            "generator_rate_ratio": rate_ratio,
            "pooled_ack_ms": [_ack_ms(ack_s, 50), _ack_ms(ack_s, 95)],
            "window_shares": shares,
            "window_p50": [_ack_ms(w, 50) for w in full],
            "window_p95": [_ack_ms(w, 95) for w in full],
            "shed_pairs": result["shed_pairs"],
            "nodes": n,
        },
        live_pairs=acked,
        attempted=intended,
        failed=intended - acked,
    )


WORKLOADS = {
    "build_2k": build_2k,
    "publish_calm_2k": publish_calm_2k,
    "publish_churn_1k": publish_churn_1k,
    "live_calm_64": live_calm_64,
}
