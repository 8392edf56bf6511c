"""The live cluster harness: hundreds of asyncio nodes over one overlay.

:class:`LiveCluster` promotes the simulator's lock-step world into real
concurrency: it builds the same social graph and SELECT overlay a
scenario run would, then boots one :class:`~repro.live.node.PeerNode`
per participant on a :class:`~repro.live.transport.LoopbackTransport`
whose loss/partition model is a :class:`~repro.net.faults.FaultPlan`,
supervised by a :class:`~repro.live.supervisor.NodeSupervisor`.

One :meth:`run` executes a scripted :class:`~repro.live.scenarios.LiveScenario`:

* a **publish loop** picks seeded publishers and pushes notifications
  along overlay routes through the request layer (per-attempt timeout,
  bounded backoff retries); a publish that exhausts its budget is *shed*
  to the PR 2 :class:`~repro.core.stabilize.CatchUpStore` instead of
  being lost;
* a **maintenance loop** runs the existing repair path
  (:class:`~repro.core.stabilize.Stabilizer` rounds gated by SWIM's
  verdicts — a member the cluster majority confirmed DEAD is treated as
  offline by repair even while its host is merely slow) and drains the
  catch-up store by anti-entropy;
* the **scenario script** crashes a seeded fraction of nodes and opens
  ring partitions on the shared wall clock.

The run ends with a settle phase that waits for *membership
reconvergence* (every running node's non-DEAD set equals the truth-alive
set) and reports eventual delivery accounting: every intended
``(notification, subscriber)`` pair is classified as delivered live,
recovered by catch-up, still pending in a buffer, lost to buffer
eviction, or void because its subscriber died — nothing is silently
dropped.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import numpy as np

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.core.stabilize import CatchUpStore, Stabilizer
from repro.graphs.datasets import load_dataset
from repro.live.config import LiveConfig
from repro.live.node import PeerNode
from repro.live.recorder import FlightRecorder, dump_flight_recorders
from repro.live.scenarios import LiveScenario, get_live_scenario
from repro.live.supervisor import NodeSupervisor
from repro.live.transport import LoopbackTransport
from repro.net.faults import FaultPlan, PingService
from repro.overlay.doctor import check_overlay
from repro.scenarios.slo import LIVE_TRACE_SLO, _nearest_rank, evaluate_live_trace
from repro.telemetry.registry import HOP_BUCKETS, get_registry
from repro.telemetry.tracer import TraceContext, Tracer, summarize
from repro.util.exceptions import TransientError
from repro.util.rng import RngStream

__all__ = ["LiveCluster"]


def _distribution(values) -> dict:
    """Count, nearest-rank p50 / p99 and maximum of ``values`` (zeros when empty)."""
    values = [float(v) for v in values]
    return {
        "count": len(values),
        "p50": _nearest_rank(values, 0.5),
        "p99": _nearest_rank(values, 0.99),
        "max": max(values, default=0.0),
    }


class LiveCluster:
    """Boot, script, and account for one live run."""

    def __init__(
        self,
        num_nodes: int = 100,
        scenario: "LiveScenario | str" = "calm",
        seed: int = 2018,
        config: "LiveConfig | None" = None,
        registry=None,
        trace: bool = False,
        flight_path: "str | None" = None,
    ):
        if isinstance(scenario, str):
            scenario = get_live_scenario(scenario)
        self.scenario = scenario
        self.config = config if config is not None else LiveConfig()
        self.seed = int(seed)
        self.registry = registry if registry is not None else get_registry()
        stream = RngStream(seed)

        def child_seed(label: str) -> int:
            return int(stream.child(f"live:{scenario.name}:{label}").integers(2**31 - 1))

        self.graph = load_dataset(
            "facebook",
            num_nodes=num_nodes,
            seed=stream.child(f"live:{scenario.name}:graph:facebook:{num_nodes}"),
        )
        self.overlay = SelectOverlay(self.graph, config=SelectConfig()).build(
            seed=child_seed("overlay")
        )
        self.n = self.graph.num_nodes

        self.faults = FaultPlan(
            loss_rate=scenario.loss_rate,
            partitions=() if scenario.partition is None else (scenario.partition,),
            seed=child_seed("faults"),
            registry=self.registry,
        )
        self.transport = LoopbackTransport(
            ids=self.overlay.ids,
            faults=self.faults,
            seed=child_seed("transport"),
            registry=self.registry,
        )
        self.transport.configure_delay(self.config.delay_mean, self.config.delay_jitter)
        self.supervisor = NodeSupervisor(
            config=self.config, seed=child_seed("supervisor"), registry=self.registry
        )

        # -- observability plane (opt-in; None/{} = the PR 7 zero-overhead
        # path: no spans, no recorders, no extra instruments registered).
        self.flight_path = flight_path
        self.tracer: "Tracer | None" = None
        self.recorders: "dict[int, FlightRecorder]" = {}
        #: supervisor incidents (crash/restart/gave_up/kill), chronologically.
        self.incidents: "list[dict]" = []
        self._flight_dirty = False
        #: intended pair -> span id its terminal must parent to (the shed
        #: span once the pair degraded; the publish root otherwise).
        self._trace_anchor: "dict[tuple[int, int], int]" = {}
        #: intended pairs whose causal chain has no terminal yet.
        self._trace_open: "set[tuple[int, int]]" = set()
        if trace:
            self.tracer = Tracer(clock=self.transport.now)
            self.transport.tracer = self.tracer
            self.recorders = {
                v: FlightRecorder(v, clock=self.transport.now) for v in range(self.n)
            }
            self.supervisor.on_incident = self._incident
            self._h_trace_latency = self.registry.histogram(
                "live.trace_latency_ms",
                (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0),
                "publish root to terminal latency per causal chain (ms)",
            )
            self._h_trace_hops = self.registry.histogram(
                "live.trace_hops",
                HOP_BUCKETS,
                "relay hops of chains that terminated delivered",
            )
        self.nodes: "dict[int, PeerNode]" = {
            v: PeerNode(
                v,
                self.transport,
                range(self.n),
                config=self.config,
                seed=child_seed(f"node:{v}"),
                registry=self.registry,
                tracer=self.tracer,
                recorder=self.recorders.get(v),
            )
            for v in range(self.n)
        }
        for node in self.nodes.values():
            node.truth_alive = self.transport.is_registered

        # The repair path the SWIM verdicts feed (PR 4/5 machinery reused
        # verbatim): stabilization through the noisy ping service, plus
        # store-and-forward catch-up for shed notifications.
        self.pings = PingService(self.faults, registry=self.registry)
        self.stabilizer = Stabilizer(self.overlay, self.pings, registry=self.registry)
        self.catchup = CatchUpStore(self.overlay, faults=self.faults, registry=self.registry)
        self.router = self.overlay.make_router()

        self._rng = stream.child(f"live:{scenario.name}:script")
        #: every intended (notify_seq, subscriber) pair, with publish metadata.
        self.intended: "list[tuple[int, int, int]]" = []  # (seq, publisher, subscriber)
        #: pairs delivered live (publisher got the end-to-end ack).
        self.acked: "set[tuple[int, int]]" = set()
        #: pairs shed to catch-up after the retry budget (accounted, not lost).
        self.shed_pairs: "set[tuple[int, int]]" = set()
        self.convergence_s: "float | None" = None
        self._g_convergence = self.registry.gauge(
            "live.convergence_s", "seconds from last injected fault to membership convergence"
        )
        self._g_eventual = self.registry.gauge(
            "live.eventual_delivery_ratio", "delivered+recovered over intended pairs"
        )

    # -- truth and belief ------------------------------------------------------

    def truth_alive(self, v: int) -> bool:
        """Actual liveness: the node is registered on the fabric."""
        return self.transport.is_registered(v)

    def truth_online(self) -> np.ndarray:
        return np.array([self.truth_alive(v) for v in range(self.n)], dtype=bool)

    def majority_dead(self) -> "set[int]":
        """Members a majority of running nodes have confirmed DEAD."""
        running = [v for v in range(self.n) if self.truth_alive(v)]
        if not running:
            return set()
        counts: "dict[int, int]" = {}
        for v in running:
            for m in self.nodes[v].view.dead_members():
                counts[m] = counts.get(m, 0) + 1
        quorum = len(running) // 2 + 1
        return {m for m, c in counts.items() if c >= quorum}

    def membership_converged(self) -> bool:
        """Every running node's non-DEAD set equals the truth-alive set."""
        truth = frozenset(v for v in range(self.n) if self.truth_alive(v))
        for v in truth:
            if frozenset(self.nodes[v].view.alive_members()) != truth:
                return False
        return True

    # -- observability plane -----------------------------------------------------

    def _incident(self, node_id: int, kind: str, detail: dict) -> None:
        """Supervisor incident tap: flight-recorder entry + dump trigger."""
        recorder = self.recorders.get(node_id)
        if recorder is not None:
            recorder.record("incident", incident=kind, **detail)
        self.incidents.append(
            {
                "t": round(self.transport.now(), 6),
                "node": int(node_id),
                "kind": str(kind),
                **detail,
            }
        )
        if kind in ("crash", "gave_up"):
            # Crash/eviction evidence is exactly what must survive the
            # run; the maintenance loop persists the rings off hot path.
            self._flight_dirty = True

    def dump_flight(self, reason: str, path: "str | None" = None) -> "str | None":
        """Persist every node's flight-recorder ring (atomic replace)."""
        path = path if path is not None else self.flight_path
        if path is None or not self.recorders:
            return None
        return dump_flight_recorders(
            path,
            self.recorders,
            incidents=self.incidents,
            meta={
                "reason": str(reason),
                "scenario": self.scenario.name,
                "seed": self.seed,
                "num_nodes": self.n,
                "t": round(self.transport.now(), 6),
            },
        )

    # -- the run ---------------------------------------------------------------

    async def run(self) -> dict:
        """Execute the scenario; returns the accounting/verdict dict."""
        sc = self.scenario
        self.transport.start_clock()
        for node in self.nodes.values():
            self.supervisor.supervise(node)
        maintenance = asyncio.create_task(self._maintenance_loop())
        try:
            await asyncio.sleep(0.3)  # membership warm-up
            script = asyncio.create_task(self._script_loop())
            await self._publish_loop(sc.duration)
            await script
            await self._settle(sc.settle)
        finally:
            maintenance.cancel()
            try:
                await maintenance
            except asyncio.CancelledError:
                pass
        result = self._account()
        if self.tracer is not None and self.incidents:
            # Final authoritative dump: the mid-run crash dumps are
            # best-effort snapshots, this one has the complete rings.
            self.dump_flight("end_of_run")
        await self.supervisor.shutdown()
        return result

    async def _script_loop(self) -> None:
        """Inject the scenario's scripted crashes at their instants."""
        sc = self.scenario
        if sc.crash_fraction <= 0.0:
            return
        delay = sc.crash_at - self.transport.now()
        if delay > 0:
            await asyncio.sleep(delay)
        count = int(round(sc.crash_fraction * self.n))
        victims = self._rng.choice(self.n, size=count, replace=False)
        for v in victims:
            self.supervisor.kill(int(v))

    async def _publish_loop(self, duration: float) -> None:
        sc = self.scenario
        deadline = self.transport.now() + duration
        inflight: "set[asyncio.Task]" = set()
        while self.transport.now() < deadline:
            publisher = int(self._rng.integers(self.n))
            if self.truth_alive(publisher):
                task = asyncio.create_task(self._publish_once(publisher))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
            await asyncio.sleep(sc.publish_interval)
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)

    async def _publish_once(self, publisher: int) -> None:
        """One publish: route to every interested friend, shed what fails."""
        node = self.nodes[publisher]
        if not node.running:
            return
        friends = [int(f) for f in self.graph.neighbors(publisher)]
        if not friends:
            return
        seq = self.catchup.new_notification()
        now = self.transport.now()
        truth = self.truth_online()
        believed = np.zeros(self.n, dtype=bool)
        for m in node.view.alive_members():
            believed[m] = True
        tracer = self.tracer
        sends = []
        for s in friends:
            if not truth[s]:
                # Offline friend: catch-up delivers it as a bonus later,
                # exactly like the simulator's counted=False deposits.
                self.catchup.deposit(seq, publisher, s, False, truth, now)
                continue
            self.intended.append((seq, publisher, s))
            root = None
            if tracer is not None:
                # One causal chain per intended pair, rooted here: the
                # trace id ties every downstream span back to this
                # publish decision.
                trace_id = f"{seq}:{s}"
                root = tracer.event(trace_id, "publish", publisher, sub=int(s))
                self._trace_anchor[(seq, s)] = root
                self._trace_open.add((seq, s))
            if not node.view.is_alive(s):
                # Membership already evicted the subscriber (it may be a
                # false eviction): degrade straight to catch-up.
                self._shed(seq, publisher, s, root, "peer_unreachable", truth, now)
                continue
            route = self.router.route(publisher, s, online=believed)
            path = route.path if route.delivered else [publisher, s]
            sends.append((s, path, root))

        async def deliver(sub: int, path: "list[int]", root: "int | None") -> None:
            ctx = (
                TraceContext(f"{seq}:{sub}", parent=root, hop=0)
                if tracer is not None
                else None
            )
            try:
                await node.publish_along(path, seq, publisher, trace=ctx)
                self.acked.add((seq, sub))
            except TransientError as exc:
                # Retry budget spent (relay crash, partition, loss storm):
                # degrade, don't drop — park it for anti-entropy.
                self._shed(
                    seq,
                    publisher,
                    sub,
                    root,
                    type(exc).__name__,
                    self.truth_online(),
                    self.transport.now(),
                )

        if sends:
            await asyncio.gather(*(deliver(s, path, root) for s, path, root in sends))

    def _shed(
        self,
        seq: int,
        publisher: int,
        sub: int,
        root: "int | None",
        reason: str,
        truth: np.ndarray,
        now: float,
    ) -> None:
        """Degrade one intended pair to catch-up, and say so in its chain."""
        self.shed_pairs.add((seq, sub))
        self.catchup.deposit(seq, publisher, sub, True, truth, now)
        if self.tracer is not None:
            # The recovery terminal will parent to this shed span, keeping
            # the degradation visible inside the chain.
            self._trace_anchor[(seq, sub)] = self.tracer.event(
                f"{seq}:{sub}", "shed", publisher, parent=root, status=reason
            )
        if publisher in self.recorders:
            self.recorders[publisher].record(
                "shed", seq=int(seq), sub=int(sub), reason=reason
            )

    async def _maintenance_loop(self) -> None:
        """Repair + anti-entropy on a steady cadence, SWIM-gated."""
        while True:
            await asyncio.sleep(0.25)
            now = self.transport.now()
            truth = self.truth_online()
            # SWIM feeds repair: members the cluster majority confirmed
            # DEAD are treated as offline even if their host still runs.
            repair_online = truth.copy()
            for m in self.majority_dead():
                repair_online[m] = False
            if int(repair_online.sum()) >= 2:
                self.stabilizer.round(repair_online, time=now)
            self.catchup.deliver(truth, time=now)
            # Catch-up handover counts as delivery at the subscriber node
            # too, so the node-level dedup set stays authoritative.
            for sub, seen in self.catchup._seen.items():
                node = self.nodes[sub]
                if node.running:
                    node.delivered |= seen
            if self.tracer is not None:
                self._trace_recoveries(truth)
                if self._flight_dirty:
                    self._flight_dirty = False
                    self.dump_flight("crash")

    def _pair_state(self, seq: int, sub: int, truth: np.ndarray) -> str:
        """Where an intended pair stands, as a ``tracer.TERMINAL_NAMES`` word."""
        if (seq, sub) in self.acked:
            return "delivered"
        if seq in self.catchup._seen.get(sub, ()) or seq in self.nodes[sub].delivered:
            # Handed over by catch-up, or accepted at the subscriber with
            # the ack lost on its way back to the publisher.
            return "recovered"
        return "pending" if truth[sub] else "dead_subscriber"

    def _trace_recoveries(self, truth: np.ndarray) -> None:
        """Close chains the anti-entropy pass just recovered."""
        for pair in list(self._trace_open):
            seq, sub = pair
            trace_id = f"{seq}:{sub}"
            if not self.tracer.has_terminal(trace_id):
                if self._pair_state(seq, sub, truth) != "recovered":
                    continue
                self.tracer.event(
                    trace_id,
                    "recovered",
                    sub,
                    parent=self._trace_anchor.get(pair),
                    terminal=True,
                )
            self._trace_open.discard(pair)

    async def _settle(self, budget: float) -> None:
        """Wait (bounded) for membership convergence + catch-up drain."""
        fault_clear = max(
            self.scenario.crash_at if self.scenario.crash_fraction > 0 else 0.0,
            self.scenario.partition.end if self.scenario.partition is not None else 0.0,
        )
        deadline = self.transport.now() + budget
        while self.transport.now() < deadline:
            if self.membership_converged():
                if self.convergence_s is None:
                    self.convergence_s = max(0.0, self.transport.now() - fault_clear)
                    self._g_convergence.set(self.convergence_s)
                if self._eventual_pairs_settled():
                    return
            await asyncio.sleep(0.2)

    def _eventual_pairs_settled(self) -> bool:
        """No intended pair with a live subscriber is still undelivered-and-pending."""
        truth = self.truth_online()
        return all(
            self._pair_state(seq, sub, truth) != "pending"
            for seq, _publisher, sub in self.intended
        )

    # -- accounting -----------------------------------------------------------------

    def _finalize_traces(self, truth: np.ndarray) -> None:
        """Give every still-open chain its one terminal before export.

        Run after the settle phase: a pair with no terminal by now is
        either recovered-but-unnoticed (catch-up landed between
        maintenance ticks), void because its subscriber died, or parked
        in a buffer — closed as the non-complete ``pending`` terminal so
        the validator can still prove the chain has no holes.
        """
        assert self.tracer is not None
        self.tracer.flush_open()
        for seq, _publisher, sub in self.intended:
            trace_id = f"{seq}:{sub}"
            if not self.tracer.has_terminal(trace_id):
                self.tracer.event(
                    trace_id,
                    self._pair_state(seq, sub, truth),
                    sub,
                    parent=self._trace_anchor.get((seq, sub)),
                    terminal=True,
                )
        self._trace_open.clear()

    def _trace_report(self) -> dict:
        """Chain summary + SLO verdict + per-node live series (traced runs)."""
        assert self.tracer is not None
        summary = summarize(self.tracer.spans())
        for ms in summary["latency_ms"]:
            self._h_trace_latency.observe(ms)
        for h in summary["hops"]:
            self._h_trace_hops.observe(h)
        self.registry.gauge(
            "live.trace_complete_chain_ratio",
            "causal chains with root, terminal, and no orphans over traces",
        ).set(summary["complete_chain_ratio"])
        # Per-node live series for the Prometheus plane: one labeled
        # sample per node, so a dashboard can single out the node whose
        # recorder overflowed or whose deliveries flat-lined.
        for v in range(self.n):
            labels = {"node": str(v)}
            self.registry.gauge(
                "live.node_delivered",
                "notifications accepted at this node (live or catch-up)",
                labels=labels,
            ).set(len(self.nodes[v].delivered))
            recorder = self.recorders[v]
            self.registry.gauge(
                "live.node_flight_events",
                "flight-recorder events currently retained at this node",
                labels=labels,
            ).set(len(recorder))
            self.registry.gauge(
                "live.node_flight_dropped",
                "flight-recorder events evicted from this node's ring",
                labels=labels,
            ).set(recorder.dropped)
        slo = evaluate_live_trace(summary, LIVE_TRACE_SLO)
        lat, hops = summary.pop("latency_ms"), summary.pop("hops")
        return {
            **summary,
            "latency_ms": _distribution(lat),
            "hops": _distribution(hops),
            "incidents": len(self.incidents),
            "slo": slo,
        }

    def _account(self) -> dict:
        """Classify every intended pair; nothing may be silently lost."""
        truth = self.truth_online()
        if self.tracer is not None:
            self._finalize_traces(truth)
        buffered = {(seq, sub) for buf in self.catchup.buffers.values() for seq, sub, _ in buf}
        rows: "Counter[str]" = Counter()
        for seq, _publisher, sub in self.intended:
            state = self._pair_state(seq, sub, truth)
            if state == "pending":
                # Parked in a holder's buffer; or deposited and since lost
                # to a full one (the bounded-memory tradeoff, visible in
                # catchup.evictions); or never parked at all: silent loss.
                if (seq, sub) in buffered:
                    state = "pending_catchup"
                elif (seq, sub) in self.shed_pairs:
                    state = "evicted_catchup"
                else:
                    state = "unaccounted"
            rows[state] += 1
        settled = rows["delivered"] + rows["recovered"]
        live_pairs = len(self.intended) - rows["dead_subscriber"]
        eventual = settled / live_pairs if live_pairs else 1.0
        self._g_eventual.set(eventual)
        doctor = check_overlay(self.overlay, online=self.truth_online())
        result = {
            "scenario": self.scenario.name,
            "num_nodes": self.n,
            "seed": self.seed,
            "intended_pairs": len(self.intended),
            "delivered_live": rows["delivered"],
            "recovered_catchup": rows["recovered"],
            "pending_catchup": rows["pending_catchup"],
            "evicted_catchup": rows["evicted_catchup"],
            "subscriber_dead": rows["dead_subscriber"],
            "unaccounted": rows["unaccounted"],
            "eventual_delivery_ratio": eventual,
            "shed_pairs": len(self.shed_pairs),
            "membership_converged": self.membership_converged(),
            "convergence_s": self.convergence_s,
            "doctor_ok": bool(doctor.ok),
            "catchup": self.catchup.stats.as_dict(),
            "stabilize": self.stabilizer.stats.as_dict(),
            "gave_up_nodes": sorted(self.supervisor.gave_up()),
        }
        if self.tracer is not None:
            result["trace"] = self._trace_report()
        return result

