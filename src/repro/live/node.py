"""The live peer: one asyncio ``PeerNode`` per SELECT participant.

A node owns three long-lived tasks —

* the **receive loop** drains its transport inbox and dispatches each
  envelope to a handler (handlers that must themselves wait on the
  network, like an indirect ping-req, run as their own task so the loop
  never stalls);
* the **gossip loop** bumps the node's heartbeat and pushes its
  membership digest to a few believed-alive targets every
  ``gossip_interval`` (occasionally also to a believed-dead member —
  the resurrection channel after a healed partition);
* the **probe loop** runs the SWIM failure detector: direct ping, then
  ``INDIRECT_PROBES`` ping-req helpers, then one suspicion increment;
  ``SUSPICION_THRESHOLD`` consecutive failed rounds confirm DEAD.

Requests go through :meth:`PeerNode.request`: per-attempt timeouts,
bounded retries with exponential, jittered backoff (the
:class:`~repro.scenarios.overload.OverloadGuard` discipline transplanted
to wall clock), and the structured failure taxonomy —
:class:`~repro.util.exceptions.PeerUnreachable` when membership already
confirmed the peer dead, and
:class:`~repro.util.exceptions.RetryBudgetExhausted` when every attempt
timed out.

Notification delivery is source-routed: the publisher computes an
overlay path and the NOTIFY envelope hops relay to relay; the final
subscriber records the notification (deduplicating by sequence number —
delivery is at-least-once) and acks the *publisher* directly. A relay
crash or mid-path partition surfaces to the publisher as a timeout, and
the publisher's exhausted retry budget is what degrades the publish into
the catch-up path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.live.config import (
    GOSSIP_FANOUT,
    GOSSIP_RESURRECT_P,
    INDIRECT_PROBES,
    PROBE_TIMEOUT,
    REQUEST_BACKOFF,
    REQUEST_BACKOFF_MAX,
    LiveConfig,
)
from repro.live.envelope import (
    ACK,
    GOSSIP,
    NOTIFY,
    NOTIFY_ACK,
    PING,
    PING_REQ,
    Envelope,
    next_correlation_id,
)
from repro.live.membership import MembershipView
from repro.live.transport import LoopbackTransport
from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.exceptions import PeerUnreachable, RetryBudgetExhausted, TransientError
from repro.util.rng import as_generator

__all__ = ["NodeStats", "PeerNode"]


@dataclass
class NodeStats(Stats):
    """Request, failure-detector and delivery events of one :class:`PeerNode` (``live.*``)."""

    requests: int = stat("request/reply exchanges started")
    request_retries: int = stat("request attempts beyond the first")
    retry_exhausted: int = stat("requests whose every attempt timed out")
    peer_unreachable: int = stat("requests refused: membership says peer is dead")
    suspicions: int = stat("probe rounds that raised suspicion on a member")
    false_suspicions: int = stat("suspicions raised against a truth-alive member")
    confirmed_dead: int = stat("members confirmed DEAD past the suspicion threshold")
    false_confirms: int = stat("members confirmed DEAD while truth-alive")
    notify_delivered: int = stat("notifications accepted at their subscriber")
    notify_duplicates: int = stat("redundant notification deliveries deduplicated")
    gossip_rounds: int = stat("gossip rounds run")


class PeerNode:
    """One live SELECT participant on the loopback fabric."""

    def __init__(
        self,
        node_id: int,
        transport: LoopbackTransport,
        members,
        config: "LiveConfig | None" = None,
        seed=None,
        registry=None,
        tracer=None,
        recorder=None,
    ):
        self.node_id = int(node_id)
        self.transport = transport
        self.config = config if config is not None else LiveConfig()
        #: optional :class:`~repro.telemetry.tracer.Tracer`; ``None`` =
        #: the zero-overhead untraced path (pinned to PR 7 behaviour).
        self.tracer = tracer
        #: optional :class:`~repro.live.recorder.FlightRecorder`.
        self.recorder = recorder
        self.view = MembershipView(node_id, members)
        if recorder is not None:
            self.view.on_transition = self._membership_transition
        self._rng = as_generator(seed)
        self._seq = 0
        self.inbox: "asyncio.Queue | None" = None
        self._tasks: list[asyncio.Task] = []
        self._handler_tasks: set[asyncio.Task] = set()
        self._pending: dict[int, asyncio.Future] = {}
        #: sequence numbers of notifications this node has received.
        self.delivered: set[int] = set()
        self.running = False
        #: member -> loop time its heartbeat last advanced (staleness).
        self._last_advance: dict[int, float] = {}
        #: members with a probe round currently in flight.
        self._probing: set[int] = set()

        registry = registry if registry is not None else get_registry()
        self.stats = NodeStats()
        registry.attach("live", self.stats)
        self._h_request_ms = registry.histogram(
            "live.request_ms",
            (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0),
            "request round-trip latency (ms)",
        )
        self._h_probe_ms = registry.histogram(
            "live.probe_ms",
            (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0),
            "successful failure-detector probe latency (ms)",
        )
        #: cluster-provided oracle of actual liveness, used only to label
        #: false suspicions in telemetry — never for protocol decisions.
        self.truth_alive = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "list[asyncio.Task]":
        """Register on the fabric and spawn the three protocol loops."""
        self.inbox = self.transport.register(self.node_id)
        self.running = True
        now = asyncio.get_running_loop().time()
        for m in self.view.heartbeat:
            self._last_advance.setdefault(m, now)
        self._probing.clear()
        self._tasks = [
            asyncio.create_task(self._recv_loop(), name=f"node{self.node_id}-recv"),
            asyncio.create_task(self._gossip_loop(), name=f"node{self.node_id}-gossip"),
            asyncio.create_task(self._probe_loop(), name=f"node{self.node_id}-probe"),
        ]
        return self._tasks

    async def stop(self) -> None:
        """Graceful shutdown: detach from the fabric, cancel every task."""
        for task in self._halt():
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    def crash(self) -> None:
        """Abrupt kill: drop off the fabric without any goodbye.

        Tasks are cancelled synchronously; in-flight envelopes to this
        node are dropped by the transport once the inbox is gone.
        """
        self._halt()

    def _halt(self) -> "list[asyncio.Task]":
        """Leave the fabric, cancel every task and pending request; returns the tasks."""
        self.running = False
        self.transport.unregister(self.node_id)
        tasks = self._tasks + list(self._handler_tasks)
        self._tasks = []
        self._handler_tasks.clear()
        for task in tasks:
            task.cancel()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()
        return tasks

    # -- envelope plumbing ------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(
        self,
        kind: str,
        dst: int,
        payload: "dict | None" = None,
        corr: int = 0,
        trace: "dict | None" = None,
    ) -> None:
        self.transport.send(
            Envelope(
                kind=kind,
                src=self.node_id,
                dst=int(dst),
                seq=self._next_seq(),
                corr=corr,
                payload=payload if payload is not None else {},
                trace=trace,
            )
        )

    def _membership_transition(self, member: int, old: int, new: int, reason: str) -> None:
        """Flight-recorder hook fired by the view on every status change."""
        self.recorder.record(
            "membership",
            member=int(member),
            old=int(old),
            new=int(new),
            reason=reason,
        )

    # -- request layer -----------------------------------------------------------

    async def request(
        self,
        dst: int,
        kind: str,
        payload: "dict | None" = None,
        *,
        timeout: "float | None" = None,
        retries: "int | None" = None,
        check_membership: bool = True,
        trace=None,
    ) -> dict:
        """Send ``kind`` to ``dst`` and await the correlated reply payload.

        Raises :class:`PeerUnreachable` (membership confirmed the peer
        dead before any attempt) or :class:`RetryBudgetExhausted` (every
        attempt within the budget timed out).

        ``trace`` (a :class:`~repro.telemetry.tracer.TraceContext`) opens
        one ``send`` span per attempt — each stamped as the envelope's
        parent, so downstream relays join the right attempt's branch —
        and closes it with the attempt's outcome (acked / timeout /
        cancelled).
        """
        cfg = self.config
        timeout = cfg.request_timeout if timeout is None else float(timeout)
        retries = cfg.request_retries if retries is None else int(retries)
        if check_membership and not self.view.is_alive(dst):
            self.stats.peer_unreachable += 1
            raise PeerUnreachable(
                f"node {self.node_id}: peer {dst} is confirmed dead by membership"
            )
        self.stats.requests += 1
        loop = asyncio.get_running_loop()
        started = loop.time()
        backoff = timeout
        for attempt in range(1 + retries):
            if attempt > 0:
                self.stats.request_retries += 1
                if self.recorder is not None:
                    self.recorder.record(
                        "retry", verb=kind, dst=int(dst), attempt=attempt
                    )
            corr = next_correlation_id()
            future: asyncio.Future = loop.create_future()
            self._pending[corr] = future
            span_id = wire = None
            if trace is not None and self.tracer is not None:
                span_id = self.tracer.start(
                    trace.trace_id,
                    "send",
                    self.node_id,
                    parent=trace.parent,
                    hop=trace.hop,
                    attempt=attempt,
                    dst=int(dst),
                )
                wire = trace.wire(parent=span_id)
            try:
                self._send(kind, dst, payload, corr=corr, trace=wire)
                reply = await asyncio.wait_for(future, timeout)
                self._h_request_ms.observe((loop.time() - started) * 1000.0)
                if span_id is not None:
                    self.tracer.finish(span_id, status="acked")
                return reply
            except asyncio.TimeoutError:
                if span_id is not None:
                    self.tracer.finish(span_id, status="timeout")
            except asyncio.CancelledError:
                if span_id is not None:
                    self.tracer.finish(span_id, status="cancelled")
                if self.running:
                    raise  # genuine cancellation of the awaiting task
                # stop()/crash() cancelled our pending future: surface it
                # as a retryable failure so callers degrade to catch-up
                # instead of leaking CancelledError past accounting.
                raise TransientError(
                    f"node {self.node_id} stopped while awaiting "
                    f"{kind}->{dst}"
                ) from None
            finally:
                self._pending.pop(corr, None)
            if attempt < retries:
                # Exponential, jittered backoff before the next attempt
                # (the OverloadGuard discipline on a real clock). The
                # jitter desynchronizes retry storms across nodes.
                sleep = min(backoff * (0.5 + self._rng.random()), REQUEST_BACKOFF_MAX)
                backoff *= REQUEST_BACKOFF
                if sleep > 0:
                    if self.recorder is not None:
                        self.recorder.record(
                            "backoff", verb=kind, dst=int(dst), sleep=round(sleep, 6)
                        )
                    await asyncio.sleep(sleep)
        self.stats.retry_exhausted += 1
        raise RetryBudgetExhausted(
            f"node {self.node_id}: request {kind}->{dst} spent "
            f"{1 + retries} attempts without a reply"
        )

    # -- notification delivery -----------------------------------------------------

    async def publish_along(
        self, path: "list[int]", seq: int, publisher: int, trace=None
    ) -> None:
        """Push one notification along a source-routed overlay ``path``.

        ``path[0]`` must be this node; the final element is the
        subscriber. Raises the request-layer taxonomy on failure.
        """
        payload = {"publisher": int(publisher), "notify_seq": int(seq), "path": list(path)}
        await self.request(
            path[1] if len(path) > 1 else path[-1], NOTIFY, payload, trace=trace
        )

    # -- receive path ---------------------------------------------------------------

    async def _recv_loop(self) -> None:
        assert self.inbox is not None
        while self.running:
            env = await self.inbox.get()
            if env.kind in (ACK, NOTIFY_ACK):
                future = self._pending.get(env.corr)
                if future is not None and not future.done():
                    future.set_result(env.payload)
                continue
            if env.kind == GOSSIP:
                advanced = self.view.merge(env.payload.get("digest", {}))
                if advanced:
                    now = asyncio.get_running_loop().time()
                    for m in advanced:
                        self._last_advance[m] = now
                continue
            if env.kind == PING:
                self._send(ACK, env.src, {}, corr=env.corr)
                continue
            # Handlers that wait on the network run as their own task so
            # the receive loop keeps draining.
            if env.kind == PING_REQ:
                self._spawn_handler(self._handle_ping_req(env))
            elif env.kind == NOTIFY:
                self._spawn_handler(self._handle_notify(env))

    def _spawn_handler(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)

    async def _handle_ping_req(self, env: Envelope) -> None:
        """Indirect probe: ping the target on the requester's behalf."""
        target = int(env.payload["target"])
        alive = False
        try:
            await self.request(
                target, PING, timeout=PROBE_TIMEOUT, retries=0, check_membership=False
            )
            alive = True
            self.view.probe_succeeded(target)
        except TransientError:
            alive = False
        self._send(ACK, env.src, {"alive": alive}, corr=env.corr)

    async def _handle_notify(self, env: Envelope) -> None:
        """Relay or accept one source-routed notification."""
        path = [int(v) for v in env.payload["path"]]
        seq = int(env.payload["notify_seq"])
        publisher = int(env.payload["publisher"])
        try:
            me = path.index(self.node_id)
        except ValueError:
            return  # mis-routed: not on the path, drop
        ctx = env.trace
        traced = ctx is not None and self.tracer is not None
        if me == len(path) - 1:
            # Final hop: accept (at-least-once, dedup by seq) and ack the
            # publisher directly.
            if seq in self.delivered:
                self.stats.notify_duplicates += 1
                if traced:
                    self.tracer.event(
                        ctx["id"],
                        "duplicate",
                        self.node_id,
                        parent=ctx.get("parent"),
                        hop=me,
                    )
            else:
                self.delivered.add(seq)
                self.stats.notify_delivered += 1
                if traced:
                    self.tracer.event(
                        ctx["id"],
                        "delivered",
                        self.node_id,
                        parent=ctx.get("parent"),
                        hop=me,
                        terminal=True,
                    )
            self._send(NOTIFY_ACK, publisher, {"notify_seq": seq}, corr=env.corr)
            return
        # Relay: forward one hop along the path, same correlation id, so
        # the subscriber's ack resolves the publisher's original future.
        # A traced relay records its span first and re-stamps the wire
        # context, so the next hop parents to this one — the causal chain.
        wire = None
        if traced:
            span_id = self.tracer.event(
                ctx["id"], "relay", self.node_id, parent=ctx.get("parent"), hop=me
            )
            wire = {"id": ctx["id"], "parent": span_id, "hop": me}
        self._send(NOTIFY, path[me + 1], env.payload, corr=env.corr, trace=wire)

    # -- gossip loop -------------------------------------------------------------------

    async def _gossip_loop(self) -> None:
        cfg = self.config
        while self.running:
            await asyncio.sleep(cfg.gossip_interval * (0.5 + self._rng.random()))
            self.view.self_beat()
            self.stats.gossip_rounds += 1
            digest = {"digest": self.view.digest()}
            targets = [m for m in self.view.alive_members() if m != self.node_id]
            fanout = min(GOSSIP_FANOUT, len(targets))
            if fanout:
                picks = self._rng.choice(len(targets), size=fanout, replace=False)
                for i in picks:
                    self._send(GOSSIP, targets[int(i)], digest)
            dead = self.view.dead_members()
            if dead and self._rng.random() < GOSSIP_RESURRECT_P:
                # Resurrection channel: a believed-dead member that is in
                # fact back (healed partition, supervisor restart) learns
                # we exist and refutes through its own gossip.
                self._send(GOSSIP, dead[int(self._rng.integers(len(dead)))], digest)

    # -- probe loop ---------------------------------------------------------------------

    #: concurrent probe rounds one node may have in flight. Failed rounds
    #: are slow (direct timeout + indirect helpers); overlapping them is
    #: what keeps detection latency at O(probe_interval), not O(timeout).
    _MAX_INFLIGHT_PROBES = 4

    def _next_probe_target(self) -> "int | None":
        """Stalest believed-usable member (heartbeat advanced least recently).

        A dead member's heartbeat never advances again, so staleness
        focuses every node's probes on exactly the members that need a
        verdict; a live member's gossip keeps resetting its staleness.
        A seeded pick among the stalest few desynchronizes nodes enough
        that helpers stay responsive.
        """
        candidates = [
            m
            for m in self.view.alive_members()
            if m != self.node_id and m not in self._probing
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda m: (self._last_advance.get(m, 0.0), m))
        pool = candidates[: min(3, len(candidates))]
        return pool[int(self._rng.integers(len(pool)))]

    async def _probe_loop(self) -> None:
        cfg = self.config
        while self.running:
            await asyncio.sleep(cfg.probe_interval * (0.5 + self._rng.random()))
            if len(self._probing) >= self._MAX_INFLIGHT_PROBES:
                continue
            target = self._next_probe_target()
            if target is None:
                continue
            self._probing.add(target)
            self._spawn_handler(self._probe_guarded(target))

    async def _probe_guarded(self, target: int) -> None:
        try:
            await self._probe_once(target)
        except TransientError:
            pass  # node stopped mid-round; the verdict no longer matters
        finally:
            self._probing.discard(target)

    async def _probe_once(self, target: int) -> None:
        """One SWIM probe round: direct ping, then indirect, then suspicion."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            await self.request(
                target, PING, timeout=PROBE_TIMEOUT, retries=0, check_membership=False
            )
            self._h_probe_ms.observe((loop.time() - started) * 1000.0)
            self.view.probe_succeeded(target)
            self._last_advance[target] = loop.time()
            if self.recorder is not None:
                self.recorder.record("probe", target=int(target), outcome="direct_ack")
            return
        except RetryBudgetExhausted:
            pass
        if await self._indirect_probe(target):
            self.view.probe_succeeded(target)
            self._last_advance[target] = loop.time()
            if self.recorder is not None:
                self.recorder.record("probe", target=int(target), outcome="indirect_ack")
            return
        truth = self.truth_alive
        actually_alive = bool(truth(target)) if truth is not None else False
        self.stats.suspicions += 1
        if actually_alive:
            self.stats.false_suspicions += 1
        confirmed = self.view.probe_failed(target)
        if self.recorder is not None:
            self.recorder.record(
                "probe",
                target=int(target),
                outcome="confirmed_dead" if confirmed else "suspected",
            )
        if confirmed:
            self.stats.confirmed_dead += 1
            if actually_alive:
                self.stats.false_confirms += 1

    async def _indirect_probe(self, target: int) -> bool:
        """Ask up to ``INDIRECT_PROBES`` helpers to ping ``target``."""
        helpers = [
            m
            for m in self.view.alive_members()
            if m != self.node_id and m != target
        ]
        if not helpers:
            return False
        k = min(INDIRECT_PROBES, len(helpers))
        picks = self._rng.choice(len(helpers), size=k, replace=False)

        async def ask(helper: int) -> bool:
            try:
                reply = await self.request(
                    helper,
                    PING_REQ,
                    {"target": int(target)},
                    # The helper itself waits PROBE_TIMEOUT for the target.
                    timeout=PROBE_TIMEOUT * 2.5,
                    retries=0,
                    check_membership=False,
                )
                return bool(reply.get("alive"))
            except RetryBudgetExhausted:
                return False

        results = await asyncio.gather(*(ask(helpers[int(i)]) for i in picks))
        return any(results)
