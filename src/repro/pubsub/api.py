"""Public pub/sub API.

:class:`PubSubSystem` binds an overlay to the paper's social pub/sub
semantics: subscribers of a publisher are its interested social friends
(the interest function defaults to "every friend is interested"); a
publish event routes the notification to all of them and reports the
dissemination tree, per-path hop counts, relay nodes, and delivery status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.net.faults import FaultPlan
from repro.overlay.base import OverlayNetwork
from repro.overlay.routing import RouteResult
from repro.pubsub.tree import RoutingTree
from repro.telemetry.registry import HOP_BUCKETS, Stats, get_registry, stat
from repro.telemetry.tracer import get_tracer
from repro.util.exceptions import ConfigurationError

__all__ = ["DisseminationResult", "PublishStats", "LookupStats", "PubSubSystem"]

InterestFn = Callable[[int, int], bool]


@dataclass
class DisseminationResult:
    """Outcome of one publish event."""

    publisher: int
    subscribers: list[int]
    tree: RoutingTree
    routes: dict[int, RouteResult]
    #: retransmissions spent on lossy links during this publish.
    retries: int = 0
    #: subscribers lost to link faults (retry budget exhausted / partition).
    dropped: int = 0
    #: missed subscribers whose notification was parked in a catch-up
    #: buffer for later anti-entropy delivery (0 without a store).
    buffered: int = 0
    #: subscribers shed by overload protection (saturated relay after the
    #: retry budget); shed routes degrade to the catch-up path.
    shed: int = 0

    @property
    def delivered(self) -> list[int]:
        """Subscribers the message reached."""
        return [s for s, r in self.routes.items() if r.delivered]

    @property
    def failed(self) -> list[int]:
        """Subscribers the message could not reach."""
        return [s for s, r in self.routes.items() if not r.delivered]

    @property
    def delivery_ratio(self) -> float:
        """Fraction of subscribers reached (1.0 when there are none)."""
        if not self.subscribers:
            return 1.0
        return len(self.delivered) / len(self.subscribers)

    @property
    def relay_nodes(self) -> set[int]:
        """Relay nodes of the merged dissemination tree."""
        return self.tree.relay_nodes(self.subscribers)

    @property
    def per_path_hops(self) -> list[int]:
        """Hop count of each delivered publisher->subscriber path."""
        return [r.hops for r in self.routes.values() if r.delivered]

    def per_path_relays(self) -> list[int]:
        """Relay count of each delivered path (Fig. 3's per-path metric)."""
        subs = set(self.subscribers)
        subs.add(self.publisher)
        out = []
        for r in self.routes.values():
            if not r.delivered:
                continue
            out.append(sum(1 for v in r.path[1:-1] if v not in subs))
        return out


@dataclass
class PublishStats(Stats):
    """Publish outcomes folded by one :class:`PubSubSystem` (``publish.*``)."""

    events: int = stat("publish events disseminated")
    delivered: int = stat("subscriber deliveries that succeeded")
    dropped: int = stat("subscriber deliveries lost to link faults")
    buffered: int = stat("missed notifications parked for catch-up")
    shed: int = stat("subscriber deliveries shed by overload protection")
    retries: int = stat("retransmissions spent on lossy links")


@dataclass
class LookupStats(Stats):
    """Point-to-point lookups served by one :class:`PubSubSystem` (``lookup.*``)."""

    events: int = stat("point-to-point social lookups")


class PubSubSystem:
    """Social pub/sub service over a built overlay."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        interest: "InterestFn | None" = None,
        lookahead: "bool | None" = None,
        faults: "FaultPlan | None" = None,
        catchup=None,
        overload=None,
        registry=None,
        tracer=None,
    ):
        self.overlay = overlay
        self.graph = overlay.graph
        self.interest = interest
        self.router = overlay.make_router(lookahead=lookahead)
        self.faults = faults
        #: optional :class:`~repro.scenarios.overload.OverloadGuard`; when
        #: set, every publish's dissemination tree is admitted against the
        #: per-peer queue model before link faults are replayed.
        self.overload = overload
        #: optional :class:`~repro.core.stabilize.CatchUpStore`; when set,
        #: missed subscribers get their notification buffered for later
        #: anti-entropy delivery instead of being dropped outright.
        self.catchup = catchup
        #: metrics registry (process-wide current unless injected); the
        #: default NullRegistry makes every update below a no-op.
        self.registry = registry if registry is not None else get_registry()
        #: optional :class:`~repro.telemetry.tracer.Tracer`; per-hop decision
        #: recording on the router is only switched on when one is listening.
        self.tracer = tracer if tracer is not None else get_tracer()
        if self.tracer is not None and hasattr(self.router, "record_decisions"):
            self.router.record_decisions = True
        self.stats = PublishStats()
        self.lookup_stats = LookupStats()
        self.registry.attach("publish", self.stats)
        self.registry.attach("lookup", self.lookup_stats)
        self._hops = self.registry.histogram(
            "publish.hops", HOP_BUCKETS, "per-path hop counts of delivered routes"
        )
        self._fanout = self.registry.histogram(
            "publish.fanout", help="subscribers per publish event"
        )

    def subscribers_of(self, publisher: int) -> list[int]:
        """``S_b``: the publisher's interested social friends."""
        friends = self.graph.neighbors(publisher)
        if self.interest is None:
            return [int(f) for f in friends]
        return [int(f) for f in friends if self.interest(int(f), publisher)]

    def publish(
        self,
        publisher: int,
        online: "np.ndarray | None" = None,
        time: float = 0.0,
    ) -> DisseminationResult:
        """Disseminate one notification from ``publisher`` to ``S_b``.

        ``time`` only matters under an active fault plan, where it decides
        which injected partitions are in effect.
        """
        if not (0 <= publisher < self.graph.num_nodes):
            raise ConfigurationError(f"publisher {publisher} out of range")
        interested = self.subscribers_of(publisher)
        subscribers = interested
        if online is not None:
            subscribers = [s for s in interested if online[s]]
        tree = RoutingTree(publisher)
        # Each overlay defines its own dissemination shape (unicast DHT,
        # rendezvous tree, topic-connected overlay, ...).
        routes: dict[int, RouteResult] = self.overlay.disseminate(
            publisher, subscribers, self.router, online=online
        )
        retries = 0
        dropped = 0
        shed = 0
        if self.overload is not None:
            # Admission happens at send time, before the network can lose
            # anything: a route that is never admitted is never transmitted.
            routes, overflowed, shed = self.overload.admit(routes, time)
            dropped += overflowed
        drops: "dict[int, dict] | None" = {} if self.tracer is not None else None
        if self.faults is not None and not self.faults.is_null:
            routes, fault_retries, fault_dropped = self._inject_link_faults(
                routes, time, drops
            )
            retries += fault_retries
            dropped += fault_dropped
        buffered = 0
        if self.catchup is not None:
            buffered = self._deposit_missed(
                publisher, interested, subscribers, routes, online, time
            )
        # Merge paths near-first so farther paths reuse tree prefixes
        # (message deduplication).
        for s in sorted(routes, key=lambda s: (len(routes[s].path), s)):
            result = routes[s]
            if result.delivered:
                tree.add_path(result.path)
        out = DisseminationResult(
            publisher=publisher,
            subscribers=subscribers,
            tree=tree,
            routes=routes,
            retries=retries,
            dropped=dropped,
            buffered=buffered,
            shed=shed,
        )
        self._observe_publish(out)
        if self.tracer is not None:
            # One chain per (message, online subscriber), closed now: a
            # missed pair is parked for catch-up (pending) or gone (lost).
            msg = self.tracer.next_message_id()
            missed = "pending" if self.catchup is not None else "lost"
            for s in subscribers:
                terminal = "delivered" if routes[s].delivered else missed
                self._trace_chain(
                    f"{msg}:{s}", "publish", s, routes[s], time, terminal, drops.get(s)
                )
        return out

    # -- telemetry -----------------------------------------------------------

    def _observe_publish(self, result: DisseminationResult) -> None:
        """Fold one publish outcome into the metrics registry (no-op by default)."""
        stats = self.stats
        stats.events += 1
        self._fanout.observe(len(result.subscribers))
        stats.retries += result.retries
        stats.dropped += result.dropped
        stats.buffered += result.buffered
        stats.shed += result.shed
        for r in result.routes.values():
            if r.delivered:
                stats.delivered += 1
                self._hops.observe(r.hops)

    def _trace_chain(
        self,
        trace_id: str,
        root: str,
        dst: int,
        route: RouteResult,
        time: float,
        terminal: str,
        drop: "dict | None" = None,
    ) -> None:
        """One causal chain, every span at ``time``: the root at the source,
        a ``relay`` per node the message reached short of ``dst`` (its
        ``attrs`` the router's decision for the hop into it), the ``drop``
        where a link fault killed it, and the one ``terminal`` at ``dst``."""
        tracer = self.tracer
        path, decisions = route.path, route.decisions or ()

        def decided(hop: int) -> dict:
            if not 0 < hop <= len(decisions):
                return {}
            d = decisions[hop - 1]
            return {"link": d.link, "rule": d.rule, "distance": d.ring_distance}

        parent = tracer.event(trace_id, root, path[0], at=time)
        reached = len(path) - 1 if route.delivered else len(path)
        for hop in range(1, reached):
            parent = tracer.event(
                trace_id, "relay", path[hop], parent=parent, hop=hop, at=time, **decided(hop)
            )
        if drop is not None:
            parent = tracer.event(trace_id, "drop", parent=parent, at=time, **drop)
        tracer.event(
            trace_id,
            terminal,
            dst,
            parent=parent,
            hop=route.hops if route.delivered else None,
            terminal=True,
            at=time,
            **(decided(route.hops) if route.delivered else {}),
        )

    def _deposit_missed(
        self, publisher, interested, subscribers, routes, online, time
    ) -> int:
        """Park every missed notification in the catch-up store.

        Two classes of miss: an *online* subscriber the dissemination
        failed to reach (counts against availability — ``counted=True``)
        and an interested friend that was simply offline at publish time
        (the availability metric never counted it; catch-up still delivers
        it once the friend returns — ``counted=False``).
        """
        seq = self.catchup.new_notification()
        buffered = 0
        for s in subscribers:
            if not routes[s].delivered:
                self.catchup.deposit(seq, publisher, s, True, online, time)
                buffered += 1
        if online is not None:
            reached = set(subscribers)
            for s in interested:
                if s not in reached:
                    self.catchup.deposit(seq, publisher, s, False, online, time)
                    buffered += 1
        return buffered

    def _inject_link_faults(
        self,
        routes: dict[int, RouteResult],
        time: float,
        drops: "dict[int, dict] | None" = None,
    ) -> "tuple[dict[int, RouteResult], int, int]":
        """Replay each routed path over the lossy links of the fault plan.

        A shared edge cache ensures hops common to several paths (the
        dissemination tree's shared prefixes) are transmitted — and can be
        lost — exactly once per publish event. When ``drops`` is given
        (tracing), each dropped subscriber gets the ``drop`` span of its
        chain: the node its path died on the way to, and why.
        """
        edge_cache: dict = {}
        out: dict[int, RouteResult] = {}
        retries = 0
        dropped = 0
        for s, result in routes.items():
            if not result.delivered:
                out[s] = result
                continue
            outcome = self.faults.transmit_path(
                result.path, ids=self.overlay.ids, time=time, edge_cache=edge_cache
            )
            retries += outcome.retries
            if outcome.delivered:
                out[s] = result
            else:
                dropped += 1
                decisions = result.decisions
                if decisions is not None:
                    # Keep only the decisions for hops actually taken.
                    decisions = decisions[: max(0, outcome.lost_at - 1)]
                out[s] = RouteResult(
                    path=result.path[: outcome.lost_at],
                    delivered=False,
                    decisions=decisions,
                )
                if drops is not None:
                    lost = outcome.lost_at
                    drops[s] = {
                        "node": result.path[lost],
                        "hop": lost,
                        "status": "partition" if outcome.partition_blocked else "loss",
                        "src": int(result.path[lost - 1]),
                        "retries": outcome.retries,
                    }
        return out, retries, dropped

    def lookup(self, src: int, dst: int, online: "np.ndarray | None" = None) -> RouteResult:
        """Point-to-point social lookup (Fig. 2's metric)."""
        result = self.router.route(src, dst, online=online)
        self.lookup_stats.events += 1
        if result.delivered:
            self.registry.histogram(
                "lookup.hops", HOP_BUCKETS, "hop counts of delivered lookups"
            ).observe(result.hops)
        if self.tracer is not None:
            terminal = "delivered" if result.delivered else "lost"
            msg = self.tracer.next_message_id()
            self._trace_chain(f"{msg}:{dst}", "lookup", dst, result, 0.0, terminal)
        return result
