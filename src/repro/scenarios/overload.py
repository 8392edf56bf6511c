"""Per-peer overload physics and overload *protection*.

The simulator's network models are about links; this module is about
*peers*. Every peer has a bounded forwarding queue drained at a fixed
rate — modelled as a token bucket of ``capacity`` work units refilled at
``capacity / window`` per simulated second, one unit per transmitted
dissemination-tree edge. That physics is always on inside a scenario:
celebrity fan-out and flash crowds overload exactly the relays the
paper's Fig. 4 load-balance argument is about.

What differs is what happens at saturation:

* **unprotected** (``protected=False``) — the arrival simply overflows
  the queue: the message dies at the saturated relay, silently, exactly
  like a real unprotected broker. The loss is counted but nothing
  downstream is told.
* **protected** (``protected=True``) — the robustness mechanisms this
  package exists to exercise:

  - *admission control / priority shedding*: routes are admitted
    shortest-first, so direct publisher->subscriber hops — the cheap,
    high-value deliveries — get capacity before long relay chains; the
    last ``priority_reserve`` fraction of every queue is reserved for
    direct hops outright;
  - *retry with backoff budgets*: a sender that finds a relay saturated
    retries within a bounded budget, each attempt backed off
    exponentially (virtual time, during which the relay drains);
  - *degrade, don't drop*: a route still saturated after its budget is
    **shed** — reported undelivered so the pub/sub layer parks it in the
    PR 2 catch-up store for anti-entropy delivery — instead of being
    silently lost mid-tree.

The guard is RNG-free: given the same route stream it behaves
identically, which keeps scenario verdicts bit-reproducible and lets the
simulator checkpoint/restore it as two arrays and a stats block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.overlay.routing import RouteResult
from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.exceptions import ConfigurationError, PersistError

__all__ = ["OverloadConfig", "OverloadStats", "OverloadGuard"]


@dataclass(frozen=True)
class OverloadConfig:
    """Shape of the per-peer forwarding queues and the protection policy."""

    #: queue depth: work units a peer can absorb in a burst.
    capacity: float = 64.0
    #: seconds to drain one full queue (refill rate = capacity / window).
    window: float = 60.0
    #: False: saturation overflows silently. True: admission control,
    #: priority for direct-subscriber hops, bounded retry, shed-to-catch-up.
    protected: bool = True
    #: retries a protected sender spends on one saturated relay.
    retry_budget: int = 2
    #: first retry backoff in virtual seconds (doubles per attempt).
    backoff_s: float = 0.5
    #: fraction of each queue only direct publisher->subscriber hops may use.
    priority_reserve: float = 0.25

    def __post_init__(self):
        if self.capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {self.capacity}")
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be non-negative, got {self.retry_budget}"
            )
        if self.backoff_s <= 0:
            raise ConfigurationError(f"backoff_s must be positive, got {self.backoff_s}")
        if not (0.0 <= self.priority_reserve < 1.0):
            raise ConfigurationError(
                f"priority_reserve must be in [0, 1), got {self.priority_reserve}"
            )


@dataclass
class OverloadStats(Stats):
    """Counters accumulated by one :class:`OverloadGuard` across a run."""

    publishes: int = stat("publish events the guard admitted (fully or partially)")
    charged: int = stat("tree edges charged to queues")
    overflow_drops: int = stat("routes lost to silent queue overflow")
    shed: int = stat("routes shed to catch-up after retry budget")
    retries: int = stat("retries spent on saturated relays")
    waited_s: float = stat("virtual seconds spent in retry backoff", 0.0)
    priority_grants: int = stat("direct-hop admissions that needed the reserved queue share")


class OverloadGuard:
    """Token-bucket admission over the routes of each publish event.

    One guard instance is owned by a :class:`~repro.pubsub.api.PubSubSystem`
    and consulted once per publish: it replays the event's dissemination
    tree against the per-peer queues and returns the routes that survive.
    Tree prefixes shared by several subscribers charge each edge once per
    event (the overlay deduplicates transmissions), and a prefix edge
    that saturates fails every route through it, exactly like the fault
    layer's edge cache.
    """

    def __init__(self, config: OverloadConfig, num_nodes: int, registry=None):
        if num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
        self.config = config
        self.num_nodes = int(num_nodes)
        self.tokens = np.full(num_nodes, float(config.capacity))
        self.last_refill = np.zeros(num_nodes)
        self.stats = OverloadStats()
        registry = registry if registry is not None else get_registry()
        registry.attach("overload", self.stats)
        registry.gauge(
            "overload.max_saturation", "highest queue fill fraction seen at a publish"
        ).set_function(self._saturation)

    def _saturation(self) -> float:
        """Fill fraction of the fullest queue as the last publish left it."""
        return 1.0 - float(self.tokens.min()) / self.config.capacity

    # -- token bucket --------------------------------------------------------

    def _refill(self, node: int, now: float) -> None:
        # Never move the refill clock backwards: a retry backoff can push
        # a node's clock past the current event time, and the next event
        # at the same instant must not refill (or rewind) it again.
        elapsed = now - self.last_refill[node]
        if elapsed <= 0:
            return
        rate = self.config.capacity / self.config.window
        self.tokens[node] = min(self.config.capacity, self.tokens[node] + elapsed * rate)
        self.last_refill[node] = now

    def _available(self, node: int, direct: bool) -> float:
        floor = 0.0 if direct else self.config.priority_reserve * self.config.capacity
        return self.tokens[node] - floor

    # -- admission -----------------------------------------------------------

    def admit(
        self, routes: "dict[int, RouteResult]", time: float
    ) -> "tuple[dict[int, RouteResult], int, int]":
        """Charge one publish's tree against the queues.

        Returns ``(surviving_routes, overflow_dropped, shed)``; failed
        routes come back truncated at the saturated hop with
        ``delivered=False`` so the caller's catch-up / accounting paths
        see them exactly like fault-dropped routes.
        """
        cfg = self.config
        self.stats.publishes += 1
        #: per-event edge verdicts: True admitted, False failed.
        edge_ok: dict[tuple[int, int], bool] = {}
        out: dict[int, RouteResult] = {}
        overflowed = 0
        shed = 0
        # Protected mode admits cheap, direct deliveries first; the
        # unprotected broker serves whatever order arrivals come in
        # (subscriber order — deterministic but priority-blind).
        order = sorted(
            routes, key=(lambda s: (len(routes[s].path), s)) if cfg.protected else None
        )
        for s in order:
            result = routes[s]
            if not result.delivered:
                out[s] = result
                continue
            direct = len(result.path) == 2
            failed_at: "int | None" = None
            for i in range(len(result.path) - 1):
                u, v = result.path[i], result.path[i + 1]
                key = (u, v)
                known = edge_ok.get(key)
                if known is True:
                    continue
                if known is False:
                    failed_at = i + 1
                    break
                if self._charge(u, time, direct):
                    edge_ok[key] = True
                    continue
                edge_ok[key] = False
                failed_at = i + 1
                break
            if failed_at is None:
                out[s] = result
                continue
            if cfg.protected:
                shed += 1
                self.stats.shed += 1
            else:
                overflowed += 1
                self.stats.overflow_drops += 1
            decisions = result.decisions
            if decisions is not None:
                decisions = decisions[: max(0, failed_at - 1)]
            out[s] = RouteResult(
                path=result.path[:failed_at], delivered=False, decisions=decisions
            )
        return out, overflowed, shed

    def _charge(self, node: int, now: float, direct: bool) -> bool:
        """Take one work unit from ``node``'s queue, retrying if protected."""
        cfg = self.config
        self._refill(node, now)
        if self._available(node, direct=False) >= 1.0:
            self.tokens[node] -= 1.0
            self.stats.charged += 1
            return True
        if direct and self._available(node, direct=True) >= 1.0:
            # The reserved share exists exactly for this hop.
            self.tokens[node] -= 1.0
            self.stats.charged += 1
            self.stats.priority_grants += 1
            return True
        if not cfg.protected:
            return False
        # Bounded retry: back off (virtual time), let the queue drain.
        backoff = cfg.backoff_s
        waited = now
        for _ in range(cfg.retry_budget):
            self.stats.retries += 1
            self.stats.waited_s += backoff
            waited += backoff
            backoff *= 2.0
            self._refill(node, waited)
            if self._available(node, direct) >= 1.0:
                self.tokens[node] -= 1.0
                self.stats.charged += 1
                if direct and self._available(node, direct=False) < 0.0:
                    self.stats.priority_grants += 1
                return True
        return False

    # -- checkpoint / restore --------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the queue state (for the persist layer)."""
        return {
            "tokens": [float(x) for x in self.tokens],
            "last_refill": [float(x) for x in self.last_refill],
            "stats": self.stats.as_dict(),
        }

    def restore_state(self, state: dict) -> None:
        tokens = np.asarray(state["tokens"], dtype=np.float64)
        last = np.asarray(state["last_refill"], dtype=np.float64)
        if tokens.shape != self.tokens.shape or last.shape != self.last_refill.shape:
            # A shape mismatch means the snapshot belongs to a different
            # cluster size — a restore-path failure, not a config error.
            raise PersistError(
                f"overload state is for {tokens.shape[0]} nodes, guard has {self.num_nodes}"
            )
        self.tokens = tokens
        self.last_refill = last
        # In place: the registry reads this object, not a copy of it.
        self.stats.__init__(**state["stats"])
