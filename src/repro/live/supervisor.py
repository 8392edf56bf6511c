"""Node supervision: restart crashed tasks, degrade gracefully.

The :class:`NodeSupervisor` watches every node's protocol tasks. When a
task dies with an exception (a *crash*, as opposed to a deliberate
``kill``), the supervisor stops the node's remaining tasks, waits out a
jittered exponential backoff — doubling per consecutive crash of the
same node, so a crash-looping node cannot monopolize the loop — and
restarts the node's loops. The node object (membership view, delivered
set, sequence counters) survives the restart, like a process whose state
lives in mmap'd storage; after ``MAX_RESTARTS`` consecutive crashes the
supervisor gives up and leaves the node down for membership to confirm.

Deliberate kills (:meth:`NodeSupervisor.kill`) are the scenario-script
path: the node drops off the fabric with no goodbye and the supervisor
deliberately does *not* restart it — SWIM has to notice the silence.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.live.config import MAX_RESTARTS, LiveConfig
from repro.live.node import PeerNode
from repro.telemetry.registry import Stats, get_registry, stat
from repro.util.rng import as_generator

__all__ = ["SupervisorStats", "NodeSupervisor"]


@dataclass
class SupervisorStats(Stats):
    """Crash handling of one :class:`NodeSupervisor` (``live.node_*``)."""

    node_crashes: int = stat("node task crashes observed")
    node_restarts: int = stat("nodes restarted after a crash")
    node_gave_up: int = stat("nodes abandoned after MAX_RESTARTS crashes")


class NodeSupervisor:
    """Restart-with-backoff supervision over a set of :class:`PeerNode`s."""

    def __init__(self, config=None, seed=None, registry=None):
        self.config = config if config is not None else LiveConfig()
        self._rng = as_generator(seed)
        self._nodes: dict[int, PeerNode] = {}
        self._watchers: dict[int, asyncio.Task] = {}
        #: consecutive crash count per node (reset on a healthy stretch).
        self._crashes: dict[int, int] = {}
        #: nodes deliberately killed; never restarted.
        self._killed: set[int] = set()
        #: nodes abandoned after ``MAX_RESTARTS`` consecutive crashes.
        self._given_up: set[int] = set()
        #: optional hook ``(node_id, kind, detail)`` fired on crash /
        #: restart / gave_up / kill — the traced cluster's incident tap
        #: (flight-recorder entries + crash dumps). ``None`` = untraced.
        self.on_incident = None
        self.stats = SupervisorStats()
        (registry if registry is not None else get_registry()).attach("live", self.stats)

    # -- lifecycle -----------------------------------------------------------

    def supervise(self, node: PeerNode) -> None:
        """Start ``node`` and watch its tasks until told otherwise."""
        self._nodes[node.node_id] = node
        tasks = node.start()
        self._watch(node, tasks)

    def _watch(self, node: PeerNode, tasks: "list[asyncio.Task]") -> None:
        watcher = asyncio.create_task(
            self._watch_node(node, tasks), name=f"supervise-{node.node_id}"
        )
        self._watchers[node.node_id] = watcher

    async def _watch_node(self, node: PeerNode, tasks: "list[asyncio.Task]") -> None:
        done, pending = await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
        crashed = any(
            not t.cancelled() and t.exception() is not None for t in done
        )
        if node.node_id in self._killed or not crashed:
            return
        self.stats.node_crashes += 1
        count = self._crashes.get(node.node_id, 0) + 1
        self._crashes[node.node_id] = count
        self._incident(node.node_id, "crash", {"count": count})
        # Tear the wreck down fully before deciding whether to restart.
        await node.stop()
        if count > MAX_RESTARTS:
            self._given_up.add(node.node_id)
            self.stats.node_gave_up += 1
            self._incident(node.node_id, "gave_up", {"count": count})
            return
        backoff = min(
            self.config.restart_backoff * (2.0 ** (count - 1)),
            self.config.restart_backoff_max,
        )
        # Jitter spreads correlated restarts (e.g. a bug tripping many
        # nodes at once) so they do not re-crash in lockstep.
        await asyncio.sleep(backoff * (0.5 + self._rng.random()))
        if node.node_id in self._killed:
            return
        self.stats.node_restarts += 1
        self._incident(node.node_id, "restart", {"count": count})
        new_tasks = node.start()
        self._watch(node, new_tasks)

    def _incident(self, node_id: int, kind: str, detail: "dict | None" = None) -> None:
        if self.on_incident is not None:
            self.on_incident(int(node_id), kind, dict(detail or {}))

    # -- scenario controls -----------------------------------------------------

    def kill(self, node_id: int) -> None:
        """Deliberate, silent kill: no restart, no goodbye on the wire."""
        self._killed.add(node_id)
        node = self._nodes.get(node_id)
        if node is not None:
            node.crash()
        watcher = self._watchers.pop(node_id, None)
        if watcher is not None:
            watcher.cancel()
        self._incident(node_id, "kill", {})

    def restart_count(self, node_id: int) -> int:
        return self._crashes.get(node_id, 0)

    def is_killed(self, node_id: int) -> bool:
        return node_id in self._killed

    def gave_up(self) -> "set[int]":
        return set(self._given_up)

    async def shutdown(self) -> None:
        """Stop every watcher and node (end of run)."""
        for watcher in self._watchers.values():
            watcher.cancel()
        for watcher in self._watchers.values():
            try:
                await watcher
            except (asyncio.CancelledError, Exception):
                pass
        self._watchers.clear()
        for node in self._nodes.values():
            await node.stop()
