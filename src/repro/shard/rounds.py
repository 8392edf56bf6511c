"""Per-arc round execution for sharded construction.

Every replica — the parent and each worker — holds the same *light*
state (identifiers, routing tables, the admission ledger, ``moves_done``)
and keeps it in lockstep by applying the same barrier outcome in the
same order. *Heavy* gossip state (``known_*`` dicts, bitmaps, lookahead,
top-2 anchors, stability counters) is owner-private: only the worker
owning a vertex mutates or reads it, which is what makes the arcs
independent between barriers.

The round itself is :mod:`repro.core.rounds`, the same phases the plain
build runs. A worker passes its ownership mask to the exchange and
proposal phases (:meth:`ShardWorkerCore.run_round`) — every replica
replays the whole network's partner draw, so partner selection crosses
no process boundary — and the one scheduling difference is Algs. 5–6:
the worker only *plans* (:func:`~repro.core.vectorized.plan_round` over
its gate, against the round-start admission ledger, emitted as sorted net
diffs), and at the barrier every replica applies the merged plan log in
vertex order (:func:`apply_plan_log` — adds re-checked against the live
ledger, so refusals are resolved identically everywhere) before publishing the
deduplicated identifiers (:func:`~repro.core.rounds.publish_ids`).
"""

from __future__ import annotations

import numpy as np

from repro.core import rounds
from repro.core.links import apply_plan
from repro.core.rounds import publish_ids
from repro.core.vectorized import plan_round
from repro.telemetry.registry import get_registry

__all__ = ["ShardWorkerCore", "apply_plan_log", "publish_ids"]


def apply_plan_log(overlay, plans) -> "set[int]":
    """Apply a merged plan log to a replica; returns the changed vertices.

    ``plans`` must be sorted by vertex — the deterministic application
    order every replica shares.
    """
    changed: set[int] = set()
    for v, drops, adds in plans:
        links = overlay.tables[v].long_links
        if apply_plan(links, v, drops, adds, overlay._try_connect, overlay._disconnect):
            changed.add(v)
    return changed


class ShardWorkerCore:
    """Executes one arc set's share of every construction round."""

    __slots__ = ("ov", "owned_mask", "owned", "rng")

    def __init__(self, overlay, owned_mask: np.ndarray, rng):
        self.ov = overlay
        self.owned_mask = np.asarray(owned_mask, dtype=bool)
        self.owned = np.flatnonzero(self.owned_mask)
        self.rng = rng

    def run_round(self) -> "tuple[list, np.ndarray, tuple]":
        """Draws, exchange, evaluation, and planning for one round.

        Returns ``(plans, pending_owned, pairs)``: the sorted net link
        diffs for owned vertices, the owned slice of the Alg. 2
        proposals, and the round's full (initiator, partner) draw (so the
        inline engine can count cross-arc pairs without re-drawing).
        """
        ov = self.ov
        with rounds.phase_timer("exchange"):
            pairs = rounds.exchange_phase(ov, self.rng, self.owned_mask)
        with rounds.phase_timer("propose"):
            pending = rounds.propose_ids(ov, self.owned_mask)
        with rounds.phase_timer("links"):
            gate = rounds.link_gate(ov, self.owned_mask)
            plans = sorted((v, *plan) for v, plan in plan_round(ov, gate).items())
        registry = get_registry()
        registry.counter("build.links.planned").inc(len(gate))
        registry.counter("build.links.changed").inc(len(plans))
        return plans, pending[self.owned], pairs
