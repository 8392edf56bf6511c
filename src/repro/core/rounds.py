"""One SELECT construction round (paper Algs. 2–6 as one superstep).

The only place a round is written;
:meth:`repro.core.select.SelectOverlay.build` runs these phases in this
order:

1. :func:`exchange_phase` — the whole network's gossip partner draws
   (Alg. 3 line 2), the passive-thread quantities of Algs. 3–4 as
   vectorized kernels (:mod:`repro.core.vectorized`), and the fold of
   each result into the two peers' knowledge. It costs what changed:
   link views are version tokens
   (:meth:`~repro.overlay.base.RoutingTable.link_view`), so an exchange
   whose target already folded the source's current view never reaches
   the kernels.
2. :func:`propose_ids` — Alg. 2 for every peer allowed to relocate.
3. Link reassignment (Algs. 5–6) — :func:`link_gate` names the vertices
   whose step runs, one kernel plans them all against the round-start
   ledger (:func:`repro.core.vectorized.plan_round`), and the build
   applies the plans at once, in vertex order, with live-ledger
   semantics — a peer whose plan an earlier apply outdated re-plans
   through :func:`repro.core.links.create_links`
   (``SelectOverlay._walk_plans``). :func:`settle_counters` then books
   stability streaks and change budgets.
4. The barrier — :func:`settle_ids` deduplicates the proposals into an
   identifier delta and :func:`publish_ids` applies it (with the deferred
   bandwidth evictions and the ring refresh).
5. :func:`end_round` — the round's trace points and the quiescence test.

The build wraps phases 1–4 in :func:`phase_timer` (``build.phase.*`` in
the current metrics registry; no-ops by default) and counts into the
overlay's :class:`ExchangeStats` and :class:`LinkStats`.

:mod:`repro.core.gossip` and :func:`repro.core.reassignment.evaluate_position`
stay as the per-peer references these phases are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.config import MAX_MOVES, MOVEMENT_TOLERANCE, REASSIGN_STRIDE, STABILIZE_AFTER
from repro.core.vectorized import dedup_ids, draw_partners, evaluate_positions
from repro.telemetry.registry import Stats, get_registry, stat

__all__ = [
    "ExchangeStats",
    "LinkStats",
    "exchange_phase",
    "propose_ids",
    "link_gate",
    "phase_timer",
    "settle_counters",
    "settle_ids",
    "publish_ids",
    "end_round",
]


@dataclass
class ExchangeStats(Stats):
    """Directed exchanges of one build's exchange phase (``build.exchange.*``)."""

    folded: int = stat("directed exchanges folded into the target's knowledge")
    skipped: int = stat("directed exchanges whose target already folded the source's view")


@dataclass
class LinkStats(Stats):
    """Link steps of one build's batch-planned walk (``build.links.*``)."""

    planned: int = stat("link steps planned by the round kernel")
    replanned: int = stat("planned link steps re-run against the live ledger")
    changed: int = stat("link steps that changed the peer's link set")


def exchange_phase(ov, rng) -> "tuple[np.ndarray, np.ndarray]":
    """Draw, compute and fold the round's exchanges; returns the full draw.

    The draw is the round's ``(initiator, partner)`` pairs in draw order;
    during construction it is the only RNG consumer. Each pair is two
    directed exchanges — *target* learns about *source* — kept in pair
    order (p's side, then q's).

    An exchange whose target already holds the source's current link view
    (``lookahead[source] is view``) is dropped before the kernels run: by
    :meth:`~repro.core.peer.PeerState.learn_exchange`'s contract that view
    is folded, and folding it again would change nothing. Of the rest,
    only first contacts need a mutual count (it is static; ``known_mutual``
    answers re-exchanges), and an unchanged bitmap only refreshes the
    lookahead entry.
    """
    fp, fq = pairs = draw_partners(ov._nbr_indptr, ov._nbr_indices, rng)
    targets = np.stack((fp, fq), axis=1).reshape(-1)
    sources = np.stack((fq, fp), axis=1).reshape(-1)
    peers = ov.peers
    views = [t.link_view() for t in ov.tables]
    lt, ls = targets.tolist(), sources.tolist()
    fresh = np.fromiter(
        (peers[t].lookahead.get(s) is not views[s] for t, s in zip(lt, ls)),
        dtype=bool,
        count=len(lt),
    )
    folded = int(fresh.sum())
    ov.exchange_stats.folded += folded
    ov.exchange_stats.skipped += len(lt) - folded
    targets, sources = targets[fresh], sources[fresh]
    lt, ls = targets.tolist(), sources.tolist()
    # The round's link table in CSR form, straight from the views.
    link_indptr = np.concatenate(([0], np.cumsum(np.fromiter(map(len, views), dtype=np.int64))))
    link_targets = np.fromiter(chain.from_iterable(views), dtype=np.int64, count=link_indptr[-1])
    kern = ov._xkernel
    bitmaps = kern.bitmap_ints(targets, sources, link_indptr, link_targets)
    first = np.fromiter(
        (s not in peers[t].known_mutual for t, s in zip(lt, ls)), dtype=bool, count=len(lt)
    )
    mutual = np.zeros(len(lt), dtype=np.int64)
    mutual[first] = kern.mutual_counts(targets[first], sources[first])
    for t, s, bitmap, m in zip(lt, ls, bitmaps, mutual.tolist()):
        peer = peers[t]
        if peer.known_bitmap.get(s) == bitmap:
            peer.lookahead[s] = views[s]
        else:
            # A pair drawn twice in one round is a first contact only once.
            peer.learn_exchange(s, peer.known_mutual.get(s, m), bitmap, views[s])
    return pairs


def propose_ids(ov) -> np.ndarray:
    """Alg. 2 proposals for the whole network (current id when staying)."""
    cols = ov.columns
    n = ov.graph.num_nodes
    if ov.config.reassign_ids:
        eligible = (cols.moves_done < MAX_MOVES) & (
            (np.arange(n) + ov._round_no) % REASSIGN_STRIDE == 0
        )
    else:
        eligible = np.zeros(n, dtype=bool)
    return evaluate_positions(
        ov.ids,
        cols.top2,
        cols.anchor_pair,
        cols.anchor_target,
        eligible,
        ov._degs,
    )


def link_gate(ov) -> "list[int]":
    """The peers whose link step runs this round, in vertex order.

    Still inside its stability window and with change budget left. Read
    once from the columns: nothing writes them during the link step of a
    build (bandwidth evictions wait for the barrier).
    """
    cols = ov.columns
    gate = (cols.stable_rounds < STABILIZE_AFTER) & (cols.link_change_budget > 0)
    return np.flatnonzero(gate).tolist()


def phase_timer(name: str):
    """The ``build.phase.<name>`` timer of the current metrics registry."""
    return get_registry().timer("build.phase." + name)


def settle_counters(ov, changed) -> None:
    """Book the round's link outcome on every peer.

    A peer counts as changed only when its link set actually differs from
    the round's start (drop+re-add of the same link is a no-op, not
    churn): that resets its stability streak and spends change budget.
    Every other peer extends its streak, gated-out ones included.
    """
    cols = ov.columns
    hit = np.zeros(ov.graph.num_nodes, dtype=bool)
    hit[list(changed)] = True
    cols.stable_rounds[hit] = 0
    cols.link_change_budget[hit] -= 1
    cols.stable_rounds[~hit] += 1


def settle_ids(ov, pending: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Deduplicate the proposals; returns the identifier delta to publish.

    Peers relocating to the midpoint of the same anchor pair would stack
    on one position; duplicates are spread deterministically so
    identifiers stay distinct (ties would otherwise degrade greedy
    routing's distance comparisons). The delta is the rows whose final
    value differs bitwise from the current identifier.
    """
    final = dedup_ids(pending)
    changed_idx = np.flatnonzero(ov.ids != final)
    return changed_idx, final[changed_idx]


def publish_ids(ov, changed_idx: np.ndarray, changed_vals: np.ndarray) -> int:
    """Apply the barrier outcome; returns the move count.

    Rows whose ring displacement exceeds the movement tolerance count as
    moves and charge ``moves_done``.
    """
    # Bandwidth evictions queued during the round land here, so a peer's
    # link set never mutates while its own link step may still be
    # pending. The eviction is link churn on the *evicted* peer: its
    # before/after comparison cannot see the loss, so it is counted here
    # or quiescence detection undercounts churn and can declare
    # convergence a round early.
    for victim, dst in ov._eviction_events:
        links = ov.tables[victim].long_links
        if dst in links:
            links.discard(dst)
            ov.peers[victim].stable_rounds = 0
            ov.round_link_changes += 1
    ov._eviction_events.clear()
    diff = np.mod(np.abs(ov.ids[changed_idx] - changed_vals), 1.0)
    diff = np.minimum(diff, 1.0 - diff)
    moved = changed_idx[diff > MOVEMENT_TOLERANCE]
    ov.columns.moves_done[moved] += 1
    ov.ids[changed_idx] = changed_vals
    ov._refresh_ring()
    ov._round_no += 1
    return len(moved)


def end_round(ov, moves: int) -> bool:
    """Trace the round and test quiescence; True when construction is quiet.

    Consumes ``ov.round_link_changes``, the round's link-change count.
    """
    ov.iterations += 1
    changes = ov.round_link_changes
    ov.round_link_changes = 0
    ov.trace.record("id_moves", ov.iterations, moves)
    ov.trace.record("link_changes", ov.iterations, changes)
    # Quiet round: identifier movement and link flux both down to a
    # residual trickle (<= 2% of peers). Gossip keeps discovering the
    # occasional unseen friend long after the overlay is organized;
    # that long tail is maintenance, not construction.
    noise_floor = max(1, ov.graph.num_nodes // 50)
    if moves <= noise_floor and changes <= noise_floor:
        ov._quiet_rounds += 1
    else:
        ov._quiet_rounds = 0
    return ov.converged
