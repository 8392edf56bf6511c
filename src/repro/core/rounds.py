"""One SELECT construction round (paper Algs. 2–6 as one superstep).

The only place a round is written; the plain build
(:meth:`repro.core.select.SelectOverlay.build`) and the sharded one
(:mod:`repro.shard`) both run these phases in this order:

1. :func:`exchange_phase` — the whole network's gossip partner draws
   (Alg. 3 line 2), the passive-thread quantities of Algs. 3–4 as
   vectorized kernels (:mod:`repro.core.vectorized`), and the fold of
   each result into the two peers' knowledge. An ``owned_mask`` restricts
   the fold to the vertices a shard worker owns; no mask is the plain
   build.
2. :func:`propose_ids` — Alg. 2 for every peer allowed to relocate.
3. Link reassignment (Algs. 5–6, :mod:`repro.core.links`) — the one step
   the two builds *schedule* differently: the plain build plans and
   applies each vertex's diff in turn against the live admission ledger,
   the sharded build plans every vertex against the round-start ledger
   and applies the merged diffs in vertex order at the barrier. Either
   way :func:`settle_counters` then books the round's stability streaks
   and change budgets.
4. The barrier — :func:`settle_ids` deduplicates the proposals into an
   identifier delta and :func:`publish_ids` applies it (with the deferred
   bandwidth evictions and the ring refresh), identically on every
   replica.
5. :func:`end_round` — the round's trace points and the quiescence test.

:mod:`repro.core.gossip` and :func:`repro.core.reassignment.evaluate_position`
stay as the per-peer references these phases are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.vectorized import dedup_ids, draw_partners, evaluate_positions

__all__ = [
    "draw_pairs",
    "exchange_phase",
    "propose_ids",
    "settle_counters",
    "settle_ids",
    "publish_ids",
    "end_round",
]


def draw_pairs(ov, rng) -> "tuple[np.ndarray, np.ndarray]":
    """The round's ``(initiator, partner)`` exchange pairs, in draw order.

    During construction this is the only RNG consumer and its inputs
    (join flags, degrees) are static, so every replica of a sharded build
    advances an identical generator to identical pairs.
    """
    per_round = ov.config.exchanges_per_round
    actives, partners = draw_partners(
        ov._nbr_indptr, ov._nbr_indices, ov.joined, rng, per_round
    )
    return np.repeat(actives, per_round), partners.reshape(-1)


def exchange_phase(ov, rng, owned_mask=None) -> "tuple[np.ndarray, np.ndarray]":
    """Draw, compute and fold the round's exchanges; returns the full draw.

    With ``owned_mask`` only the pairs touching an owned vertex are
    computed and only owned targets learn; the filtered sequence keeps
    the global pair order, so each target sees its exchanges in the same
    order at any worker count.
    """
    fp, fq = pairs = draw_pairs(ov, rng)
    if owned_mask is None:
        to_p = to_q = np.ones(len(fp), dtype=bool)
    else:
        mine = owned_mask[fp] | owned_mask[fq]
        fp, fq = fp[mine], fq[mine]
        to_p, to_q = owned_mask[fp], owned_mask[fq]
    if fp.size == 0:
        return pairs
    # Sorted key table of every peer's current links (ring + long),
    # rebuilt per round from the cached frozenset views.
    n = ov.graph.num_nodes
    views = [t.link_view() for t in ov.tables]
    # link_view() above validated every cache; _arr is fresh.
    arrs = [t._arr for t in ov.tables]
    counts = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=n)
    owners = np.repeat(np.arange(n, dtype=np.int64), counts)
    link_keys = np.sort(owners * n + np.concatenate(arrs))
    kern = ov._xkernel
    mutual = kern.mutual_counts(fp, fq).tolist()
    # Bitmaps feed learn_exchange only, so each side is computed just
    # for the pairs whose target learns.
    bitmaps_p = iter(kern.bitmap_ints(fp[to_p], fq[to_p], link_keys))
    bitmaps_q = iter(kern.bitmap_ints(fq[to_q], fp[to_q], link_keys))
    peers = ov.peers
    for p, q, m, learn_p, learn_q in zip(
        fp.tolist(), fq.tolist(), mutual, to_p.tolist(), to_q.tolist()
    ):
        if learn_p:
            peers[p].learn_exchange(q, m, next(bitmaps_p), views[q])
        if learn_q:
            peers[q].learn_exchange(p, m, next(bitmaps_q), views[p])
    return pairs


def propose_ids(ov, owned_mask=None) -> np.ndarray:
    """Alg. 2 proposals for the whole network (current id when staying)."""
    cfg = ov.config
    cols = ov.columns
    n = ov.graph.num_nodes
    if cfg.reassign_ids:
        eligible = ov.joined & (cols.moves_done < cfg.max_moves)
        if owned_mask is not None:
            eligible &= owned_mask
        if cfg.reassign_stride > 1:
            eligible &= (np.arange(n) + ov._round_no) % cfg.reassign_stride == 0
    else:
        eligible = np.zeros(n, dtype=bool)
    return evaluate_positions(
        ov.ids,
        cols.top2,
        cols.anchor_pair,
        cols.anchor_target,
        eligible,
        ov._degs,
        tolerance=cfg.movement_tolerance,
        merge_radius=cfg.merge_radius,
    )


def settle_counters(ov, changed, owned_mask=None) -> None:
    """Book the round's link outcome on the (owned) joined peers.

    A peer counts as changed only when its link set actually differs from
    the round's start (drop+re-add of the same link is a no-op, not
    churn): that resets its stability streak and spends change budget.
    Every other joined peer extends its streak, gated-out ones included.
    """
    cols = ov.columns
    hit = np.zeros(ov.graph.num_nodes, dtype=bool)
    hit[list(changed)] = True
    live = ov.joined if owned_mask is None else ov.joined & owned_mask
    hit &= live
    cols.stable_rounds[hit] = 0
    cols.link_change_budget[hit] -= 1
    cols.stable_rounds[live & ~hit] += 1


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
    """Apply the barrier outcome to one replica; returns the move count.

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
    moved = changed_idx[diff > ov.config.movement_tolerance]
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
    return ov._quiet_rounds >= ov.config.convergence_rounds
