"""One SELECT construction round (paper Algs. 2–6 as one superstep).

The only place a round is written;
:meth:`repro.core.select.SelectOverlay.build` runs these phases in this
order:

1. :func:`exchange_phase` — the whole network's gossip partner draws
   (Alg. 3 line 2), the passive-thread quantities of Algs. 3–4 as
   vectorized kernels (:mod:`repro.core.vectorized`), and the fold of
   each result into the two peers' edge slots as scatters. It costs what
   changed: a peer's links are logged as a new row of the edge columns'
   link log only when they moved, and a slot records the row it folded,
   so an exchange whose target already folded the source's latest row
   never reaches the kernels.
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

import numpy as np

from repro.core.columns import chunks
from repro.core.config import LSH_SAMPLES, MAX_MOVES, MOVEMENT_TOLERANCE, REASSIGN_STRIDE, STABILIZE_AFTER
from repro.core.picker import packed_key
from repro.core.vectorized import dedup_ids, draw_partners, evaluate_positions
from repro.lsh.bitsampling import bucket_table
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
    """Link steps of one build (``build.links.*``): every gated-in peer's
    plan, on the batch walk, bandwidth-aware and ``use_lsh=False`` paths
    alike; only the walk re-plans."""

    planned: int = stat("link steps planned (gated-in peers)")
    replanned: int = stat("walk plans re-run against the live ledger")
    changed: int = stat("link steps that changed the peer's link set")


def exchange_phase(ov, rng) -> "tuple[np.ndarray, np.ndarray]":
    """Draw, compute and fold the round's exchanges; returns the full draw.

    The draw is the round's ``(initiator, partner)`` pairs in draw order;
    during construction it is the only RNG consumer. Each pair is two
    directed exchanges — *target* learns about *source* — in pair order,
    folded as :meth:`~repro.core.peer.PeerState.learn_exchange` would into
    the target's edge slot for the source, by array passes: a slot that
    already folded the source's latest log row (``view == link_head``) is
    skipped before the kernels run, a pair drawn twice keeps its first
    occurrence, and a changed bitmap's bucket is ``bucket_table(LSH_SAMPLES, K)[signature]``.
    """
    fp, fq = pairs = draw_partners(ov._nbr_indptr, ov._nbr_indices, rng)
    targets = np.stack((fp, fq), axis=1).reshape(-1)
    sources = np.stack((fq, fp), axis=1).reshape(-1)
    edges, kern = ov.edge_columns, ov._xkernel
    head = _log_links(ov)
    slots, _ = kern._slots(targets, sources)
    fresh = np.flatnonzero(edges.view[slots] != head[sources])
    ov.exchange_stats.folded += len(fresh)
    ov.exchange_stats.skipped += len(slots) - len(fresh)
    fresh = np.sort(fresh[np.unique(slots[fresh], return_index=True)[1]])
    # Runs fold in draw order: each writes only its own slots, and the
    # top-two merge keeps the smallest two of any grouping.
    drawn = targets, sources, slots
    for lo, hi in chunks(np.full(len(fresh), LSH_SAMPLES)):
        targets, sources, slots = (column[fresh[lo:hi]] for column in drawn)
        rows = head[sources]
        sample = ov.columns.lsh_sample[targets]
        bitmaps, popcount, bits = kern.bitmap_ints(targets, rows, edges.indptr, edges.targets, sample)
        bitmaps = np.fromiter(bitmaps, dtype=object, count=len(slots))
        stamp = edges.stamps(len(slots))

        first = edges.mutual[slots] < 0
        if first.any():
            mutual = kern.mutual_counts(targets[first], sources[first])
            edges.mutual[slots[first]] = mutual
            edges.mutual_stamp[slots[first]] = stamp[first]
            ov.columns.stable_rounds[targets[first]] = 0
            _merge_top2(ov, targets[first], sources[first], mutual)

        changed = edges.bitmap[slots] != bitmaps
        at = slots[changed]
        unseen = edges.bitmap_stamp[at] < 0
        edges.bitmap_stamp[at[unseen]] = stamp[changed][unseen]
        edges.bitmap[at] = bitmaps[changed]
        edges.key[at] = packed_key(sources[changed], popcount[changed])
        signature = bits[changed] @ (1 << np.arange(bits.shape[1])[::-1])
        edges.bucket[at] = np.where(sample[changed, -1] >= 0, bucket_table(LSH_SAMPLES, ov.k_links)[signature], -1)
        edges.view[slots] = rows
    return pairs


def _log_links(ov) -> np.ndarray:
    """Log the links of every peer whose links moved; returns the heads.

    A peer's links moved when a write went through its table
    (``links_written``) or its ``(pred, succ)`` differ from the pair its
    head row was logged with (a ring refresh stores the ring columns
    without going through the tables). Each such peer gets one new row of
    the edge columns' link log (its long links and ring neighbours, itself
    and unset pointers left out), and ``link_head[p]`` is always ``p``'s
    latest row.
    """
    ring = np.stack((ov.ring_pred, ov.ring_succ), axis=1)
    moved = np.flatnonzero(ov.links_written | (ring != ov._head_ring).any(axis=1))
    for lo, hi in chunks(np.full(len(moved), ov.long_links.shape[1] + 2)):
        part = moved[lo:hi]
        rows = ov.long_links[part]
        rank = np.arange(len(part))
        owner = np.concatenate((np.nonzero(rows >= 0)[0], rank, rank))
        links = np.concatenate((rows[rows >= 0], ring[part, 0], ring[part, 1]))
        keep = (links >= 0) & (links != part[owner])
        ov.link_head[part] = ov.edge_columns.append(owner[keep], links[keep], len(part))
    ov._head_ring[moved] = ring[moved]
    ov.links_written[moved] = False
    return ov.link_head


def _merge_top2(ov, targets: np.ndarray, friends: np.ndarray, mutual: np.ndarray) -> None:
    """Merge first contacts into their targets' top two: the two smallest
    packed keys of the old pair and the contacts, as ``_insert_top2`` keeps."""
    top2 = ov.columns.top2
    peers = np.flatnonzero(np.bincount(targets, minlength=len(top2)))
    old = top2[peers].reshape(-1)
    owner, old = np.repeat(peers, 2)[old >= 0], old[old >= 0]
    old_mutual = ov.edge_columns.mutual[ov._xkernel._slots(owner, old)[0]]
    owner, friend = np.concatenate((owner, targets)), np.concatenate((old, friends))
    key = packed_key(friend, np.concatenate((old_mutual, mutual)).astype(np.int64))
    order = np.lexsort((key, owner))
    owner, friend = owner[order], friend[order]
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    top2[peers] = -1
    for r in (0, 1):
        top2[owner[rank == r], r] = friend[rank == r]


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
        table = ov.tables[victim]
        if dst in table.long_links:
            table.drop_long(dst)
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
