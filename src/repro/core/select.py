"""The SELECT overlay facade (paper Section III).

Construction pipeline:

1. **Growth + projection** — a join order from the growth model [19] feeds
   Algorithm 1: invited users get identifiers adjacent to their inviter,
   independent joiners get uniform hashes.
2. **Bootstrap links** — at join time a peer immediately connects to its
   inviter and a few already-joined friends (this is why SELECT needs far
   fewer iterations than Vitis/OMen, Figure 5's discussion).
3. **Gossip rounds** — a plain loop over the phases of
   :mod:`repro.core.rounds`: the whole network's partner draws, exchange
   quantities (Algs. 3–4) and identifier proposals (Alg. 2) as vectorized
   kernels over the shared column block, then link selection (Algs. 5–6)
   planned for the whole round in one kernel and applied in vertex order:
   the K-incoming cap makes admission sequential, so a peer whose plan an
   earlier peer's diff outdated re-plans against the live ledger. A
   bandwidth-aware (Fig. 7) or ``use_lsh=False`` build plans and applies
   peer by peer instead.
4. **Round barrier** — pending identifiers are deduplicated and published,
   deferred bandwidth evictions applied, and the ring refreshed, all as
   array operations; convergence is judged on the round's movement/churn.

Per-peer round state lives in a :class:`~repro.core.columns.PeerColumns`
block shared with the kernels; :class:`~repro.core.peer.PeerState` objects
are views over their slot, so the kernels and the object API mutate the
same storage.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core import rounds
from repro.core.columns import EdgeColumns, PeerColumns
from repro.core.config import (
    CONVERGENCE_ROUNDS,
    LSH_SAMPLES,
    MAX_LINK_CHANGES,
    SUCCESSOR_LIST_LENGTH,
    SelectConfig,
)
from repro.core.links import apply_plan, create_links, random_links
from repro.core.peer import PeerState
from repro.core.projection import assign_initial_ids
from repro.core.vectorized import ExchangeKernel, plan_round
from repro.graphs.graph import SocialGraph
from repro.idspace.space import ring_distance
from repro.lsh.bitsampling import sample_rows
from repro.net.bandwidth import BandwidthModel
from repro.net.availability import CmaBook
from repro.net.growth import GrowthModel
from repro.overlay.base import INCOMING_SLACK, OverlayNetwork
from repro.sim.trace import TraceRecorder
from repro.telemetry.registry import get_registry
from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["SelectOverlay"]


class SelectOverlay(OverlayNetwork):
    """SELECT's socially-embedded small-world overlay."""

    name = "SELECT"
    iterative = True

    def __init__(
        self,
        graph: SocialGraph,
        k_links: int | None = None,
        config: SelectConfig | None = None,
        bandwidth: BandwidthModel | None = None,
    ):
        self.config = config or SelectConfig()
        super().__init__(graph, k_links)
        self.upload_mbps = bandwidth.upload_mbps if bandwidth is not None else None
        n = graph.num_nodes
        #: shared per-peer scalar state; ``identifier`` aliases ``self.ids``
        #: so the kernels and the object API mutate the same storage.
        self.columns = PeerColumns(n, identifier=self.ids)
        # The graph's CSR: each peer's sorted neighborhood is its candidate
        # order (what the per-peer partner draw indexes into).
        self._degs = graph.degrees
        self._nbr_indptr, self._nbr_indices = graph.csr
        #: what every peer knows about every friend, one slot per CSR edge.
        self.edge_columns = EdgeColumns(int(self._nbr_indptr[-1]))
        #: each peer's latest row of the edge columns' link log (-1 = none
        #: yet) and the ``(pred, succ)`` pair it was logged with.
        self.link_head = np.full(n, -1, dtype=np.int64)
        self._head_ring = np.full((n, 2), -1, dtype=np.int64)
        self.peers = [
            PeerState(
                v,
                graph.neighbors(v),
                self.k_links,
                table=self.tables[v],
                columns=(self.columns, v),
                edge_columns=(self.edge_columns, int(self._nbr_indptr[v])),
            )
            for v in range(n)
        ]
        self.pending_ids = np.zeros(n, dtype=np.float64)
        self.round_link_changes = 0
        self._quiet_rounds = 0
        # Seeds every peer's LSH positions (``columns.lsh_sample``).
        self._lsh_seed = 0
        self.trace = TraceRecorder()
        #: the growth model's ``(user, inviter, step)`` columns, in join order.
        self.join_log = np.empty((3, 0), dtype=np.int64)
        #: every peer's CMA of each contact it pinged (recovery, §III-F).
        self.cma = CmaBook()
        self._xkernel = ExchangeKernel(self._nbr_indptr, self._nbr_indices)
        # Bandwidth evictions found mid-round are applied at the round
        # barrier while a build runs (True), immediately otherwise.
        self._defer_evictions = False
        self._eviction_events: list[tuple[int, int]] = []
        # Round counter driving the relocation rota (REASSIGN_STRIDE).
        self._round_no = 0
        #: what the round phases count; :meth:`build` attaches them.
        self.exchange_stats, self.link_stats = rounds.ExchangeStats(), rounds.LinkStats()

    # -- construction ----------------------------------------------------------

    def build(self, seed=None) -> "SelectOverlay":
        """Run the full construction pipeline (projection -> gossip rounds).

        A build is a function of the graph, the config and ``seed`` alone,
        so an overlay is built once: a second call raises
        ``ConfigurationError`` (make a new overlay to build again).
        """
        if self._built:
            raise ConfigurationError(f"{self.name}: already built; build a new overlay instead")
        rng = as_generator(seed)
        # Attached here, not at construction: `select-repro build` installs
        # its registry after making the overlay.
        registry = get_registry()
        registry.attach("build.exchange", self.exchange_stats)
        registry.attach("build.links", self.link_stats)
        self._lsh_seed = int(rng.integers(2**31 - 1))
        self._project(rng)
        self._bootstrap(rng)
        self._refresh_ring()
        self.iterations = 0
        self._defer_evictions = True
        try:
            for _ in range(self.config.max_rounds):
                with rounds.phase_timer("exchange"):
                    rounds.exchange_phase(self, rng)
                with rounds.phase_timer("propose"):
                    self.pending_ids[:] = rounds.propose_ids(self)
                with rounds.phase_timer("links"):
                    changed = self._reassign_links(rng)
                    rounds.settle_counters(self, changed)
                self.round_link_changes += len(changed)
                with rounds.phase_timer("barrier"):
                    moves = rounds.publish_ids(self, *rounds.settle_ids(self, self.pending_ids))
                    # Each peer keeps a head row, so fewer than 2n rows
                    # would compact to about as many.
                    edges = self.edge_columns
                    if edges.rows >= 2 * max(edges.kept, len(self.link_head)):
                        edges.compact(self.link_head)
                if rounds.end_round(self, moves):
                    break
        finally:
            self._defer_evictions = False
        self.edge_columns.compact(self.link_head)
        self._materialize_successors()
        self._mark_built()
        return self

    def _reassign_links(self, rng: np.random.Generator) -> "set[int]":
        """Algs. 5-6 for every gated-in peer, with live-ledger semantics;
        returns the peers whose link set differs from the round's start."""
        gate = rounds.link_gate(self)
        if self.config.use_lsh and self.upload_mbps is None:
            changed = self._walk_plans(gate)
        # Bandwidth and ablation builds plan each peer against the live
        # ledger at its turn (an admission there can evict a third party)
        # and apply the plan at once.
        elif self.config.use_lsh:
            changed = {v for v in gate if create_links(self.peers[v], self)}
        else:
            changed = {v for v in gate if random_links(self.peers[v], self, rng)}
        self.link_stats.planned += len(gate)
        self.link_stats.changed += len(changed)
        return changed

    def _walk_plans(self, gate: "list[int]") -> "set[int]":
        """One batch plan for the gate, applied in vertex order.

        :func:`~repro.core.vectorized.plan_round` plans against the
        round-start ledger; the walk keeps the live-ledger outcome exact. A
        plan reads the ledger only as ``incoming_count[f] < K`` for friends
        the peer knows and does *not* link to (a current link's slot is
        already ours), and nothing else it reads changes before the peer's
        turn. So a target whose full/not-full bit an apply leaves different
        from round start is noted on its social neighbours, and a peer whose
        turn comes with such a target — known, not linked, bit still
        different — runs :func:`create_links` on the live ledger instead. A
        target that filled up matters only to a plan that adds it: a
        candidate the plan passed over changes nothing by leaving.
        """
        k, incoming = self.k_links, self.incoming_count
        indptr, nbrs, key = self._nbr_indptr, self._nbr_indices, self.edge_columns.key
        plans = plan_round(self, gate)
        was_full = (incoming >= k).tolist()
        noted: "dict[int, list[int]]" = {}
        changed: set[int] = set()
        replanned = 0
        for v in gate:
            table = self.tables[v]
            plan = plans.get(v)
            adds = plan[1] if plan else ()
            flipped = v in noted and [
                t
                for t in noted[v]
                if (incoming.item(t) >= k) != was_full[t]
                and key[bisect_left(nbrs, t, indptr[v], indptr[v + 1])] >= 0  # t is known
                and (was_full[t] or t in adds)
            ]
            links = table.long_links if flipped else ()
            if flipped and any(t not in links for t in flipped):
                replanned += 1
                hit = create_links(self.peers[v], self)
                touched = set(links).symmetric_difference(table.long_links)
            elif plan:
                hit = apply_plan(self, v, *plan)
                touched = plan[0] + plan[1]
            else:
                continue
            if hit:
                changed.add(v)
            for t in touched:
                if (incoming.item(t) >= k) != was_full[t]:
                    for u in self.graph.neighbors(t).tolist():
                        noted.setdefault(u, []).append(t)
        self.link_stats.replanned += replanned
        return changed

    def _project(self, rng: np.random.Generator) -> None:
        """Growth model -> join order -> Algorithm 1 identifiers."""
        n = self.graph.num_nodes
        self.join_log = GrowthModel(self.graph, seed=rng).join_order()
        # In place: self.ids is the columns' identifier storage, shared
        # with every PeerState view.
        self.ids[:] = assign_initial_ids(n, self.join_log, seed=rng)
        self.columns.link_change_budget[:] = MAX_LINK_CHANGES
        self.columns.lsh_sample[:] = sample_rows(self._degs, LSH_SAMPLES, self._lsh_seed)
        self.pending_ids[:] = self.ids

    def _bootstrap(self, rng: np.random.Generator) -> None:
        """Immediate links to up to K already-joined social friends at join time."""
        joined_so_far = np.zeros(self.graph.num_nodes, dtype=bool)
        users, inviters, _ = self.join_log.tolist()
        for user, inviter in zip(users, inviters):
            peer = self.peers[user]
            candidates = [inviter] if inviter >= 0 else []
            friends = peer.neighborhood[joined_so_far[peer.neighborhood]]
            if friends.size:
                candidates += [int(f) for f in rng.permutation(friends) if f != inviter]
            linked = len(peer.table.long_links)
            for cand in candidates:
                if linked >= self.k_links:
                    break
                if self._try_connect(user, cand):
                    peer.table.add_long(cand)
                    linked += 1
            joined_so_far[user] = True

    def _materialize_successors(self) -> None:
        """Populate the per-table successor backup lists from the final ring.

        Nothing reads ``table.successors`` during construction (they are
        repair state for routing/stabilization), so the lists are written
        once from the sorted index instead of per round.
        """
        lists = self._ring_index.successor_matrix(SUCCESSOR_LIST_LENGTH)
        self.link_columns.successors = lists.astype(np.int32)

    # -- persistence ------------------------------------------------------------

    def snapshot(self, include_graph: bool = True) -> dict:
        """Capture this overlay's full live state (``repro.persist``).

        Returns the versioned ``{"manifest", "state"}`` snapshot dict;
        feed it to :func:`repro.persist.save` to persist on disk or to
        :meth:`restore_snapshot`/:func:`repro.persist.restore` to
        rebuild. Component state (fault plans, stabilizer, catch-up)
        lives outside the overlay — capture it with
        :func:`repro.persist.capture` directly.
        """
        from repro.persist.snapshot import capture

        return capture(self, include_graph=include_graph)

    def restore_snapshot(self, snapshot: dict) -> "SelectOverlay":
        """Overwrite this overlay's state from a snapshot (returns self).

        The overlay must wrap the same social graph (checked by
        fingerprint) with the same ``k_links``.
        """
        from repro.persist.snapshot import restore_into

        return restore_into(snapshot, self)

    # -- connection admission (K incoming cap, §III-D) ---------------------------

    def admits(self, src: int, targets) -> np.ndarray:
        """Which of ``targets`` (one id or an array) would admit a long link
        from ``src``: the K-incoming cap as one predicate of the ledger, with
        no side effects. A target admits when ``src`` already holds a slot
        there, when it has a free slot, or, with a bandwidth model (paper
        §III-D, Fig. 7), when ``src`` is faster than its slowest source."""
        rows = self.incoming_sources[targets]
        ok = (self.incoming_count[targets] < self.k_links) | (rows == src).any(axis=-1)
        if self.upload_mbps is not None:
            speeds = np.where(rows >= 0, self.upload_mbps[rows], np.inf)
            ok |= self.upload_mbps[src] > speeds.min(axis=-1)
        return ok

    def _try_connect(self, src: int, dst: int) -> bool:
        """Charge ``src`` a slot on ``dst`` when :meth:`admits` allows it.

        A held or free slot is ``try_accept_incoming``'s own test, the
        common case, which it answers without numpy calls; only a refused
        request asks :meth:`admits`. Admitted then, ``src`` takes the slot
        of ``dst``'s slowest source (paper §III-D).
        """
        if src == dst:
            return False
        if self.try_accept_incoming(src, dst):
            return True
        if not self.admits(src, dst):
            return False
        sources = self.admitted(dst)
        slowest = min(sources, key=lambda s: (float(self.upload_mbps[s]), -s))
        self.incoming_sources[dst, sources.index(slowest)] = src
        if self._defer_evictions:
            # The slot transfers now; the evicted peer's link-set
            # mutation waits for the round barrier.
            self._eviction_events.append((slowest, dst))
        else:
            self.tables[slowest].drop_long(dst)
            self.peers[slowest].stable_rounds = 0
            self.round_link_changes += 1
        return True

    def _try_connect_recovery(self, src: int, dst: int, slack: int = INCOMING_SLACK) -> bool:
        """Admission for recovery replacements: the cap gets some slack.

        At steady state every peer's incoming budget is full, so a strict
        cap would make §III-F replacements impossible exactly when they
        are needed; churn repair is allowed to oversubscribe slightly.
        """
        return src != dst and self.try_accept_incoming(src, dst, slack)

    # -- routing ---------------------------------------------------------------

    def advertised(self, u: int, v: int) -> "list[int] | None":
        """``v``'s long links and ring neighbours when ``v`` is ``u``'s friend.

        Friends exchange ``R_p`` (Alg. 3), so ``u`` knows its friend's
        table; read live from the link columns, as the router reads
        ``L_p``. None for a non-friend.
        """
        nbrs, indptr = self._nbr_indices, self._nbr_indptr
        hi = indptr.item(u + 1)
        at = bisect_left(nbrs, v, indptr.item(u), hi)
        if at == hi or nbrs.item(at) != v:
            return None
        links = self.long_links[v].tolist()
        if -1 in links:
            del links[links.index(-1) :]
        for w in (self.ring_pred.item(v), self.ring_succ.item(v)):
            if w >= 0:
                links.append(w)
        return links

    # -- convergence / analysis helpers ------------------------------------------------

    @property
    def converged(self) -> bool:
        """Whether the last round ended a run of ``CONVERGENCE_ROUNDS`` quiet rounds.

        The build's own quiescence test, not ``iterations < max_rounds``: a
        build can go quiet for the last required time on the very round the
        cap allows.
        """
        return self._quiet_rounds >= CONVERGENCE_ROUNDS

    def social_link_fraction(self) -> float:
        """Fraction of long links that connect social friends."""
        self._check_built()
        total = 0
        social = 0
        for v, peer in enumerate(self.peers):
            for w in peer.table.long_links:
                total += 1
                if self.graph.has_edge(v, w):
                    social += 1
        return social / total if total else 0.0

    def mean_friend_distance(self) -> float:
        """Average ring distance between socially connected peers.

        Figure 8's scalar: after reassignment, social clusters occupy
        compact ID regions, so this shrinks far below the 0.25 expected
        for uniformly random placement.
        """
        total = 0.0
        count = 0
        for u, v in self.graph.edges():
            total += ring_distance(float(self.ids[u]), float(self.ids[v]))
            count += 1
        return total / count if count else 0.0
