"""The sharded multiprocess overlay construction engine.

Topology: a star of ``fork``-started worker processes around the parent.
Each worker inherits the whole overlay copy-on-write at fork time and
executes the construction supersteps for the ring arcs it owns
(:class:`~repro.shard.rounds.ShardWorkerCore`); the parent maintains the
*light* replica (identifiers, routing tables, admission ledger, RNG,
trace) and runs the barrier: it merges the workers' plan frames, settles
link reassignment and identifier deduplication globally, and broadcasts
one :class:`~repro.shard.frames.BarrierFrame` that every replica applies
identically. Heavy gossip state never crosses the boundary until the
stop barrier, when each worker hands its arcs back in an
:class:`~repro.shard.frames.ArcFrame`.

Determinism: the build is bit-identical at any worker count — and to the
``num_workers=1`` in-process path — because every non-local quantity is
either replicated (partner draws, exchange inputs) or settled once at
the barrier in vertex order (see DESIGN.md, "Sharded construction
determinism contract"). The parent keeps a running SHA-256 over every
frame byte sent or received; two same-seed runs produce identical
digests.

Fault tolerance: with a checkpoint directory the engine writes
generation directories (:mod:`repro.shard.snapshot`) — round 0 always,
then every ``checkpoint_every`` rounds. A worker crash (pipe EOF) tears
the fleet down, rolls the light replica back to the newest complete
generation, re-forks, and each new worker restores its arcs from disk —
including arcs originally written by a different worker (a *rebalance*:
the shard-to-worker map is just ``shard % num_workers``, so the same
checkpoint restores at any worker count).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import time

import numpy as np

from repro.core import rounds
from repro.persist.snapshot import _capture_peer, _restore_peer, snapshot_id
from repro.shard.frames import (
    ArcFrame,
    BarrierFrame,
    CheckpointAck,
    PlanFrame,
    decode,
    encode,
)
from repro.shard.plan import ShardPlan
from repro.shard.rounds import ShardWorkerCore, apply_plan_log
from repro.shard.snapshot import (
    capture_build_state,
    generation_dir,
    latest_generation,
    load_arc,
    load_build,
    prune_generations,
    restore_arc,
    restore_build_state,
    save_arc,
    write_build_record,
)
from repro.telemetry import NULL_REGISTRY
from repro.util.exceptions import ShardError
from repro.util.rng import as_generator

__all__ = ["ShardedOverlayEngine"]

_FRAME_KINDS = ("plan", "barrier", "checkpoint_ack", "arc")


def _worker_main(conn, overlay, plan, rng, worker, num_workers, restore_gen, fail_at):
    """Worker process body: restore owned arcs, then run the round loop.

    ``overlay``/``rng`` are the fork-inherited copies — never pickled.
    ``fail_at`` is the crash-injection test hook: ``(worker, round)``
    makes that worker die with ``os._exit`` just before sending its plan
    frame for that round.
    """
    try:
        if restore_gen is not None:
            for s in plan.worker_shards(worker, num_workers):
                _, astate = load_arc(os.path.join(restore_gen, f"shard-{s:03d}"))
                restore_arc(overlay, astate)
        core = ShardWorkerCore(overlay, plan.worker_mask(worker, num_workers), rng)
        while True:
            plans, pending, _ = core.run_round()
            if fail_at is not None and (worker, overlay._round_no) == tuple(fail_at):
                os._exit(42)
            conn.send_bytes(encode(PlanFrame(overlay._round_no, worker, plans, pending)))
            barrier = decode(conn.recv_bytes())
            changed = apply_plan_log(overlay, barrier.plans)
            rounds.settle_counters(overlay, changed, core.owned_mask)
            rounds.publish_ids(overlay, barrier.changed_idx, barrier.changed_vals)
            if barrier.checkpoint is not None:
                gen_dir, parent_id = barrier.checkpoint
                arcs = {}
                for s in plan.worker_shards(worker, num_workers):
                    arcs[s] = save_arc(
                        gen_dir, s, worker, plan, overlay, overlay._round_no, parent_id
                    )
                conn.send_bytes(encode(CheckpointAck(overlay._round_no, worker, arcs)))
            if barrier.stop:
                payload = [
                    (int(v), _capture_peer(overlay.peers[int(v)]))
                    for v in core.owned.tolist()
                ]
                rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                conn.send_bytes(encode(ArcFrame(worker, payload, rss)))
                conn.close()
                return
    except (EOFError, BrokenPipeError, ConnectionResetError, KeyboardInterrupt):
        os._exit(1)


class ShardedOverlayEngine:
    """Drives a :class:`~repro.core.select.SelectOverlay` build over arcs.

    Configuration comes from the overlay's ``SelectConfig``
    (``num_workers``, ``shards``) plus the keyword options the overlay
    passes through from ``overlay.shard_opts``. After ``build`` the
    run's accounting is in :attr:`stats` (mirrored to
    ``overlay.shard_stats`` by the caller).
    """

    def __init__(
        self,
        overlay,
        *,
        registry=None,
        checkpoint_dir: "str | None" = None,
        checkpoint_every: int = 0,
        resume_from: "str | None" = None,
        max_restarts: int = 2,
        _fail_at: "tuple[int, int] | None" = None,
    ):
        self.overlay = overlay
        self.num_workers = int(overlay.config.num_workers)
        self.num_shards = int(overlay.config.effective_shards)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.resume_from = resume_from
        self.max_restarts = int(max_restarts)
        self._fail_at = _fail_at
        self.stats: dict = {}
        # run accounting (the registry mirrors these as shard.* metrics)
        self.rounds = 0
        self.restarts = 0
        self.checkpoints = 0
        self.rebalances = 0
        self.cross_arc_pairs = 0
        self.boundary_bytes = 0
        self.barrier_wait = 0.0
        self.frame_counts = {k: 0 for k in _FRAME_KINDS}
        self.worker_peak_rss: list[int] = []
        self._digest = hashlib.sha256()
        self._any_frames = False
        self._procs: list = []
        self._conns: list = []
        reg = self.registry
        self._m_frames = {
            k: reg.counter("shard.frames", labels={"kind": k}) for k in _FRAME_KINDS
        }
        self._m_bytes = reg.counter("shard.boundary_bytes")
        self._m_rounds = reg.counter("shard.rounds")
        self._m_ckpt = reg.counter("shard.checkpoints")
        self._m_restarts = reg.counter("shard.restarts")
        self._m_rebal = reg.counter("shard.rebalances")
        self._m_cross = reg.counter("shard.cross_arc_pairs")
        self._m_wait = reg.histogram("shard.barrier_wait_seconds")

    # -- top level -------------------------------------------------------------

    def build(self, seed=None):
        """Run (or resume) the full sharded construction pipeline."""
        ov = self.overlay
        restore_gen = None
        if self.resume_from is not None:
            gen = latest_generation(self.resume_from)
            if gen is None:
                raise ShardError(
                    f"cannot resume: no complete checkpoint generation under "
                    f"{self.resume_from}"
                )
            rng, plan = self._rollback(gen)
            restore_gen = gen
        else:
            rng = as_generator(seed)
            ov._lsh_seed = int(rng.integers(2**31 - 1))
            ov._project(rng)
            ov._bootstrap(rng)
            ov._refresh_ring()
            plan = ShardPlan.from_ids(ov.ids, self.num_shards)
            plan.validate(ov.ids)
            if self.checkpoint_dir:
                # Round-0 generation: the parent still owns all heavy
                # state (fresh off bootstrap), so it writes every arc
                # itself. This is also what guarantees a crash at *any*
                # round has a generation to roll back to.
                self._checkpoint_full(plan, rng)
        if self.num_workers == 1:
            self._run_inline(plan, rng, restore_gen)
        else:
            self._run_forked(plan, rng, restore_gen)
        ov._materialize_successors()
        ov._mark_built()
        self.stats = {
            "workers": self.num_workers,
            "shards": plan.num_shards,
            "rounds": self.rounds,
            "iterations": ov.iterations,
            "restarts": self.restarts,
            "checkpoints": self.checkpoints,
            "rebalances": self.rebalances,
            "frames": dict(self.frame_counts),
            "boundary_bytes": self.boundary_bytes,
            "barrier_wait_s": self.barrier_wait,
            "cross_arc_pairs": self.cross_arc_pairs,
            "worker_peak_rss_kb": list(self.worker_peak_rss),
            "frame_digest": self._digest.hexdigest() if self._any_frames else None,
        }
        return ov

    # -- shared bookkeeping ----------------------------------------------------

    def _end_round(self, moves: int, link_changes: int) -> bool:
        """Trace + quiescence accounting; True when construction stops."""
        ov = self.overlay
        ov.round_link_changes += link_changes
        quiet = rounds.end_round(ov, moves)
        self.rounds += 1
        self._m_rounds.inc()
        return quiet or ov.iterations >= ov.config.max_rounds

    def _count_cross(self, plan: ShardPlan, pairs) -> None:
        fp, fq = pairs
        if len(fp) == 0 or plan.num_shards < 2:
            return
        c = int((plan.vertex_shard[fp] != plan.vertex_shard[fq]).sum())
        self.cross_arc_pairs += c
        self._m_cross.inc(c)

    def _meter(self, data: bytes, kind: str) -> None:
        self.frame_counts[kind] += 1
        self.boundary_bytes += len(data)
        if kind != "arc":
            # Arc frames carry the worker's measured peak RSS, which
            # varies run to run; the digest pins only the
            # seed-deterministic protocol stream (plan/barrier/ack).
            self._digest.update(data)
            self._any_frames = True
        self._m_frames[kind].inc()
        self._m_bytes.inc(len(data))

    def _should_checkpoint(self, stop: bool) -> bool:
        return bool(
            self.checkpoint_dir
            and self.checkpoint_every
            and not stop
            and self.overlay._round_no % self.checkpoint_every == 0
        )

    # -- checkpointing ---------------------------------------------------------

    def _checkpoint_full(self, plan: ShardPlan, rng) -> None:
        """Parent-only generation write (round 0 and the inline path)."""
        ov = self.overlay
        state = capture_build_state(ov, plan, rng, self.num_workers)
        gen = generation_dir(self.checkpoint_dir, ov._round_no)
        os.makedirs(gen, exist_ok=True)
        build_id = snapshot_id(state)
        for s in range(plan.num_shards):
            save_arc(gen, s, s % self.num_workers, plan, ov, ov._round_no, build_id)
        write_build_record(gen, state)
        prune_generations(self.checkpoint_dir)
        self.checkpoints += 1
        self._m_ckpt.inc()

    def _rollback(self, gen: str) -> "tuple[np.random.Generator, ShardPlan]":
        """Restore the light replica from a generation; count rebalances."""
        ov = self.overlay
        _, state = load_build(gen)
        plan = ShardPlan.from_dict(state["plan"])
        if plan.num_shards < self.num_workers:
            raise ShardError(
                f"checkpoint has {plan.num_shards} shards: cannot resume on "
                f"{self.num_workers} workers (every worker needs an arc)"
            )
        rng = restore_build_state(ov, state)
        for s in range(plan.num_shards):
            mpath = os.path.join(gen, f"shard-{s:03d}", "manifest.json")
            with open(mpath, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if int(manifest["worker"]) != s % self.num_workers:
                self.rebalances += 1
                self._m_rebal.inc()
        return rng, plan

    # -- inline (num_workers == 1, sharded semantics in-process) ---------------

    def _run_inline(self, plan: ShardPlan, rng, restore_gen: "str | None") -> None:
        """One replica plays parent and sole worker — the parity anchor.

        Runs the exact sharded semantics (stale-ledger plans, vertex-order
        barrier apply) with no processes and no frames, so its result is
        the fixed point every forked run must match bit-for-bit.
        """
        ov = self.overlay
        if restore_gen is not None:
            for s in range(plan.num_shards):
                _, astate = load_arc(os.path.join(restore_gen, f"shard-{s:03d}"))
                restore_arc(ov, astate)
        core = ShardWorkerCore(
            ov, np.ones(ov.graph.num_nodes, dtype=bool), rng
        )
        while True:
            # The sole worker owns every vertex: its owned slice of the
            # proposals is the whole vector.
            plans, pending, pairs = core.run_round()
            self._count_cross(plan, pairs)
            with rounds.phase_timer("barrier"):
                changed = apply_plan_log(ov, plans)
                rounds.settle_counters(ov, changed)
                moves = rounds.publish_ids(ov, *rounds.settle_ids(ov, pending))
            stop = self._end_round(moves, len(changed))
            if self._should_checkpoint(stop):
                self._checkpoint_full(plan, rng)
            if stop:
                break
        self.worker_peak_rss = [
            int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        ]

    # -- forked (num_workers > 1) ----------------------------------------------

    def _run_forked(self, plan: ShardPlan, rng, restore_gen: "str | None") -> None:
        fail_at = self._fail_at
        while True:
            try:
                self._forked_loop(plan, rng, restore_gen, fail_at)
                return
            except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
                self._teardown()
                self.restarts += 1
                self._m_restarts.inc()
                if self.restarts > self.max_restarts:
                    raise ShardError(
                        f"sharded build failed after {self.restarts} worker "
                        f"crashes (restart budget {self.max_restarts}): {exc!r}"
                    ) from exc
                if not self.checkpoint_dir:
                    raise ShardError(
                        "worker crashed and no checkpoint directory is "
                        "configured — nothing to roll back to"
                    ) from exc
                gen = latest_generation(self.checkpoint_dir)
                if gen is None:
                    raise ShardError(
                        f"worker crashed and no complete generation exists "
                        f"under {self.checkpoint_dir}"
                    ) from exc
                rng, plan = self._rollback(gen)
                restore_gen = gen
                fail_at = None  # the crash hook fires once, on attempt 0

    def _fork(self, plan, rng, restore_gen, fail_at) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conns, self._procs = [], []
        for w in range(self.num_workers):
            parent_conn, child_conn = ctx.Pipe()
            p = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.overlay,
                    plan,
                    rng,
                    w,
                    self.num_workers,
                    restore_gen,
                    fail_at,
                ),
                daemon=True,
            )
            p.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(p)

    def _teardown(self) -> None:
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=10)
        for c in self._conns:
            try:
                c.close()
            except OSError:
                pass
        self._procs, self._conns = [], []

    def _forked_loop(self, plan, rng, restore_gen, fail_at) -> None:
        ov = self.overlay
        self._fork(plan, rng, restore_gen, fail_at)
        conns = self._conns
        owned_idx = [
            np.flatnonzero(plan.worker_mask(w, self.num_workers))
            for w in range(self.num_workers)
        ]
        while True:
            # Replicate the round's draws: advances the parent RNG in
            # lockstep with every worker and feeds cross-arc telemetry.
            self._count_cross(plan, rounds.draw_pairs(ov, rng))
            frames = []
            t0 = time.perf_counter()
            for conn in conns:
                data = conn.recv_bytes()
                self._meter(data, "plan")
                frames.append(decode(data))
            wait = time.perf_counter() - t0
            self.barrier_wait += wait
            self._m_wait.observe(wait)
            pending = ov.ids.copy()
            all_plans = []
            for w, frame in enumerate(frames):
                pending[owned_idx[w]] = frame.pending
                all_plans.extend(frame.plans)
            all_plans.sort(key=lambda t: t[0])
            with rounds.phase_timer("barrier"):
                changed_idx, changed_vals = rounds.settle_ids(ov, pending)
                changed = apply_plan_log(ov, all_plans)
                moves = rounds.publish_ids(ov, changed_idx, changed_vals)
            stop = self._end_round(moves, len(changed))
            checkpoint = None
            state = None
            if self._should_checkpoint(stop):
                state = capture_build_state(ov, plan, rng, self.num_workers)
                gen = generation_dir(self.checkpoint_dir, ov._round_no)
                os.makedirs(gen, exist_ok=True)
                checkpoint = (gen, snapshot_id(state))
            bf = encode(
                BarrierFrame(
                    ov._round_no, all_plans, changed_idx, changed_vals, stop, checkpoint
                )
            )
            for conn in conns:
                conn.send_bytes(bf)
                self._meter(bf, "barrier")
            if checkpoint is not None:
                for conn in conns:
                    data = conn.recv_bytes()
                    self._meter(data, "checkpoint_ack")
                    decode(data)
                # Every arc is durably on disk: the parent record lands
                # last, completing the generation.
                write_build_record(checkpoint[0], state)
                prune_generations(self.checkpoint_dir)
                self.checkpoints += 1
                self._m_ckpt.inc()
            if stop:
                self._gather_arcs()
                return

    def _gather_arcs(self) -> None:
        """Stop barrier: pull every worker's heavy state back in."""
        ov = self.overlay
        rss = []
        for conn in self._conns:
            data = conn.recv_bytes()
            self._meter(data, "arc")
            frame = decode(data)
            for v, payload in frame.peers:
                peer = ov.peers[int(v)]
                _restore_peer(peer, payload)
                peer.lsh_family = ov.lsh_family_for(peer.node)
                peer.k_buckets = ov.k_links
            rss.append(int(frame.peak_rss_kb))
        self.worker_peak_rss = rss
        for p in self._procs:
            p.join(timeout=30)
        self._teardown()
