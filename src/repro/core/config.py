"""Configuration knobs for the SELECT overlay."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.exceptions import ConfigurationError

__all__ = ["SelectConfig"]


@dataclass(frozen=True)
class SelectConfig:
    """Tunable parameters of SELECT.

    Attributes
    ----------
    k_links:
        Long-range links per peer, and simultaneously the incoming-link cap
        and the LSH bucket count (the paper sets ``|H| = K``). ``None``
        selects the paper's default ``log2(N)``.
    lsh_samples:
        Bit positions sampled by the bit-sampling LSH family.
    max_rounds:
        Upper bound on gossip/reassignment supersteps.
    exchanges_per_round:
        Gossip exchanges each peer initiates per round (paper: one random
        social friend per period).
    movement_tolerance:
        An identifier move smaller than this does not count as a change for
        convergence purposes.
    convergence_rounds:
        Construction is converged after this many consecutive quiet rounds
        (no id moved beyond tolerance, no link changed).
    max_moves:
        Per-peer budget of identifier relocations. Together with the
        improvement gate this bounds total movement and guarantees the
        construction converges instead of drifting indefinitely.
    merge_radius:
        Maximum ring distance between a peer's two anchor friends for the
        midpoint relocation to fire (the cluster guard of Algorithm 2's
        implementation; see :func:`repro.core.reassignment.evaluate_position`).
    reassign_stride:
        Relocation rota: peer ``v`` may relocate only in rounds ``r`` with
        ``(v + r) % stride == 0``. With every peer relocating in the same
        superstep (stride 1) Algorithm 2 is a synchronous Jacobi iteration
        that locks clusters into shallow fixed points; staggering lets a
        peer's anchors settle between its own moves, recovering the
        clustering depth of a sequential sweep. Stride 2 pairs with the
        default ``convergence_rounds = 2`` so a convergence window covers
        both rotas.
    stabilize_after:
        A peer pauses link reassignment after this many consecutive rounds
        without a link change; learning about a previously unseen friend
        re-opens it. This lets the network quiesce instead of endlessly
        swapping equivalent links as gossip refreshes bitmaps.
    max_link_changes:
        Per-peer budget of rounds in which links may change; exhausted
        peers freeze their long links. A handful of peers can otherwise
        oscillate forever through mutual bitmap feedback.
    reassign_ids:
        Ablation switch: disable Algorithm 2 (identifier reassignment).
    use_lsh:
        Ablation switch: when False, long links are chosen uniformly from
        the known social neighborhood instead of via LSH buckets.
    bootstrap_links:
        Links each peer establishes to already-joined social friends at
        join time (before any gossip) — the reason SELECT needs fewer
        iterations than Vitis/OMen (Figure 5 discussion).
    cma_threshold:
        Recovery: CMA below which an unresponsive contact is replaced.
    cma_min_observations:
        Recovery: observations required before a replace verdict.
    successor_list_length:
        ``r`` — successors each peer remembers (immediate successor plus
        ``r - 1`` backups). The stabilization layer survives up to
        ``r - 1`` simultaneous ring-neighbor failures; the backups are
        repair state only and never alter fault-free routing.
    catchup_capacity:
        Store-and-forward: notifications a ring neighbor buffers for a
        down/partitioned subscriber before evicting the oldest.
    """

    k_links: int | None = None
    lsh_samples: int = 6
    max_rounds: int = 60
    exchanges_per_round: int = 1
    movement_tolerance: float = 1e-3
    convergence_rounds: int = 2
    max_moves: int = 12
    merge_radius: float = 0.05
    reassign_stride: int = 2
    stabilize_after: int = 3
    max_link_changes: int = 25
    reassign_ids: bool = True
    use_lsh: bool = True
    bootstrap_links: int | None = None
    cma_threshold: float = 0.5
    cma_min_observations: int = 3
    successor_list_length: int = 3
    catchup_capacity: int = 64

    def __post_init__(self):
        if self.k_links is not None and self.k_links < 1:
            raise ConfigurationError(f"k_links must be >= 1, got {self.k_links}")
        if self.lsh_samples < 1:
            raise ConfigurationError(f"lsh_samples must be >= 1, got {self.lsh_samples}")
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.exchanges_per_round < 1:
            raise ConfigurationError(
                f"exchanges_per_round must be >= 1, got {self.exchanges_per_round}"
            )
        if self.movement_tolerance <= 0:
            raise ConfigurationError(
                f"movement_tolerance must be positive, got {self.movement_tolerance}"
            )
        if self.convergence_rounds < 1:
            raise ConfigurationError(
                f"convergence_rounds must be >= 1, got {self.convergence_rounds}"
            )
        if self.max_moves < 0:
            raise ConfigurationError(f"max_moves must be >= 0, got {self.max_moves}")
        if self.stabilize_after < 1:
            raise ConfigurationError(
                f"stabilize_after must be >= 1, got {self.stabilize_after}"
            )
        if self.max_link_changes < 1:
            raise ConfigurationError(
                f"max_link_changes must be >= 1, got {self.max_link_changes}"
            )
        if not (0.0 < self.merge_radius <= 0.5):
            raise ConfigurationError(
                f"merge_radius must be in (0, 0.5], got {self.merge_radius}"
            )
        if self.reassign_stride < 1:
            raise ConfigurationError(
                f"reassign_stride must be >= 1, got {self.reassign_stride}"
            )
        if not (0.0 <= self.cma_threshold <= 1.0):
            raise ConfigurationError(
                f"cma_threshold must be in [0, 1], got {self.cma_threshold}"
            )
        if self.successor_list_length < 1:
            raise ConfigurationError(
                f"successor_list_length must be >= 1, got {self.successor_list_length}"
            )
        if self.catchup_capacity < 1:
            raise ConfigurationError(
                f"catchup_capacity must be >= 1, got {self.catchup_capacity}"
            )
