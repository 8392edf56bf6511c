"""SELECT's construction settings: three knobs, and the constants it builds with.

The paper gives SELECT one parameter, ``K = |H|`` — the long-link count,
the incoming-link cap and the number of LSH buckets at once — and that is
``SelectOverlay(k_links=)``, as for every baseline. :class:`SelectConfig`
holds what a caller may set besides: the round cap and the two ablation
switches. Everything else below is a single value, stated once here (the
CMA pair lives in :mod:`repro.net.availability`); a study of a different
value edits the constant in a scratch copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.exceptions import ConfigurationError

__all__ = [
    "SelectConfig",
    "LSH_SAMPLES",
    "MOVEMENT_TOLERANCE",
    "CONVERGENCE_ROUNDS",
    "MAX_MOVES",
    "MERGE_RADIUS",
    "REASSIGN_STRIDE",
    "STABILIZE_AFTER",
    "MAX_LINK_CHANGES",
    "SUCCESSOR_LIST_LENGTH",
    "CATCHUP_CAPACITY",
]

#: Bit positions sampled by the bit-sampling LSH family.
LSH_SAMPLES = 6

#: An identifier move smaller than this does not count as a change for
#: convergence purposes; it is also Alg. 2's improvement margin.
MOVEMENT_TOLERANCE = 1e-3

#: Construction is converged after this many consecutive quiet rounds (no
#: id moved beyond tolerance, no link changed beyond the noise floor).
CONVERGENCE_ROUNDS = 2

#: Per-peer budget of identifier relocations. Together with the
#: improvement gate this bounds total movement and guarantees the
#: construction converges instead of drifting indefinitely.
MAX_MOVES = 12

#: Maximum ring distance between a peer's two anchor friends for the
#: midpoint relocation to fire (the cluster guard of Algorithm 2's
#: implementation; see :func:`repro.core.reassignment.evaluate_position`).
MERGE_RADIUS = 0.05

#: Relocation rota: peer ``v`` may relocate only in rounds ``r`` with
#: ``(v + r) % REASSIGN_STRIDE == 0``. With every peer relocating in the
#: same superstep Algorithm 2 is a synchronous Jacobi iteration that locks
#: clusters into shallow fixed points; staggering lets a peer's anchors
#: settle between its own moves, recovering the clustering depth of a
#: sequential sweep. Stride 2 pairs with ``CONVERGENCE_ROUNDS = 2`` so a
#: convergence window covers both rotas.
REASSIGN_STRIDE = 2

#: A peer pauses link reassignment after this many consecutive rounds
#: without a link change; learning about a previously unseen friend
#: re-opens it. This lets the network quiesce instead of endlessly
#: swapping equivalent links as gossip refreshes bitmaps.
STABILIZE_AFTER = 3

#: Per-peer budget of rounds in which links may change; exhausted peers
#: freeze their long links. A handful of peers can otherwise oscillate
#: forever through mutual bitmap feedback.
MAX_LINK_CHANGES = 25

#: ``r`` — successors each peer remembers (immediate successor plus
#: ``r - 1`` backups). The stabilization layer survives up to ``r - 1``
#: simultaneous ring-neighbor failures; the backups are repair state only
#: and never alter fault-free routing.
SUCCESSOR_LIST_LENGTH = 3

#: Store-and-forward: notifications a ring neighbor buffers for a
#: down/partitioned subscriber before evicting the oldest.
CATCHUP_CAPACITY = 64


@dataclass(frozen=True)
class SelectConfig:
    """What a SELECT build lets its caller choose.

    Each peer gossips with one random social friend per round (Alg. 3),
    and at join time links to up to K already-joined friends — the reason
    SELECT needs fewer iterations than Vitis/OMen (Figure 5 discussion).

    Attributes
    ----------
    max_rounds:
        Upper bound on gossip/reassignment supersteps.
    reassign_ids:
        Ablation switch: disable Algorithm 2 (identifier reassignment).
    use_lsh:
        Ablation switch: when False, long links are chosen uniformly from
        the known social neighborhood instead of via LSH buckets.
    """

    max_rounds: int = 60
    reassign_ids: bool = True
    use_lsh: bool = True

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")
