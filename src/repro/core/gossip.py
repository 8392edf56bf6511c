"""Gossip-based peer sampling (paper Algorithms 3 and 4).

Every round each peer runs the *active thread*: pick a random social
friend, send it ``<C_p, R_p>``, and receive back the mutual-friend count
plus the friend's friendship bitmap. The *passive thread* computes the
same quantities on the receiving side, so one exchange teaches both peers
about each other. Both then re-evaluate their position (Algorithm 2) and
their links (Algorithm 5).

The exchange itself is implemented as a synchronous function over the two
peers' states — in the simulator both "threads" of one exchange complete
within the same vertex-centric superstep, exactly as the paper's
Flink/Gelly implementation resolves request/response pairs inside one
iteration.

A build does not call this module: :func:`repro.core.rounds.exchange_phase`
runs a round's exchanges as batch kernels. This is the per-peer reference
those kernels are tested against (``tests/test_vectorized_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.peer import PeerState
from repro.social.bitmaps import encode

__all__ = ["exchange", "select_gossip_partner"]


def exchange(p: PeerState, q: PeerState) -> None:
    """One full ExchangeRT/ResponseExchangeRT round trip between ``p``/``q``.

    After the call:

    * both peers know their mutual-friend count (Eq. 2 numerator),
    * ``p`` holds ``q``'s friendship bitmap relative to ``C_p`` (and vice
      versa) — bit ``i`` set iff the other peer's routing table links to
      friend ``i``,
    * both peers' lookahead sets record the other's current links, as a
      new row of their edge columns' link log.
    """
    mutual = len(np.intersect1d(p.neighborhood, q.neighborhood, assume_unique=True))
    q_links = q.table.all_links()
    p_links = p.table.all_links()
    # Passive side (Alg. 4): bitmap of q's links over p's neighborhood (M),
    # and symmetric bitmap of p's links over q's neighborhood (M').
    bitmap_for_p = encode(p.neighborhood, q_links)
    bitmap_for_q = encode(q.neighborhood, p_links)
    p.learn_exchange(q.node, mutual, bitmap_for_p, q_links)
    q.learn_exchange(p.node, mutual, bitmap_for_q, p_links)


def select_gossip_partner(peer: PeerState, rng: np.random.Generator) -> "int | None":
    """Alg. 3 line 2: a random social friend (None for a peer without one)."""
    candidates = peer.neighborhood
    if candidates.size == 0:
        return None
    return int(candidates[rng.integers(candidates.size)])
