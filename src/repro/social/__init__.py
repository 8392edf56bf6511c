"""Social-tie primitives: friendship bitmaps.

A friendship bitmap (which of my friends does peer ``u`` already link to)
is the vector the LSH link-selection step buckets; :func:`encode` makes one
over a sorted neighborhood. Eq. 2's social strength is ranked where it is
used, by the gossip-learned mutual counts (Alg. 2's two strongest known
friends, ``PeerColumns.top2``).
"""

from repro.social.bitmaps import decode, encode

__all__ = ["decode", "encode"]
