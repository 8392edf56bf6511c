"""Social-tie primitives: friendship bitmaps.

A friendship bitmap (which of my friends does peer ``u`` already link to)
is the vector the LSH link-selection step buckets. Eq. 2's social strength
is computed where it is used, from gossip-learned mutual counts
(:meth:`repro.core.peer.PeerState.strength`).
"""

from repro.social.bitmaps import BitmapCodec

__all__ = ["BitmapCodec"]
