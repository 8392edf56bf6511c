"""Locality Sensitive Hashing (Gionis/Indyk/Motwani style).

SELECT buckets the friendship bitmaps of a peer's social neighborhood into
``|H| = K`` LSH buckets and establishes one long-range link per bucket:
friends with similar bitmaps (covering the same part of the neighborhood)
collide, so picking one peer per bucket avoids redundant links while
spanning distinct zones of the overlay. The one family is bit sampling
(:class:`BitSamplingLsh`), which hashes the int friendship bitmaps that
:func:`repro.social.encode` builds.
"""

from repro.lsh.bitsampling import BitSamplingLsh

__all__ = ["BitSamplingLsh"]
