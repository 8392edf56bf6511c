"""Shared fixtures.

Overlay construction is the expensive bit, so built overlays are
module/session scoped; tests must not mutate them (tests that need a
mutable overlay build their own small one).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LSH_SAMPLES, SelectConfig
from repro.core.picker import packed_key
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import SocialGraph
from repro.lsh.bitsampling import bucket_table


@pytest.fixture(scope="session")
def small_graph() -> SocialGraph:
    """~120-node Facebook-like graph (largest connected component)."""
    return load_dataset("facebook", num_nodes=120, seed=101)


@pytest.fixture(scope="session")
def tiny_graph() -> SocialGraph:
    """A hand-built 6-node graph with known structure.

    Topology::

        0 - 1   triangle 0-1-2, plus chain 2-3, clique 3-4-5
         \\ /
          2 - 3
              |\\
              4-5
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    return SocialGraph(6, edges, name="tiny")


@pytest.fixture(scope="session")
def built_select(small_graph) -> SelectOverlay:
    """A fully built SELECT overlay (do not mutate)."""
    return SelectOverlay(small_graph, config=SelectConfig(max_rounds=40)).build(seed=7)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


def edge_block(peer) -> "tuple[list[int], list[int]]":
    """A peer's block of the edge columns: (packed keys, buckets) per friend."""
    block = slice(peer._edge_at, peer._edge_at + len(peer.neighborhood))
    return peer._edges.key[block].tolist(), peer._edges.bucket[block].tolist()


def give_family(peer, family) -> None:
    """Hand ``peer`` the bit positions ``family`` (a ``BitSamplingLsh``)
    samples: its row of the LSH column, right-aligned, as a build draws it."""
    row = peer._cols.lsh_sample[peer._slot]
    row[:] = -1
    row[len(row) - len(family.positions) :] = family.positions


def row_bucket(peer, bitmap: int) -> int:
    """What ``BitSamplingLsh.bucket(bitmap, K)`` gives for the positions in
    ``peer``'s row (``-1`` for none): the sampled bits written out as a
    binary numeral, first position first, looked up in the bucket table."""
    row = peer._cols.lsh_sample[peer._slot]
    bits = "".join(str(bitmap >> p & 1) for p in row[row >= 0].tolist())
    return int(bucket_table(LSH_SAMPLES, peer.table.max_long)[int(bits, 2)]) if bits else -1


def assert_edge_columns_recompute(peers) -> None:
    """Every slot of every peer's edge-column block equals what the peer's
    own bitmap recomputes — ``packed_key(f, bitmap.bit_count())`` and
    :func:`row_bucket` for a known friend, ``-1`` otherwise. The columns
    are the only cache of either, and a stale slot changes a build silently
    instead of raising."""
    for peer in peers:
        known = peer.known_bitmap
        friends = peer.neighborhood.tolist()
        assert edge_block(peer) == (
            [packed_key(f, known[f].bit_count()) if f in known else -1 for f in friends],
            [row_bucket(peer, known[f]) if f in known else -1 for f in friends],
        ), peer.node


def online_reference(timeline, t: float) -> np.ndarray:
    """Who is online at ``t``, one peer at a time: the rule every
    ``ChurnSchedule.is_online`` call applied before the population shared
    one timeline, kept as the reference ``ChurnTimeline.online_at`` is
    checked against."""
    return np.array(
        [
            initially_online ^ (int(np.searchsorted(boundaries, t, side="right")) % 2 == 1)
            for boundaries, initially_online in timeline.peers()
        ]
    )
