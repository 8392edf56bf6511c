"""Geographic distribution model (the paper's §V future-work study).

The paper's discussion closes with "a geographically distribution study
would augment our findings". This module provides that study's substrate:
peers are placed in named regions with realistic inter-region base
latencies, and — because real OSN friendships are geographically
correlated — the region assignment can follow the social graph's community
structure (multi-source BFS partition), so a user's friends mostly live in
the same region.

:class:`GeoLatencyModel` is interface-compatible with
:class:`repro.net.latency.LatencyModel` (``latency``), so every
transfer/dissemination function accepts it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import SocialGraph
from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["Region", "GeoLatencyModel", "social_region_assignment"]


@dataclass(frozen=True)
class Region:
    """One geographic region."""

    name: str
    index: int


#: default one-way base latencies between regions, in milliseconds
DEFAULT_REGION_LATENCY = np.array(
    [
        #  NA     EU     ASIA
        [10.0, 85.0, 160.0],  # NA
        [85.0, 10.0, 125.0],  # EU
        [160.0, 125.0, 12.0],  # ASIA
    ]
)

DEFAULT_REGION_NAMES = ("na", "eu", "asia")


def social_region_assignment(
    graph: SocialGraph,
    num_regions: int,
    seed=None,
) -> np.ndarray:
    """Partition peers into regions along the social graph.

    Multi-source BFS from ``num_regions`` random seeds: every peer joins
    the region whose frontier reaches it first, so regions are connected
    chunks of the friendship graph — friends co-locate, the way real OSN
    populations do.
    """
    if num_regions < 1:
        raise ConfigurationError(f"need at least one region, got {num_regions}")
    rng = as_generator(seed)
    n = graph.num_nodes
    assignment = np.full(n, -1, dtype=np.int64)
    seeds = rng.choice(n, size=min(num_regions, n), replace=False)
    frontiers: list[list[int]] = []
    for region, s in enumerate(seeds):
        assignment[s] = region
        frontiers.append([int(s)])
    remaining = n - len(seeds)
    while remaining > 0:
        progressed = False
        for region in range(len(frontiers)):
            nxt: list[int] = []
            for u in frontiers[region]:
                for v in graph.neighbors(u):
                    v = int(v)
                    if assignment[v] < 0:
                        assignment[v] = region
                        nxt.append(v)
                        remaining -= 1
            if nxt:
                progressed = True
            frontiers[region] = nxt
        if not progressed:
            # Disconnected leftovers (shouldn't happen on LCC graphs):
            # assign uniformly.
            left = np.flatnonzero(assignment < 0)
            assignment[left] = rng.integers(0, len(frontiers), size=left.size)
            remaining = 0
    return assignment


class GeoLatencyModel:
    """Region-structured latency between peers, in milliseconds."""

    def __init__(
        self,
        num_peers: int,
        region_of: "np.ndarray | None" = None,
        region_latency_ms: "np.ndarray | None" = None,
        region_names=DEFAULT_REGION_NAMES,
        jitter_ms: float = 6.0,
        seed=None,
    ):
        if num_peers <= 0:
            raise ConfigurationError(f"need at least one peer, got {num_peers}")
        rng = as_generator(seed)
        self.region_latency_ms = (
            np.asarray(region_latency_ms, dtype=np.float64)
            if region_latency_ms is not None
            else DEFAULT_REGION_LATENCY.copy()
        )
        if self.region_latency_ms.ndim != 2 or (
            self.region_latency_ms.shape[0] != self.region_latency_ms.shape[1]
        ):
            raise ConfigurationError("region_latency_ms must be square")
        num_regions = self.region_latency_ms.shape[0]
        self.regions = [Region(name=str(n), index=i) for i, n in enumerate(region_names[:num_regions])]
        if region_of is not None:
            region_of = np.asarray(region_of, dtype=np.int64)
            if region_of.shape != (num_peers,):
                raise ConfigurationError("region_of must have one entry per peer")
            if region_of.size and (region_of.min() < 0 or region_of.max() >= num_regions):
                raise ConfigurationError("region_of indexes outside the latency matrix")
            self.region_of = region_of
        else:
            self.region_of = rng.integers(0, num_regions, size=num_peers)
        self._peer_jitter = rng.exponential(jitter_ms, size=num_peers) if jitter_ms > 0 else np.zeros(num_peers)

    def __len__(self) -> int:
        return len(self.region_of)

    def latency(self, u: int, v: int) -> float:
        """One-way latency of the (u, v) link in milliseconds."""
        if u == v:
            return 0.0
        base = float(self.region_latency_ms[self.region_of[u], self.region_of[v]])
        return base + float(self._peer_jitter[u] + self._peer_jitter[v]) / 2.0

    def intra_region_fraction(self, edges) -> float:
        """Fraction of the given (u, v) links that stay within one region."""
        edges = list(edges)
        if not edges:
            return 1.0
        same = sum(1 for u, v in edges if self.region_of[u] == self.region_of[v])
        return same / len(edges)
