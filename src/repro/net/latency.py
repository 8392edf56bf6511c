"""Per-link latency model.

Peers are placed at random coordinates on a unit square representing
geographic spread; one-way link latency is a propagation term proportional
to the coordinate distance plus a base (stack/last-mile) term with jitter.
This gives the triangle-inequality-respecting heterogeneous latencies the
paper's VM deployment emulated through its network interface.
"""

from __future__ import annotations

import numpy as np

from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["LatencyModel"]


class LatencyModel:
    """Coordinate-based latency between peers, in milliseconds."""

    def __init__(
        self,
        num_peers: int,
        base_ms: float = 10.0,
        propagation_ms: float = 120.0,
        jitter_ms: float = 5.0,
        seed=None,
    ):
        if num_peers <= 0:
            raise ConfigurationError(f"need at least one peer, got {num_peers}")
        if base_ms < 0 or propagation_ms < 0 or jitter_ms < 0:
            raise ConfigurationError("latency parameters must be non-negative")
        rng = as_generator(seed)
        self.coords = rng.random((num_peers, 2))
        self.base_ms = base_ms
        self.propagation_ms = propagation_ms
        # Per-peer jitter contribution is fixed at provisioning time so that
        # latency(u, v) is deterministic across queries.
        self._peer_jitter = rng.exponential(jitter_ms, size=num_peers) if jitter_ms > 0 else np.zeros(num_peers)

    def __len__(self) -> int:
        return len(self.coords)

    def latency(self, u: int, v: int) -> float:
        """One-way latency of the (u, v) link in milliseconds."""
        if u == v:
            return 0.0
        dist = float(np.linalg.norm(self.coords[u] - self.coords[v]))
        return self.base_ms + self.propagation_ms * dist + float(self._peer_jitter[u] + self._peer_jitter[v]) / 2.0
