"""Heterogeneous per-peer bandwidth model.

The paper's realistic experiments run browser peers on consumer-like
connections: "different peers present different bandwidth capabilities".
We draw upload/download rates from a log-normal mixture resembling consumer
access links (a slow DSL-ish mode and a fast fiber-ish mode); uploads are
asymmetric (slower than downloads), which is what makes fan-out transfers
the bottleneck in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["PeerBandwidth", "BandwidthModel"]


@dataclass(frozen=True)
class PeerBandwidth:
    """Upload/download capacity of one peer, in megabits per second."""

    upload_mbps: float
    download_mbps: float


class BandwidthModel:
    """Samples and stores per-peer bandwidth capacities.

    Parameters
    ----------
    num_peers:
        Number of peers to provision.
    fast_fraction:
        Share of peers on the fast (fiber-like) mode.
    seed:
        Randomness source.
    """

    def __init__(self, num_peers: int, fast_fraction: float = 0.3, seed=None):
        if num_peers <= 0:
            raise ConfigurationError(f"need at least one peer, got {num_peers}")
        if not (0.0 <= fast_fraction <= 1.0):
            raise ConfigurationError(f"fast_fraction must be in [0, 1], got {fast_fraction}")
        rng = as_generator(seed)
        fast = rng.random(num_peers) < fast_fraction
        # Log-normal modes (medians): slow ~ 2 Mbps up / 16 down,
        # fast ~ 20 Mbps up / 100 down, both with substantial spread.
        up = np.where(
            fast,
            rng.lognormal(mean=np.log(20.0), sigma=0.5, size=num_peers),
            rng.lognormal(mean=np.log(2.0), sigma=0.6, size=num_peers),
        )
        down = np.where(
            fast,
            rng.lognormal(mean=np.log(100.0), sigma=0.4, size=num_peers),
            rng.lognormal(mean=np.log(16.0), sigma=0.5, size=num_peers),
        )
        self.upload_mbps = np.maximum(up, 0.1)
        self.download_mbps = np.maximum(down, 0.5)

    def __len__(self) -> int:
        return len(self.upload_mbps)

    def peer(self, index: int) -> PeerBandwidth:
        """Bandwidth of one peer."""
        return PeerBandwidth(float(self.upload_mbps[index]), float(self.download_mbps[index]))
