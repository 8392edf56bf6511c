"""Log-normal churn model (paper's citation [20], Berta et al.).

Smartphone-measurement studies find session (online) and inter-session
(offline) durations to be approximately log-normal. The model produces,
per peer, an alternating schedule of online/offline intervals; peers also
carry a per-peer *availability propensity* so that some users are
chronically offline — the behaviour SELECT's CMA tracker is designed to
detect.

The Figure 6 experiment additionally enforces the paper's floor: the
number of live peers never drops below half of the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["ChurnModel", "ChurnTimeline"]


@dataclass(frozen=True)
class ChurnTimeline:
    """Alternating online/offline intervals for a whole population.

    Peer ``p`` flips state at ``boundaries[offsets[p]:offsets[p + 1]]``
    (ascending, at least one instant); ``initially_online[p]`` is its
    state before the first of them.
    """

    boundaries: np.ndarray
    offsets: np.ndarray
    initially_online: np.ndarray

    @classmethod
    def from_peers(cls, peers) -> "ChurnTimeline":
        """Timeline of ``(boundaries, initially_online)`` pairs, one a peer."""
        bounds = [np.asarray(b, dtype=np.float64) for b, _ in peers]
        if not bounds or any(b.size == 0 for b in bounds):
            raise ConfigurationError("every peer of a churn timeline needs a boundary")
        offsets = np.zeros(len(bounds) + 1, dtype=np.int64)
        np.cumsum([b.size for b in bounds], out=offsets[1:])
        initially = np.array([bool(init) for _, init in peers], dtype=bool)
        return cls(np.concatenate(bounds), offsets, initially)

    def peers(self):
        """``(boundaries, initially_online)`` per peer, in peer order."""
        return zip(np.split(self.boundaries, self.offsets[1:-1]), self.initially_online.tolist())

    def online_at(self, t: float) -> np.ndarray:
        """Who is online at time ``t``: a peer has flipped once per boundary <= t."""
        odd_flips = np.logical_xor.reduceat(self.boundaries <= t, self.offsets[:-1])
        return self.initially_online ^ odd_flips


class ChurnModel:
    """Generates log-normal churn schedules for a population of peers.

    Parameters
    ----------
    num_peers:
        Population size.
    mean_session, sigma_session:
        Log-normal parameters (of the underlying normal) for online
        session length, in simulated seconds.
    mean_offline, sigma_offline:
        Same for offline gaps.
    offline_bias_fraction:
        Fraction of peers with a strong offline bias (their offline gaps
        are stretched), modelling mostly-offline users.
    """

    def __init__(
        self,
        num_peers: int,
        mean_session: float = 600.0,
        sigma_session: float = 1.0,
        mean_offline: float = 200.0,
        sigma_offline: float = 1.0,
        offline_bias_fraction: float = 0.2,
        seed=None,
    ):
        if num_peers <= 0:
            raise ConfigurationError(f"need at least one peer, got {num_peers}")
        if mean_session <= 0 or mean_offline <= 0:
            raise ConfigurationError("mean durations must be positive")
        if not (0.0 <= offline_bias_fraction <= 1.0):
            raise ConfigurationError(
                f"offline_bias_fraction must be in [0, 1], got {offline_bias_fraction}"
            )
        self.num_peers = num_peers
        self._rng = as_generator(seed)
        self._mu_session = np.log(mean_session)
        self._sigma_session = sigma_session
        self._mu_offline = np.log(mean_offline)
        self._sigma_offline = sigma_offline
        self.offline_biased = self._rng.random(num_peers) < offline_bias_fraction

    def schedules(self, horizon: float) -> ChurnTimeline:
        """Materialize every peer's alternating schedule up to ``horizon``."""
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        rng = self._rng
        peers = []
        for biased in self.offline_biased:
            stretch = 4.0 if biased else 1.0
            initially_online = bool(rng.random() < (0.35 if biased else 0.8))
            boundaries = []
            t = 0.0
            online = initially_online
            while t < horizon:
                if online:
                    dur = float(rng.lognormal(self._mu_session, self._sigma_session))
                else:
                    dur = float(rng.lognormal(self._mu_offline, self._sigma_offline)) * stretch
                t += max(dur, 1e-6)
                boundaries.append(t)
                online = not online
            peers.append((boundaries, initially_online))
        return ChurnTimeline.from_peers(peers)

    def online_matrix(self, horizon: float, ticks: int) -> np.ndarray:
        """Boolean (ticks, num_peers) matrix of liveness at sampled instants.

        Enforces the paper's Figure 6 constraint: at every tick at least
        half the population is online (the least-recently-offline peers are
        revived when the raw schedules dip below 50%).
        """
        if ticks <= 0:
            raise ConfigurationError(f"ticks must be positive, got {ticks}")
        timeline = self.schedules(horizon)
        out = np.array(
            [timeline.online_at(t) for t in np.linspace(0.0, horizon, ticks, endpoint=False)]
        )
        floor = self.num_peers // 2
        for i in range(ticks):
            deficit = floor - int(out[i].sum())
            if deficit > 0:
                offline = np.flatnonzero(~out[i])
                revive = self._rng.choice(offline, size=deficit, replace=False)
                out[i, revive] = True
        return out
