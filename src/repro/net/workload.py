"""Publish workload model (paper's citation [21], Jiang et al.).

Publishers post notifications with exponential inter-arrival times; the
per-publisher rate itself is heterogeneous (log-normally distributed), so
a minority of prolific users generates most traffic — matching measured
OSN posting behaviour and stressing the load-balance experiment (Fig. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.exceptions import ConfigurationError
from repro.util.rng import as_generator

__all__ = ["PublishEvent", "PublishWorkload"]


@dataclass(frozen=True)
class PublishEvent:
    """One notification posted by ``publisher`` at ``time``."""

    time: float
    publisher: int
    message_id: int


class PublishWorkload:
    """Generates a time-ordered stream of publish events.

    Parameters
    ----------
    num_users:
        Number of potential publishers.
    mean_rate:
        Average posts per simulated second across the population.
    rate_sigma:
        Log-normal spread of the per-user rate (0 = homogeneous).
    publisher_fraction:
        Fraction of users that ever publish.
    """

    def __init__(
        self,
        num_users: int,
        mean_rate: float = 0.01,
        rate_sigma: float = 1.0,
        publisher_fraction: float = 1.0,
        seed=None,
    ):
        if num_users <= 0:
            raise ConfigurationError(f"need at least one user, got {num_users}")
        if mean_rate <= 0:
            raise ConfigurationError(f"mean_rate must be positive, got {mean_rate}")
        if rate_sigma < 0:
            raise ConfigurationError(f"rate_sigma must be >= 0, got {rate_sigma}")
        if not math.isfinite(mean_rate * num_users):
            raise ConfigurationError(
                f"mean_rate * num_users overflows ({mean_rate} * {num_users}); "
                "scale the per-user rate down"
            )
        if not (0.0 < publisher_fraction <= 1.0):
            raise ConfigurationError(
                f"publisher_fraction must be in (0, 1], got {publisher_fraction}"
            )
        self.num_users = num_users
        rng = as_generator(seed)
        self._rng = rng
        is_publisher = rng.random(num_users) < publisher_fraction
        if not is_publisher.any():
            is_publisher[int(rng.integers(num_users))] = True
        raw = rng.lognormal(mean=0.0, sigma=rate_sigma, size=num_users)
        raw *= is_publisher
        total = raw.sum()
        # Normalize so the population posts mean_rate * num_users per second.
        self.rates = raw * (mean_rate * num_users / total) if total > 0 else raw
        self.publishers = np.flatnonzero(is_publisher)

    def events_until(self, horizon: float) -> list[PublishEvent]:
        """All publish events in ``[0, horizon)``, time-ordered."""
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        rng = self._rng
        events: list[PublishEvent] = []
        mid = 0
        for user in self.publishers:
            rate = float(self.rates[user])
            if rate <= 0:
                continue
            t = float(rng.exponential(1.0 / rate))
            while t < horizon:
                events.append(PublishEvent(time=t, publisher=int(user), message_id=mid))
                mid += 1
                t += float(rng.exponential(1.0 / rate))
        events.sort(key=lambda e: (e.time, e.message_id))
        return events

    @property
    def total_rate(self) -> float:
        """Population-wide posting rate (posts per second)."""
        return float(self.rates.sum())

    def reweight(self, factors: "dict[int, float]", renormalize: bool = False) -> None:
        """Scale named users' posting rates in place.

        This is how scenario shapers turn an existing workload into a
        skewed one (e.g. a celebrity publisher) without regenerating the
        whole rate vector — the untouched users keep their exact sampled
        rates, so the rest of the stream stays comparable across runs.

        ``factors`` maps user index to a non-negative multiplier. A user
        whose rate becomes positive joins :attr:`publishers`; one scaled
        to zero stops publishing. With ``renormalize=True`` the vector is
        rescaled afterwards so the population total returns to its
        previous value (pure skew, no extra traffic).
        """
        before = self.rates.sum()
        for user, factor in factors.items():
            if not (0 <= user < self.num_users):
                raise ConfigurationError(f"user {user} out of range [0, {self.num_users})")
            if not (factor >= 0.0 and math.isfinite(factor)):
                raise ConfigurationError(
                    f"reweight factor for user {user} must be finite and >= 0, got {factor}"
                )
            self.rates[user] *= factor
        total = self.rates.sum()
        if total <= 0:
            raise ConfigurationError("reweighting left no positive posting rate")
        if renormalize:
            self.rates *= before / total
        self.publishers = np.flatnonzero(self.rates > 0)
