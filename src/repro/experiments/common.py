"""Shared experiment configuration and helpers.

The paper averages every metric over 100 independent trials on graphs of
up to 4M users; on one machine we default to fewer trials and scaled
graphs. Presets:

* ``quick``  — seconds; used by the pytest-benchmark targets.
* ``default`` — minutes; the numbers recorded in EXPERIMENTS.md.
* ``full``   — closer to paper scale (hours); for the patient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.registry import build_overlay, display_name, system_names
from repro.graphs.datasets import available_datasets, dataset_key, load_dataset
from repro.graphs.graph import SocialGraph
from repro.util.exceptions import ConfigurationError
from repro.util.rng import RngStream
from repro.util.stats import summarize

__all__ = ["ExperimentConfig", "build_system", "trial_rngs", "dataset_graph"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    datasets: tuple = ("facebook", "twitter", "gplus", "slashdot")
    systems: tuple = ("select", "symphony", "bayeux", "vitis", "omen")
    num_nodes: int = 400
    trials: int = 3
    seed: int = 2018
    lookups: int = 200
    publishers: int = 20
    k_links: "int | None" = None  # None = log2(N), the paper's default
    #: path to a saved snapshot directory; experiments that support
    #: warm-starting restore the converged overlay from here instead of
    #: re-converging (see :mod:`repro.experiments.warmstart`).
    resume_from: "str | None" = None

    def __post_init__(self):
        if self.num_nodes < 16:
            raise ConfigurationError(f"num_nodes too small: {self.num_nodes}")
        for name in ("trials", "lookups", "publishers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        unknown = [s for s in self.systems if s not in system_names() + ["random"]]
        if unknown:
            raise ConfigurationError(f"unknown systems: {unknown}")
        unknown = [d for d in self.datasets if dataset_key(d) is None]
        if unknown:
            raise ConfigurationError(f"unknown datasets: {unknown}; available: {available_datasets()}")

    # -- presets ------------------------------------------------------------

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """Small enough for CI benchmarks (seconds per experiment)."""
        return cls(
            datasets=("facebook", "slashdot"),
            num_nodes=160,
            trials=2,
            lookups=80,
            publishers=8,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """The configuration EXPERIMENTS.md records (minutes)."""
        return cls()

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """Closer to the paper's setup (hours)."""
        return cls(num_nodes=2000, trials=10, lookups=500, publishers=50)

    @classmethod
    def preset(cls, name: str) -> "ExperimentConfig":
        """Look up a preset by name."""
        presets = {"quick": cls.quick, "default": cls.default, "full": cls.full}
        if name not in presets:
            raise ConfigurationError(f"unknown preset {name!r}; options: {sorted(presets)}")
        return presets[name]()

    def with_(self, **kwargs) -> "ExperimentConfig":
        """Copy with overrides."""
        return replace(self, **kwargs)

    def digest(self) -> str:
        """Short content hash of this configuration.

        Stamped into telemetry provenance blocks so a report can be
        matched to the exact configuration (and snapshot) it came from.
        ``resume_from`` is excluded: it points at an input, it does not
        change what the configuration *is*.
        """
        import hashlib
        import json
        from dataclasses import asdict

        payload = asdict(self)
        payload.pop("resume_from", None)
        payload = {k: list(v) if isinstance(v, tuple) else v for k, v in payload.items()}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def dataset_graph(config: ExperimentConfig, dataset: str, trial: int, num_nodes: "int | None" = None) -> SocialGraph:
    """The trial's social graph (seeded per dataset+trial)."""
    stream = RngStream(config.seed)
    rng = stream.child(f"graph:{dataset}:{trial}:{num_nodes or config.num_nodes}")
    return load_dataset(dataset, num_nodes=num_nodes or config.num_nodes, seed=rng)


def build_system(
    config: ExperimentConfig,
    system: str,
    graph: SocialGraph,
    trial: int,
    **kwargs,
):
    """Build one overlay for one trial (seeded per system+trial)."""
    stream = RngStream(config.seed)
    rng = stream.child(f"overlay:{system}:{graph.name}:{trial}:{graph.num_nodes}")
    return build_overlay(system, graph, k_links=config.k_links, seed=rng, **kwargs)


def trial_rngs(config: ExperimentConfig, label: str) -> list[np.random.Generator]:
    """One independent generator per trial for measurement sampling."""
    stream = RngStream(config.seed)
    return [stream.child(f"{label}:{t}") for t in range(config.trials)]


def means(samples: "list[dict]") -> dict:
    """Each key's mean over the trials' ``samples``, dicts with the same keys."""
    return {key: summarize([s[key] for s in samples]).mean for key in samples[0]}


def select_margins(config: ExperimentConfig, rows: list[dict], key: str):
    """``(dataset, SELECT's value, {baseline: value})`` per dataset whose rows hold
    SELECT and a baseline with a positive ``key``: each "SELECT reduction" line's inputs.
    A row with capped trials (Fig. 5) has no value and is skipped."""
    for dataset in config.datasets:
        at = {r["system"]: r[key] for r in rows if r["dataset"] == dataset and not r.get("capped")}
        others = {s: v for s, v in at.items() if s != "select" and v > 0}
        if "select" in at and others:
            yield dataset, at["select"], others


def pretty(system: str) -> str:
    """Display name for reports."""
    return display_name(system)
