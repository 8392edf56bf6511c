"""Figures 2–5 as one trial grid.

:func:`walk` loops dataset → size → system → trial, builds each cell once
with :func:`~repro.experiments.common.build_system`, takes every requested
figure's sample from it and drops it: Fig. 2's hops and stretch at every
growth size; Figs. 3, 4 and 5's relays, forwarding load and (iterative
systems only) iterations at N. Each figure draws from its own
``trial_rngs(config, figure)`` in its own order, through its own
:class:`~repro.pubsub.api.PubSubSystem`, so its rows are the same whichever
other figures share the walk.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.baselines.registry import system_names
from repro.experiments.common import ExperimentConfig, build_system, dataset_graph, trial_rngs
from repro.metrics.hops import route_stretch, sample_friend_pairs, social_lookup_hops
from repro.metrics.load import forward_counts, load_gini, load_share_by_degree
from repro.metrics.relays import publish_relays
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize

__all__ = ["GROWTH_POINTS", "LOAD_BINS", "growth_sizes", "rows", "shared", "walk"]

#: Figure 2's x-axis: this many sizes from 0.4 N up to N.
GROWTH_POINTS = 3
#: Figure 4's equal-population social-degree bins.
LOAD_BINS = 6


def growth_sizes(config: ExperimentConfig) -> list[int]:
    """The growing network sizes on Figure 2's x-axis; the largest is N."""
    n = config.num_nodes
    return sorted({min(n, max(32, int(round(n * f)))) for f in np.linspace(0.4, 1.0, GROWTH_POINTS)})


def _hops(config, graph, overlay, rng):
    pairs = sample_friend_pairs(graph, config.lookups, seed=rng)
    hops = social_lookup_hops(PubSubSystem(overlay), pairs)
    return (float(hops.mean()), route_stretch(overlay, pairs)) if hops.size else None


def _hops_row(config, size, samples):
    hops, stretch = zip(*(s for s in samples if s is not None))
    stats, stretch = summarize(hops), np.concatenate(stretch)
    return {
        "size": size,
        "hops": stats.mean,
        "ci95": stats.ci95,
        "stretch": float(stretch.mean()),
        "stretch_p90": float(np.percentile(stretch, 90)),
    }


def _relays(config, graph, overlay, rng):
    publishers = rng.integers(0, graph.num_nodes, size=config.publishers)
    stats = publish_relays(PubSubSystem(overlay), publishers)
    return stats.mean_per_path, stats.mean_per_tree


def _relays_row(config, size, samples):
    per_path, per_tree = (summarize(values) for values in zip(*samples))
    return {"relays_per_path": per_path.mean, "relays_per_tree": per_tree.mean, "ci95": per_path.ci95}


def _load(config, graph, overlay, rng):
    publishers = rng.integers(0, graph.num_nodes, size=config.publishers)
    counts = forward_counts(PubSubSystem(overlay), publishers)
    total = counts.sum()
    max_share = 100.0 * counts.max() / total if total else 0.0
    series = load_share_by_degree(graph, counts, num_bins=LOAD_BINS)
    return load_gini(counts), float(total), max_share, series


def _load_row(config, size, samples):
    ginis, totals, max_shares, series = zip(*samples)
    degree, share = np.array(series).sum(axis=0).T / config.trials
    return {
        "gini": summarize(ginis).mean,
        "total_forwards": summarize(totals).mean,
        "max_peer_share": summarize(max_shares).mean,
        "degree_bins": [float(d) for d in degree],
        "share_percent": [float(s) for s in share],
        "top_bin_share": float(share[-1]),
    }


def _iterations(config, graph, overlay, rng):
    return float(overlay.iterations)


def _iterations_row(config, size, samples):
    stats = summarize(samples)
    return {"iterations": stats.mean, "ci95": stats.ci95}


#: figure -> (one trial's sample from a built cell, the row its trials reduce to)
_MEASURES = {
    "fig2": (_hops, _hops_row),
    "fig3": (_relays, _relays_row),
    "fig4": (_load, _load_row),
    "fig5": (_iterations, _iterations_row),
}


def _wants(figure: str, config: ExperimentConfig, size: int, system: str) -> bool:
    """Whether ``figure`` measures ``system``'s cells at ``size``."""
    if figure == "fig2":
        return True
    return size == config.num_nodes and (figure != "fig5" or system in system_names(iterative_only=True))


def _cell(config, dataset, size, system, trial, figures, rngs) -> list:
    """Build one cell, take each figure's sample from it, and drop it."""
    graph = dataset_graph(config, dataset, trial, num_nodes=size)
    overlay = build_system(config, system, graph, trial)
    return [_MEASURES[f][0](config, graph, overlay, rngs[f][trial]) for f in figures]


def walk(config: ExperimentConfig, figures) -> dict[str, list[dict]]:
    """The rows of each of ``figures``, every cell they measure built once."""
    figures = [f for f in _MEASURES if f in figures]
    rngs = {f: trial_rngs(config, f) for f in figures}
    out = {f: [] for f in figures}
    sizes = growth_sizes(config) if "fig2" in figures else [config.num_nodes]
    for dataset in config.datasets:
        for size in sizes:
            for system in config.systems:
                here = [f for f in figures if _wants(f, config, size, system)]
                if not here:
                    continue
                trials = [_cell(config, dataset, size, system, t, here, rngs) for t in range(config.trials)]
                for f, samples in zip(here, zip(*trials)):
                    row = _MEASURES[f][1](config, size, samples)
                    out[f].append({"dataset": dataset, "system": system, **row})
    return out


#: one (figures, {config: walked rows}) per open :func:`shared` block
_shared: "list[tuple[list[str], dict]]" = []


@contextmanager
def shared(names):
    """Inside this block the first :func:`rows` call walks once for every
    Fig. 2–5 experiment in ``names``, and later calls read its rows."""
    _shared.append(([f for f in _MEASURES if f in names], {}))
    try:
        yield
    finally:
        _shared.pop()


def rows(config: ExperimentConfig, figure: str) -> list[dict]:
    """``figure``'s rows: the shared walk's inside :func:`shared`, else a fresh walk."""
    figures, walked = _shared[-1] if _shared else ((), {})
    if figure not in figures:
        return walk(config, [figure])[figure]
    if config not in walked:
        walked[config] = walk(config, figures)
    return walked[config][figure]
