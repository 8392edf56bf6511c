"""Ablation study: which SELECT mechanism buys which result.

DESIGN.md calls out four load-bearing design choices; each variant
disables exactly one of them:

* ``no-reassign`` — Algorithm 2 off: peers keep their projection ids.
* ``no-lsh``      — Algorithm 5's LSH bucketing replaced by random
  friend links.
* ``no-lookahead`` — routing without the Symphony-style ``L_p``.
* ``no-recovery`` — §III-F off (measured on churn availability).

The full system is measured alongside for reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.experiments.common import ExperimentConfig, dataset_graph, trial_rngs
from repro.metrics.availability import churn_availability
from repro.metrics.hops import sample_friend_pairs, social_lookup_hops
from repro.metrics.relays import publish_relays
from repro.net.churn import ChurnModel
from repro.pubsub.api import PubSubSystem
from repro.util.rng import RngStream
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["VARIANTS", "run", "report"]

VARIANTS = ("full", "no-reassign", "no-lsh", "no-lookahead", "no-recovery")


def _config_for(variant: str) -> SelectConfig:
    if variant == "no-reassign":
        return SelectConfig(reassign_ids=False)
    if variant == "no-lsh":
        return SelectConfig(use_lsh=False)
    return SelectConfig()


def run(config: ExperimentConfig, dataset: "str | None" = None, churn_ticks: int = 6) -> list[dict]:
    """Measure every variant on one dataset."""
    dataset = dataset or config.datasets[0]
    rows = []
    rngs = trial_rngs(config, "ablation")
    stream = RngStream(config.seed)
    for variant in VARIANTS:
        hops_s, relays_s, iters_s, avail_s = [], [], [], []
        for trial in range(config.trials):
            graph = dataset_graph(config, dataset, trial)
            overlay = SelectOverlay(
                graph, k_links=config.k_links, config=_config_for(variant)
            ).build(seed=stream.child(f"ablation:{variant}:{trial}"))
            lookahead = variant != "no-lookahead"
            pubsub = PubSubSystem(overlay, lookahead=lookahead)
            pairs = sample_friend_pairs(graph, config.lookups, seed=rngs[trial])
            hops = social_lookup_hops(pubsub, pairs)
            hops_s.append(float(hops.mean()))
            publishers = rngs[trial].integers(0, graph.num_nodes, size=config.publishers)
            relays_s.append(publish_relays(pubsub, publishers).mean_per_path)
            iters_s.append(float(overlay.iterations))
            churn = ChurnModel(graph.num_nodes, seed=rngs[trial])
            matrix = churn.online_matrix(2000.0, churn_ticks)
            repair = None if variant == "no-recovery" else RecoveryManager(overlay).tick
            points = churn_availability(
                overlay, matrix, lookups_per_tick=20, repair=repair, seed=rngs[trial]
            )
            avail_s.append(float(np.mean([p.availability for p in points])))
        rows.append(
            {
                "dataset": dataset,
                "variant": variant,
                "hops": summarize(hops_s).mean,
                "relays_per_path": summarize(relays_s).mean,
                "iterations": summarize(iters_s).mean,
                "availability": summarize(avail_s).mean,
            }
        )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the ablation table."""
    return format_table(
        headers=["Variant", "Hops", "Relays/path", "Iterations", "Availability"],
        rows=[
            (r["variant"], r["hops"], r["relays_per_path"], r["iterations"], r["availability"])
            for r in rows
        ],
        title=f"Ablation on {rows[0]['dataset']}: each SELECT mechanism disabled in turn",
    )
