"""§IV-C link-count sweep.

"As the number of direct connections increases, we observe a substantial
reduction, over 90%, on the average number of hops ... as the number of
links used overcomes the logarithmic number of peers in the overlay
network, no further improvement is performed." — this experiment sweeps
the per-peer link budget K and measures SELECT's lookup hops, justifying
the paper's (and our) default of K = log2(N).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    trial_rngs,
)
from repro.metrics.hops import sample_friend_pairs, social_lookup_hops
from repro.pubsub.api import PubSubSystem
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report", "sweep_values"]


def sweep_values(num_nodes: int) -> list[int]:
    """The K values swept: 1, 2, 4, ..., past log2(N)."""
    log_n = int(np.ceil(np.log2(max(num_nodes, 2))))
    values = [1, 2, 4, log_n, log_n + 4, 2 * log_n]
    return sorted(set(v for v in values if v >= 1))


def run(config: ExperimentConfig, dataset: "str | None" = None) -> list[dict]:
    """Hop counts for SELECT across the K sweep (one dataset)."""
    dataset = dataset or config.datasets[0]
    rows = []
    rngs = trial_rngs(config, "conn_sweep")
    for k in sweep_values(config.num_nodes):
        samples = []
        for trial in range(config.trials):
            graph = dataset_graph(config, dataset, trial)
            overlay = build_system(config.with_(k_links=k), "select", graph, trial)
            pubsub = PubSubSystem(overlay)
            pairs = sample_friend_pairs(graph, config.lookups, seed=rngs[trial])
            hops = social_lookup_hops(pubsub, pairs)
            if hops.size:
                samples.append(float(hops.mean()))
        stats = summarize(samples)
        rows.append({"dataset": dataset, "k_links": k, "hops": stats.mean, "ci95": stats.ci95})
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the sweep with the log2(N) plateau marked."""
    log_n = int(np.ceil(np.log2(config.num_nodes)))
    table_rows = [
        (
            r["k_links"],
            "<-- log2(N)" if r["k_links"] == log_n else "",
            r["hops"],
            r["ci95"],
        )
        for r in rows
    ]
    title = (
        f"§IV-C sweep: SELECT lookup hops vs direct connections K "
        f"(dataset={rows[0]['dataset']}, N={config.num_nodes})"
    )
    return format_table(headers=["K", "", "Avg hops", "±95%"], rows=table_rows, title=title)
