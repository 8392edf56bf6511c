"""Geographic distribution study (the paper's §V future work).

Peers live in three regions (NA/EU/Asia) whose populations follow the
social graph's community structure — friends co-locate. Because SELECT
links socially connected peers, its overlay links are mostly
*intra-region*, so dissemination rarely pays the 85–160 ms inter-region
penalty; the social-oblivious baselines hop across oceans constantly.

Reported per dataset × system: the fraction of overlay links that stay
inside a region, and the dissemination latency of 1.2 MB notifications
under the geographic latency model.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentConfig,
    build_system,
    dataset_graph,
    pretty,
    select_margins,
    trial_rngs,
)
from repro.metrics.latency import dissemination_latencies
from repro.net.bandwidth import BandwidthModel
from repro.net.geo import GeoLatencyModel, social_region_assignment
from repro.pubsub.api import PubSubSystem
from repro.util.rng import RngStream
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report"]


def _overlay_edges(overlay):
    seen = set()
    for v in range(overlay.graph.num_nodes):
        for w in overlay.tables[v].all_links():
            seen.add((min(v, w), max(v, w)))
    return seen


def run(config: ExperimentConfig, num_regions: int = 3) -> list[dict]:
    """Geographic locality + latency for every dataset × system."""
    rows = []
    rngs = trial_rngs(config, "geo")
    stream = RngStream(config.seed)
    for dataset in config.datasets:
        for system in config.systems:
            locality = []
            latency_ms = []
            for trial in range(config.trials):
                graph = dataset_graph(config, dataset, trial)
                env_rng = stream.child(f"geo-env:{dataset}:{trial}")
                regions = social_region_assignment(graph, num_regions, seed=env_rng)
                geo = GeoLatencyModel(graph.num_nodes, region_of=regions, seed=env_rng)
                bandwidth = BandwidthModel(graph.num_nodes, seed=env_rng)
                overlay = build_system(config, system, graph, trial)
                locality.append(geo.intra_region_fraction(_overlay_edges(overlay)))
                pubsub = PubSubSystem(overlay)
                publishers = rngs[trial].integers(0, graph.num_nodes, size=config.publishers)
                times = dissemination_latencies(pubsub, publishers, bandwidth, geo)
                if times.size:
                    latency_ms.append(float(times.mean()))
            rows.append(
                {
                    "dataset": dataset,
                    "system": system,
                    "regions": num_regions,
                    "intra_region_links": summarize(locality).mean,
                    "latency_ms": summarize(latency_ms).mean,
                }
            )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the geographic study."""
    out = format_table(
        headers=["Dataset", "System", "Intra-region links", "Dissemination (ms)"],
        rows=[
            (r["dataset"], pretty(r["system"]), r["intra_region_links"], r["latency_ms"])
            for r in rows
        ],
        title=(
            f"§V geographic study ({rows[0]['regions']} regions, friends co-locate): "
            "social link selection doubles as geographic locality"
        ),
        float_fmt="{:.2f}",
    )
    lines = [out, "", "SELECT latency advantage from geographic locality:"]
    for dataset, sel, others in select_margins(config, rows, "latency_ms"):
        lines.append(f"  {dataset}: vs best baseline {100 * (1 - sel / min(others.values())):.0f}%")
    return "\n".join(lines)
