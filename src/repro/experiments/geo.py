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

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, pretty, select_margins
from repro.metrics.latency import dissemination_latencies
from repro.net.bandwidth import BandwidthModel
from repro.net.geo import GeoLatencyModel, social_region_assignment
from repro.pubsub.api import PubSubSystem
from repro.util.rng import RngStream
from repro.util.stats import summarize
from repro.util.tables import format_table

__all__ = ["run", "report", "NUM_REGIONS"]

#: NA / EU / Asia.
NUM_REGIONS = 3


def _overlay_edges(overlay):
    tables = overlay.tables
    return {(min(v, w), max(v, w)) for v in range(overlay.graph.num_nodes) for w in tables[v].all_links()}


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems


def sample(config, cell, rng):
    graph = cell.graph
    env_rng = RngStream(config.seed).child(f"geo-env:{cell.dataset}:{cell.trial}")
    regions = social_region_assignment(graph, NUM_REGIONS, seed=env_rng)
    geo = GeoLatencyModel(graph.num_nodes, region_of=regions, seed=env_rng)
    bandwidth = BandwidthModel(graph.num_nodes, seed=env_rng)
    locality = geo.intra_region_fraction(_overlay_edges(cell.overlay))
    publishers = rng.integers(0, graph.num_nodes, size=config.publishers)
    times = dissemination_latencies(PubSubSystem(cell.overlay), publishers, bandwidth, geo)
    return locality, float(times.mean()) if times.size else None


def row(config, dataset, system, size, samples) -> list[dict]:
    locality, latency_ms = zip(*samples)
    return [{"dataset": dataset, "system": system, "regions": NUM_REGIONS, "intra_region_links": summarize(locality).mean,
             "latency_ms": summarize([t for t in latency_ms if t is not None]).mean}]


def run(config: ExperimentConfig) -> list[dict]:
    """Geographic locality + latency for every dataset × system."""
    return grid.rows(config, "geo")


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
