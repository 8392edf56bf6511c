"""Dataset registry mirroring the paper's Table II.

The paper evaluates on four real graphs. We register a profile per dataset
holding the *published* full-scale statistics plus generator parameters that
reproduce the graph's character (degree shape, clustering) at laptop scale.
``load_dataset("facebook", num_nodes=2000, seed=1)`` returns a seeded
synthetic stand-in; pass a SNAP edge-list path via ``edge_list`` to use the
real data instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import SocialGraph
from repro.graphs.loader import load_edge_list
from repro.util.exceptions import DatasetError

__all__ = ["DatasetProfile", "DATASETS", "available_datasets", "dataset_key", "load_dataset"]


@dataclass(frozen=True)
class DatasetProfile:
    """Published statistics and synthetic-generator parameters for a dataset.

    ``paper_users``/``paper_connections``/``paper_avg_degree`` are the values
    from Table II; ``synthetic_avg_degree`` is the degree the generator aims
    for at reduced scale (capped so that small graphs stay sparse enough to
    be interesting), and ``triangle_prob`` controls clustering.
    """

    name: str
    paper_users: int
    paper_connections: int
    paper_avg_degree: float
    synthetic_avg_degree: float
    triangle_prob: float
    default_num_nodes: int
    description: str

    def generate(self, num_nodes: int | None = None, seed=None) -> SocialGraph:
        """Generate the synthetic stand-in at ``num_nodes`` scale."""
        n = int(num_nodes or self.default_num_nodes)
        if n < 8:
            raise DatasetError(f"dataset {self.name}: need >= 8 nodes, got {n}")
        # Keep the degree below the node count so tiny test graphs work.
        avg_degree = min(self.synthetic_avg_degree, max(2.0, n / 8.0))
        return powerlaw_cluster_graph(
            n,
            avg_degree,
            triangle_prob=self.triangle_prob,
            seed=seed,
            name=self.name,
        )


DATASETS: dict[str, DatasetProfile] = {
    "facebook": DatasetProfile(
        name="facebook",
        paper_users=63_731,
        paper_connections=817_090,
        paper_avg_degree=25.642,
        synthetic_avg_degree=25.6,
        triangle_prob=0.7,
        default_num_nodes=1_500,
        description="WOSN 2009 Facebook friendship graph (less connected).",
    ),
    "twitter": DatasetProfile(
        name="twitter",
        paper_users=3_990_418,
        paper_connections=294_865_207,
        paper_avg_degree=73.89,
        synthetic_avg_degree=74.0,
        triangle_prob=0.55,
        default_num_nodes=2_500,
        description="SNAP Twitter follow graph (large scale, highly connected).",
    ),
    "slashdot": DatasetProfile(
        name="slashdot",
        paper_users=82_168,
        paper_connections=948_463,
        paper_avg_degree=11.543,
        synthetic_avg_degree=11.5,
        triangle_prob=0.4,
        default_num_nodes=1_500,
        description="SNAP Slashdot Zoo signed friend/foe graph (sparse).",
    ),
    "gplus": DatasetProfile(
        name="gplus",
        paper_users=107_614,
        paper_connections=13_673_453,
        paper_avg_degree=127.0,
        synthetic_avg_degree=127.0,
        triangle_prob=0.6,
        default_num_nodes=2_000,
        description="SNAP Google Plus ego-network union (densest).",
    ),
}


def available_datasets() -> list[str]:
    """Names of the registered dataset profiles (paper order)."""
    return ["facebook", "twitter", "gplus", "slashdot"]


def dataset_key(name: str) -> "str | None":
    """The :data:`DATASETS` key ``name`` means, or None for no dataset.

    Case and spaces are ignored and ``+`` reads as ``plus``, so
    ``Google+`` and ``googleplus`` both name ``gplus``.
    """
    key = name.lower().replace("+", "plus").replace(" ", "")
    if key == "googleplus":
        key = "gplus"
    return key if key in DATASETS else None


def load_dataset(
    name: str,
    num_nodes: int | None = None,
    seed=None,
    edge_list: str | None = None,
) -> SocialGraph:
    """Load a dataset by name.

    With ``edge_list`` set, the real SNAP file is parsed (optionally
    subsampled to ``num_nodes`` by the loader); otherwise a seeded synthetic
    stand-in with matched statistics is generated.
    """
    key = dataset_key(name)
    if key is None:
        raise DatasetError(f"unknown dataset {name!r}; available: {available_datasets()}")
    profile = DATASETS[key]
    if edge_list is not None:
        return load_edge_list(edge_list, name=profile.name, max_nodes=num_nodes)
    return profile.generate(num_nodes=num_nodes, seed=seed)
