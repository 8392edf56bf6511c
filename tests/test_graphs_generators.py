"""Synthetic graph generators."""

import ast
import hashlib
import os
import pathlib
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs.datasets import DATASETS, load_dataset
from repro.graphs.generators import community_graph, powerlaw_cluster_graph
from repro.graphs.graph import SocialGraph
from repro.graphs.stats import graph_stats
from repro.persist.snapshot import graph_fingerprint
from repro.util.exceptions import ConfigurationError


def networkx_reference(n: int, m: int, p: float, seed: int) -> SocialGraph:
    """networkx's Holme–Kim graph, seeded as ``powerlaw_cluster_graph`` seeds its stream.

    networkx's generator labels its nodes 0..n-1 in insertion order, so its
    edges index a ``SocialGraph`` directly.
    """
    nx_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
    g = nx.powerlaw_cluster_graph(n, m, p, seed=nx_seed)
    return SocialGraph(g.number_of_nodes(), g.edges()).largest_component()


#: (n, m, p): every profile's m and triangle probability, m = 1, p = 0 and p = 1.
GRID = [
    (400, max(1, round(profile.synthetic_avg_degree / 2)), profile.triangle_prob)
    for profile in DATASETS.values()
] + [(300, 1, 0.7), (300, 5, 0.0), (300, 5, 1.0)]


class TestSameGraphAsNetworkx:
    @pytest.mark.parametrize("seed", [1, 7, 2024])
    @pytest.mark.parametrize("n,m,p", GRID)
    def test_edge_for_edge(self, n, m, p, seed):
        expected = networkx_reference(n, m, p, seed)
        graph = powerlaw_cluster_graph(n, 2 * m, triangle_prob=p, seed=seed)
        assert graph.num_nodes == expected.num_nodes
        for v in range(n):
            assert graph.neighbors(v).tolist() == expected.neighbors(v).tolist(), v
            # Set iteration order feeds the build, so it is part of the graph.
            assert list(graph.neighbor_set(v)) == list(expected.neighbor_set(v)), v
        assert graph_fingerprint(graph) == graph_fingerprint(expected)

    @pytest.mark.parametrize("num_nodes,fingerprint", [(2000, "a8433afd4c05e1d2"), (64, "bc7df6acf4db5613")])
    def test_facebook_fingerprints_pinned(self, num_nodes, fingerprint):
        assert graph_fingerprint(load_dataset("facebook", num_nodes, seed=7)) == fingerprint

    def test_neighbor_set_order_pinned(self):
        # The order the build iterates friend sets in, as networkx-era graphs had it.
        graph = load_dataset("facebook", 2000, seed=7)
        orders = repr([list(graph.neighbor_set(v)) for v in range(graph.num_nodes)])
        assert hashlib.sha256(orders.encode()).hexdigest()[:12] == "478c9f4d85f1"


@given(
    data=st.data(),
    n=st.integers(4, 250),
    p=st.sampled_from([0.0, 0.3, 0.7, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_any_size_matches_networkx(data, n, p, seed):
    # Large m with p near 1 makes long triangle runs at a hub, where a
    # stale closed set would pick a wrong neighbour; GRID never does.
    m = data.draw(st.integers(1, n - 1), label="m")
    expected = networkx_reference(n, m, p, seed)
    graph = powerlaw_cluster_graph(n, 2 * m, triangle_prob=p, seed=seed)
    assert graph.num_nodes == expected.num_nodes
    for v in range(n):
        assert graph.neighbors(v).tolist() == expected.neighbors(v).tolist(), v
        assert list(graph.neighbor_set(v)) == list(expected.neighbor_set(v)), v
    assert graph_fingerprint(graph) == graph_fingerprint(expected)


def test_import_leaves_networkx_and_csgraph_out():
    code = (
        "import sys, repro; repro.load_dataset('facebook', 500, seed=1); "
        "print([m for m in ('networkx', 'scipy.sparse.csgraph') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    # A lazy import inside a function body never runs above; read the source.
    importers = []
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_build_publish_and_snapshot_leave_numpy_ma_out():
    """``np.unique`` without ``return_index`` imports ``numpy.ma`` (1.3 MiB
    RSS): a build, a calm publish pass and a capture/restore load none of it."""
    code = (
        "import sys, repro\n"
        "from repro.core.select import SelectOverlay\n"
        "from repro.net.workload import PublishWorkload\n"
        "from repro.persist import capture, restore\n"
        "from repro.sim.runner import NotificationSimulator\n"
        "overlay = SelectOverlay(repro.load_dataset('facebook', 300, seed=7)).build(7)\n"
        "NotificationSimulator(overlay, PublishWorkload(300, mean_rate=0.01, seed=1)).run(30.0)\n"
        "restore(capture(overlay))\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestPowerlawCluster:
    def test_degree_target_roughly_met(self):
        g = powerlaw_cluster_graph(400, avg_degree=16, seed=1)
        assert 10 <= g.average_degree() <= 22

    def test_connected(self):
        g = powerlaw_cluster_graph(200, avg_degree=8, seed=2)
        lcc = g.largest_component()
        assert lcc.num_nodes == g.num_nodes

    def test_heavy_tail(self):
        g = powerlaw_cluster_graph(500, avg_degree=10, seed=3)
        assert g.degrees.max() > 3 * g.average_degree()

    def test_clustering_present(self):
        g = powerlaw_cluster_graph(300, avg_degree=12, triangle_prob=0.8, seed=4)
        stats = graph_stats(g)
        assert stats.clustering > 0.1

    def test_deterministic_with_seed(self):
        a = powerlaw_cluster_graph(100, 8, seed=9)
        b = powerlaw_cluster_graph(100, 8, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seeds_differ(self):
        a = powerlaw_cluster_graph(100, 8, seed=9)
        b = powerlaw_cluster_graph(100, 8, seed=10)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            powerlaw_cluster_graph(3, 2)

    def test_bad_triangle_prob_rejected(self):
        with pytest.raises(ConfigurationError):
            powerlaw_cluster_graph(100, 8, triangle_prob=1.5)


class TestCommunityGraph:
    def test_basic_shape(self):
        g = community_graph(300, num_communities=6, intra_degree=10, seed=5)
        assert g.num_nodes > 200
        assert g.average_degree() > 4

    def test_single_community(self):
        g = community_graph(60, num_communities=1, intra_degree=8, seed=6)
        assert g.num_nodes > 40

    def test_zero_communities_rejected(self):
        with pytest.raises(ConfigurationError):
            community_graph(100, num_communities=0)

    def test_more_communities_than_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            community_graph(5, num_communities=10)
