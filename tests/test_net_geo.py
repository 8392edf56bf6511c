"""Geographic distribution model (§V future-work study)."""

import numpy as np
import pytest

from repro.net.geo import GeoLatencyModel, social_region_assignment
from repro.util.exceptions import ConfigurationError


class TestSocialRegionAssignment:
    def test_every_peer_assigned(self, small_graph):
        regions = social_region_assignment(small_graph, 3, seed=1)
        assert regions.shape == (small_graph.num_nodes,)
        assert regions.min() >= 0 and regions.max() < 3

    def test_friends_colocate(self, small_graph):
        regions = social_region_assignment(small_graph, 3, seed=2)
        same = sum(1 for u, v in small_graph.edges() if regions[u] == regions[v])
        frac = same / small_graph.num_edges
        # BFS partition keeps most friendships inside one region...
        assert frac > 0.5
        # ...vs ~1/3 for random assignment.
        rng = np.random.default_rng(0)
        rand = rng.integers(0, 3, size=small_graph.num_nodes)
        rand_frac = (
            sum(1 for u, v in small_graph.edges() if rand[u] == rand[v])
            / small_graph.num_edges
        )
        assert frac > rand_frac

    def test_single_region(self, small_graph):
        regions = social_region_assignment(small_graph, 1, seed=3)
        assert (regions == 0).all()

    def test_deterministic(self, small_graph):
        a = social_region_assignment(small_graph, 3, seed=4)
        b = social_region_assignment(small_graph, 3, seed=4)
        assert np.array_equal(a, b)

    def test_invalid_region_count(self, small_graph):
        with pytest.raises(ConfigurationError):
            social_region_assignment(small_graph, 0)


class TestGeoLatencyModel:
    def test_intra_cheaper_than_inter(self):
        region_of = np.array([0, 0, 1, 2])
        geo = GeoLatencyModel(4, region_of=region_of, jitter_ms=0.0, seed=1)
        assert geo.latency(0, 1) < geo.latency(0, 2) < geo.latency(0, 3)

    def test_self_zero(self):
        geo = GeoLatencyModel(3, seed=2)
        assert geo.latency(1, 1) == 0.0

    def test_symmetric(self):
        geo = GeoLatencyModel(10, seed=3)
        assert geo.latency(2, 7) == pytest.approx(geo.latency(7, 2))

    def test_intra_region_fraction(self):
        region_of = np.array([0, 0, 1, 1])
        geo = GeoLatencyModel(4, region_of=region_of, seed=5)
        assert geo.intra_region_fraction([(0, 1), (2, 3)]) == 1.0
        assert geo.intra_region_fraction([(0, 2), (1, 3)]) == 0.0
        assert geo.intra_region_fraction([]) == 1.0

    def test_transfer_functions_accept_geo_model(self):
        from repro.net.bandwidth import BandwidthModel
        from repro.net.transfer import tree_dissemination_time

        geo = GeoLatencyModel(5, seed=6)
        bw = BandwidthModel(5, seed=6)
        t = tree_dissemination_time({0: [1, 2]}, 0, bw, geo)
        assert t > 0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(0)
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(3, region_of=np.array([0, 1]))  # wrong length
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(2, region_of=np.array([0, 9]))  # region out of range
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(2, region_latency_ms=np.zeros((2, 3)))


class TestGeoExperiment:
    def test_select_more_local_than_symphony(self, small_graph):
        from repro.experiments import geo as geo_exp
        from repro.experiments.common import ExperimentConfig

        cfg = ExperimentConfig(
            datasets=("facebook",),
            systems=("select", "symphony"),
            num_nodes=90,
            trials=1,
            lookups=20,
            publishers=4,
        )
        rows = geo_exp.run(cfg)
        at = {r["system"]: r for r in rows}
        assert at["select"]["intra_region_links"] > at["symphony"]["intra_region_links"]
        out = geo_exp.report(cfg, rows)
        assert "geographic" in out and "(3 regions" in out
