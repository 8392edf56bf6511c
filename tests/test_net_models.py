"""Network environment models: bandwidth, latency, transfers."""

import numpy as np
import pytest

from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.net.transfer import (
    fanout_transfer_time,
    path_transfer_time,
    tree_dissemination_time,
)
from repro.util.exceptions import ConfigurationError


class TestBandwidth:
    def test_positive_rates(self):
        bw = BandwidthModel(200, seed=1)
        assert bw.upload_mbps.min() > 0
        assert bw.download_mbps.min() > 0
        assert len(bw) == 200

    def test_download_exceeds_upload_on_average(self):
        bw = BandwidthModel(500, seed=2)
        assert bw.download_mbps.mean() > bw.upload_mbps.mean()

    def test_fast_fraction_raises_mean(self):
        slow = BandwidthModel(500, fast_fraction=0.0, seed=3)
        fast = BandwidthModel(500, fast_fraction=1.0, seed=3)
        assert fast.upload_mbps.mean() > 2 * slow.upload_mbps.mean()

    def test_peer_accessor(self):
        bw = BandwidthModel(10, seed=4)
        peer = bw.peer(3)
        assert peer.upload_mbps == pytest.approx(float(bw.upload_mbps[3]))

    def test_upload_rank_sorted(self):
        bw = BandwidthModel(50, seed=5)
        rank = bw.upload_rank()
        uploads = bw.upload_mbps[rank]
        assert all(uploads[i] >= uploads[i + 1] for i in range(len(uploads) - 1))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            BandwidthModel(0)
        with pytest.raises(ConfigurationError):
            BandwidthModel(5, fast_fraction=2.0)


class TestLatency:
    def test_symmetric(self):
        lat = LatencyModel(50, seed=1)
        assert lat.latency(3, 7) == pytest.approx(lat.latency(7, 3))

    def test_self_latency_zero(self):
        lat = LatencyModel(10, seed=2)
        assert lat.latency(4, 4) == 0.0

    def test_base_floor(self):
        lat = LatencyModel(50, base_ms=10.0, jitter_ms=0.0, seed=3)
        for u, v in [(0, 1), (5, 9), (20, 40)]:
            assert lat.latency(u, v) >= 10.0

    def test_path_latency_additive(self):
        lat = LatencyModel(10, seed=4)
        total = lat.path_latency([0, 1, 2])
        assert total == pytest.approx(lat.latency(0, 1) + lat.latency(1, 2))

    def test_single_node_path_zero(self):
        lat = LatencyModel(10, seed=4)
        assert lat.path_latency([3]) == 0.0

    def test_matrix_matches_pairwise(self):
        lat = LatencyModel(20, seed=5)
        nodes = [2, 7, 11]
        m = lat.latency_matrix(nodes)
        assert m[0, 1] == pytest.approx(lat.latency(2, 7))
        assert m[1, 2] == pytest.approx(lat.latency(7, 11))
        assert np.allclose(np.diag(m), 0.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(0)
        with pytest.raises(ConfigurationError):
            LatencyModel(5, base_ms=-1)


class TestFanoutTransfer:
    def test_known_value(self):
        # 1.2 MB = 9.6 Mbit over 9.6 Mbps -> 1000 ms.
        assert fanout_transfer_time(1.2, 9.6, 100.0, fanout=1) == pytest.approx(1000.0)

    def test_linear_in_fanout(self):
        t1 = fanout_transfer_time(1.2, 10.0, 1000.0, fanout=1)
        t4 = fanout_transfer_time(1.2, 10.0, 1000.0, fanout=4)
        assert t4 == pytest.approx(4 * t1)

    def test_download_capped(self):
        # Receiver at 1 Mbps caps the transfer even with fast sender.
        t = fanout_transfer_time(1.2, 100.0, 1.0, fanout=1)
        assert t == pytest.approx(1.2 * 8 / 1.0 * 1000.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            fanout_transfer_time(0, 1, 1)
        with pytest.raises(ConfigurationError):
            fanout_transfer_time(1, 1, 1, fanout=0)
        with pytest.raises(ConfigurationError):
            fanout_transfer_time(1, -1, 1)


class TestTreeDissemination:
    def make_env(self, n=10):
        return BandwidthModel(n, seed=1), LatencyModel(n, seed=1)

    def test_single_hop_tree(self):
        bw, lat = self.make_env()
        t = tree_dissemination_time({0: [1]}, 0, bw, lat)
        expected = lat.latency(0, 1) + fanout_transfer_time(
            1.2, float(bw.upload_mbps[0]), float(bw.download_mbps[1]), 1
        )
        assert t == pytest.approx(expected)

    def test_fanout_slows_completion(self):
        bw, lat = self.make_env()
        t1 = tree_dissemination_time({0: [1]}, 0, bw, lat)
        t3 = tree_dissemination_time({0: [1, 2, 3]}, 0, bw, lat)
        assert t3 > t1

    def test_non_tree_rejected(self):
        bw, lat = self.make_env()
        with pytest.raises(ConfigurationError):
            tree_dissemination_time({0: [1, 2], 1: [2]}, 0, bw, lat)

    def test_empty_tree_zero(self):
        bw, lat = self.make_env()
        assert tree_dissemination_time({}, 0, bw, lat) == 0.0

    def test_path_transfer_time_additive(self):
        bw, lat = self.make_env()
        t01 = path_transfer_time([0, 1], bw, lat)
        t12 = path_transfer_time([1, 2], bw, lat)
        t012 = path_transfer_time([0, 1, 2], bw, lat)
        assert t012 == pytest.approx(t01 + t12)
