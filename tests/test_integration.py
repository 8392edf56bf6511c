"""Cross-module integration: the paper's headline orderings end to end.

One moderately sized graph, all five systems, fixed seeds; we assert the
*shape* of the paper's results — who wins on each metric — not absolute
numbers.
"""

import numpy as np
import pytest

from repro.baselines.registry import build_overlay, system_names
from repro.graphs.datasets import load_dataset
from repro.metrics.hops import sample_friend_pairs, social_lookup_hops
from repro.metrics.load import forward_counts, load_gini
from repro.metrics.relays import publish_relays
from repro.pubsub.api import PubSubSystem


@pytest.fixture(scope="module")
def arena():
    """All five systems built over one 200-node Facebook-like graph."""
    graph = load_dataset("facebook", num_nodes=200, seed=77)
    overlays = {name: build_overlay(name, graph, seed=77) for name in system_names()}
    rng = np.random.default_rng(77)
    pairs = sample_friend_pairs(graph, 150, seed=rng)
    publishers = [int(x) for x in rng.integers(0, graph.num_nodes, size=12)]
    return graph, overlays, pairs, publishers


class TestHeadlineOrderings:
    def test_select_fewest_lookup_hops(self, arena):
        graph, overlays, pairs, _ = arena
        hops = {
            name: social_lookup_hops(PubSubSystem(ov), pairs).mean()
            for name, ov in overlays.items()
        }
        assert hops["select"] == min(hops.values())
        # Fig. 2 shape: big factor vs the social-oblivious DHTs. Measured
        # 0.683 and 0.506 here, once admitted links carry routes both ways
        # (0.614 and 0.168 when routes used outgoing links only: Bayeux's
        # fingers gained the most).
        assert hops["select"] < 0.70 * hops["symphony"]
        assert hops["select"] < 0.52 * hops["bayeux"]

    def test_select_among_fewest_relays(self, arena):
        graph, overlays, pairs, publishers = arena
        relays = {
            name: publish_relays(PubSubSystem(ov), publishers).mean_per_path
            for name, ov in overlays.items()
        }
        # Fig. 3 shape: SELECT and OMen (TCO) far below the DHTs; Bayeux worst.
        assert relays["select"] <= min(relays["symphony"], relays["vitis"], relays["bayeux"])
        assert relays["select"] < 0.4 * relays["symphony"]
        assert relays["bayeux"] == max(relays.values())

    def test_select_converges_fastest(self, arena):
        _, overlays, _, _ = arena
        iterative = {n: ov.iterations for n, ov in overlays.items() if ov.iterative}
        assert iterative["select"] == min(iterative.values())
        # Fig. 5 headline: ~75% fewer iterations than the slowest baseline.
        assert iterative["select"] < 0.5 * max(iterative.values())

    def test_select_imposes_least_forwarding_load(self, arena):
        graph, overlays, _, publishers = arena
        totals = {
            name: forward_counts(PubSubSystem(ov), publishers).sum()
            for name, ov in overlays.items()
        }
        # Fig. 4 shape: SELECT imposes the least forwarding on other peers.
        assert totals["select"] == min(totals.values())

    def test_select_avoids_hub_hotspots_vs_vitis(self, arena):
        graph, overlays, _, publishers = arena
        from repro.metrics.load import load_share_by_degree

        shares = {}
        for name in ("select", "vitis"):
            counts = forward_counts(PubSubSystem(overlays[name]), publishers)
            shares[name] = load_share_by_degree(graph, counts, num_bins=5)[-1][1]
        # Vitis funnels traffic into high-social-degree peers (Fig. 4).
        assert shares["select"] < shares["vitis"]

    def test_full_delivery_everywhere(self, arena):
        _, overlays, _, publishers = arena
        for name, ov in overlays.items():
            stats = publish_relays(PubSubSystem(ov), publishers)
            assert stats.delivery_ratio == 1.0, name


class TestDatasetBreadth:
    @pytest.mark.parametrize("dataset", ["twitter", "gplus", "slashdot"])
    def test_select_beats_symphony_on_every_dataset(self, dataset):
        graph = load_dataset(dataset, num_nodes=150, seed=3)
        pairs = sample_friend_pairs(graph, 80, seed=3)
        hops = {}
        for name in ("select", "symphony"):
            ov = build_overlay(name, graph, seed=3)
            hops[name] = social_lookup_hops(PubSubSystem(ov), pairs).mean()
        assert hops["select"] < hops["symphony"]
