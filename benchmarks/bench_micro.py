"""Micro-benchmarks of the library's hot paths.

Classic pytest-benchmark targets (many rounds) so that performance
regressions in the primitives that dominate overlay construction and
routing are visible: friendship bitmaps, LSH bucketing,
greedy routing, a full small SELECT build, and the snapshot round trip
the churn benchmark restores from.
"""

import numpy as np
import pytest

from repro.core.config import SelectConfig
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.lsh.bitsampling import BitSamplingLsh
from repro.persist import capture, restore_into
from repro.pubsub.api import PubSubSystem
from repro.social.bitmaps import encode


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook", num_nodes=200, seed=55)


@pytest.fixture(scope="module")
def overlay(graph):
    return SelectOverlay(graph, config=SelectConfig(max_rounds=30)).build(seed=55)


def test_bench_bitmap_encode(benchmark, graph):
    hub = int(np.argmax(graph.degrees))
    neighborhood = graph.neighbors(hub)
    links = neighborhood[::3].tolist()
    bitmap = benchmark(encode, neighborhood, links)
    assert bitmap.bit_count() == len(links)


def test_bench_lsh_bucket(benchmark):
    family = BitSamplingLsh(nbits=128, num_samples=8, seed=3)
    bitmap = sum(1 << i for i in range(0, 128, 3))
    bucket = benchmark(family.bucket, bitmap, 8)
    assert 0 <= bucket < 8


def test_bench_social_lookup(benchmark, overlay, graph):
    pubsub = PubSubSystem(overlay)
    rng = np.random.default_rng(1)
    pairs = []
    for _ in range(64):
        u = int(rng.integers(graph.num_nodes))
        v = int(graph.neighbors(u)[rng.integers(graph.degree(u))])
        pairs.append((u, v))

    def lookups():
        return sum(pubsub.lookup(u, v).hops for u, v in pairs)

    assert benchmark(lookups) >= 64


@pytest.fixture(scope="module")
def routed_2k():
    """The suite's 2k fixture and its seeded friend-pair sample."""
    graph = load_dataset("facebook", num_nodes=2000, seed=7)
    overlay = SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)
    edges = list(graph.edges())
    picks = np.random.default_rng(7).choice(len(edges), size=4000, replace=False)
    return overlay, [edges[i] for i in picks]


@pytest.mark.parametrize("index", ["cold", "warm"])
def test_bench_route_many(benchmark, routed_2k, index):
    overlay, pairs = routed_2k
    if index == "cold":
        # A new router a round: every visited peer's columns are built
        # inside the timed call.
        routes = benchmark.pedantic(
            lambda: overlay.make_router().route_many(pairs), rounds=5, iterations=1
        )
    else:
        router = overlay.make_router()
        router.route_many(pairs)
        routes = benchmark(router.route_many, pairs)
    assert all(r.delivered for r in routes)


def test_bench_publish(benchmark, overlay):
    pubsub = PubSubSystem(overlay)
    result = benchmark(pubsub.publish, 7)
    assert result.delivery_ratio == 1.0


def test_bench_select_build(benchmark, graph):
    def build():
        return SelectOverlay(graph, config=SelectConfig(max_rounds=20)).build(seed=9)

    overlay = benchmark.pedantic(build, rounds=1, iterations=1)
    assert overlay.iterations > 0


@pytest.fixture(scope="module")
def built_1k():
    """The churn benchmark's overlay, which it restores before every unit."""
    graph = load_dataset("facebook", num_nodes=1000, seed=7)
    return SelectOverlay(graph, config=SelectConfig(max_rounds=200)).build(7)


def test_bench_snapshot_capture(benchmark, built_1k):
    snap = benchmark(capture, built_1k)
    assert snap["manifest"]["snapshot_id"] == "89dc685e361f1933"


def test_bench_snapshot_restore(benchmark, built_1k):
    snap = capture(built_1k)
    target = SelectOverlay(built_1k.graph)
    assert benchmark(restore_into, snap, target) is target
    assert capture(target)["manifest"]["snapshot_id"] == snap["manifest"]["snapshot_id"]
