"""Figure 7 benchmark: dissemination latency + §IV-D transfer probe."""

import pytest

from repro.experiments import fig7_latency


def test_bench_fig7_latency(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(fig7_latency.run, args=(quick_config,), rounds=1, iterations=1)
    for dataset in quick_config.datasets:
        at = {r["system"]: r["latency_ms"] for r in rows if r["dataset"] == dataset}
        # Paper shape: the unstructured random overlay disseminates slowest
        # of the ring-structured systems; SELECT is faster than random.
        assert at["select"] < at["random"]
    save_report("fig7_latency", fig7_latency.report(quick_config, rows))


def test_bench_simultaneous_transfer_probe(benchmark):
    probe = benchmark(fig7_latency.simultaneous_transfer_probe)
    times = {r["connections"]: r["total_ms"] for r in probe}
    # §IV-D: total transfer time grows linearly in simultaneous connections.
    assert times[2] == pytest.approx(2 * times[1])
    assert times[32] == pytest.approx(32 * times[1])
