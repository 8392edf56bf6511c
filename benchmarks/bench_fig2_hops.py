"""Figure 2 benchmark: hops per social lookup vs network size."""

from repro.experiments import fig2_hops


def test_bench_fig2_hops(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(fig2_hops.run, args=(quick_config,), rounds=1, iterations=1)
    # Paper shape at the largest size: SELECT needs the fewest hops.
    largest = max(r["size"] for r in rows)
    for dataset in quick_config.datasets:
        at = {r["system"]: r["hops"] for r in rows if r["dataset"] == dataset and r["size"] == largest}
        assert at["select"] == min(at.values())
        assert at["select"] < at["symphony"]
    save_report("fig2_hops", fig2_hops.report(quick_config, rows))
