"""Figure 5 benchmark: iterations to construct the overlay."""

from repro.experiments import fig5_iterations


def test_bench_fig5_iterations(benchmark, quick_config, save_report):
    config = quick_config.with_(systems=("select", "vitis", "omen"))
    rows = benchmark.pedantic(fig5_iterations.run, args=(config,), rounds=1, iterations=1)
    for dataset in config.datasets:
        at = {r["system"]: r["iterations"] for r in rows if r["dataset"] == dataset}
        # Paper headline: SELECT converges in far fewer iterations.
        assert at["select"] == min(at.values())
        assert at["select"] < 0.6 * max(at.values())
    save_report("fig5_iterations", fig5_iterations.report(config, rows))
