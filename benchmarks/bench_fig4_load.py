"""Figure 4 benchmark: forwarded-message share per social degree."""

from repro.experiments import fig4_load


def test_bench_fig4_load(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(fig4_load.run, args=(quick_config,), rounds=1, iterations=1)
    for dataset in quick_config.datasets:
        at = {r["system"]: r for r in rows if r["dataset"] == dataset}
        # Paper shape: SELECT imposes the least total forwarding on peers.
        totals = {s: r["total_forwards"] for s, r in at.items()}
        assert totals["select"] == min(totals.values())
        # And avoids Vitis's hub concentration.
        assert at["select"]["top_bin_share"] <= at["vitis"]["top_bin_share"] * 1.25
    save_report("fig4_load", fig4_load.report(quick_config, rows))
