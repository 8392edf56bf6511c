"""Figure 6 benchmark: data availability under churn."""

from repro.experiments import fig6_churn


def test_bench_fig6_churn(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(fig6_churn.run, args=(quick_config,), rounds=1, iterations=1)
    by = {(r["dataset"], r["variant"]): r for r in rows}
    for dataset in quick_config.datasets:
        rec = by[(dataset, "SELECT (recovery)")]
        no_rec = by[(dataset, "SELECT (no recovery)")]
        # Paper: 100% availability with recovery, even at ~30% churn.
        assert rec["mean_availability"] > 0.97
        assert rec["churn_level"] > 0.1
        assert rec["mean_availability"] >= no_rec["mean_availability"]
    save_report("fig6_churn", fig6_churn.report(quick_config, rows))
