"""Figure 3 benchmark: relay nodes per pub/sub routing path."""

from repro.experiments import fig3_relays


def test_bench_fig3_relays(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(fig3_relays.run, args=(quick_config,), rounds=1, iterations=1)
    for dataset in quick_config.datasets:
        at = {r["system"]: r["relays_per_path"] for r in rows if r["dataset"] == dataset}
        # Paper shape: SELECT far below the social-oblivious DHTs; Bayeux worst.
        assert at["select"] < 0.5 * at["symphony"]
        assert at["bayeux"] == max(at.values())
    save_report("fig3_relays", fig3_relays.report(quick_config, rows))
