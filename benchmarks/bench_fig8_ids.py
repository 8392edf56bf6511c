"""Figure 8 benchmark: identifier distribution after SELECT."""

from repro.experiments import fig8_ids


def test_bench_fig8_ids(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(fig8_ids.run, args=(quick_config,), rounds=1, iterations=1)
    for r in rows:
        # Paper shape: socially connected peers share compact ID regions...
        assert r["mean_friend_distance"] < r["mean_random_distance"]
        # ...while some ring segments remain populated.
        assert r["ring_coverage"] > 0.0
    save_report("fig8_ids", fig8_ids.report(quick_config, rows))
