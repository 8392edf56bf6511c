"""Table II benchmark: dataset generation + statistics."""

from repro.experiments import table2


def test_bench_table2(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(table2.run, args=(quick_config,), rounds=1, iterations=1)
    assert {r["dataset"] for r in rows} == set(quick_config.datasets)
    for r in rows:
        assert r["users"] > 0 and r["connections"] > 0
    save_report("table2", table2.report(quick_config, rows))
