"""§V geographic study benchmark: locality of SELECT's links."""

from repro.experiments import geo


def test_bench_geo(benchmark, quick_config, save_report):
    config = quick_config.with_(systems=("select", "symphony", "omen"))
    rows = benchmark.pedantic(geo.run, args=(config,), rounds=1, iterations=1)
    for dataset in config.datasets:
        at = {r["system"]: r for r in rows if r["dataset"] == dataset}
        # Friends co-locate, so SELECT's social links are also geo-local.
        assert at["select"]["intra_region_links"] > at["symphony"]["intra_region_links"]
    save_report("geo", geo.report(config, rows))
