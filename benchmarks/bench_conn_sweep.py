"""§IV-C benchmark: link-count sweep (the log2 N plateau)."""

from repro.experiments import conn_sweep


def test_bench_conn_sweep(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(conn_sweep.run, args=(quick_config,), rounds=1, iterations=1)
    by_k = {r["k_links"]: r["hops"] for r in rows}
    ks = sorted(by_k)
    # Paper: substantial hop reduction as K grows...
    assert by_k[ks[-1]] < by_k[ks[0]]
    # ...and no real improvement past log2(N): the last two sweep points
    # (log2 N + 4 and 2 log2 N) stay within noise of each other.
    assert by_k[ks[-1]] > 0.6 * by_k[ks[-2]]
    save_report("conn_sweep", conn_sweep.report(quick_config, rows))
