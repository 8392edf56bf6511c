"""Ablation benchmark: each SELECT mechanism disabled in turn.

``no-lookahead`` routes without ``L_p``, which also turns off the source's
``advertised`` clause (it reaches a friend through a peer of ``L_p``).
"""

from repro.experiments import ablation


def test_bench_ablation(benchmark, quick_config, save_report):
    config = quick_config.with_(datasets=("facebook",))
    rows = benchmark.pedantic(ablation.run, args=(config,), rounds=1, iterations=1)
    by = {r["variant"]: r for r in rows}
    full = by["full"]
    # Identifier reassignment is what clusters friends: without it the
    # lookup paths get longer.
    assert by["no-reassign"]["hops"] >= full["hops"]
    # Lookahead is the 1-2 hop delivery mechanism.
    assert by["no-lookahead"]["hops"] > full["hops"]
    # CMA recovery is what keeps availability at ~100% under churn.
    assert by["no-recovery"]["availability"] < full["availability"]
    assert full["availability"] > 0.97
    save_report("ablation", ablation.report(config, rows))
