"""Fault-injection benchmark: availability degradation under message loss."""

from repro.experiments import faults

#: the loss levels of faults.LOSS_RATES whose rows the asserts read.
BENCH_LOSS_RATES = (0.0, 0.05, 0.20)


def test_bench_faults(benchmark, quick_config, save_report):
    rows = benchmark.pedantic(faults.run, args=(quick_config,), rounds=1, iterations=1)
    by = {(r["dataset"], r["system"], r["loss_rate"]): r for r in rows}
    for dataset in quick_config.datasets:
        # Degradation must be graceful: at 5% per-hop loss the retry budget
        # keeps SELECT's availability >= 95%, and even at 20% loss the
        # recovery-backed overlay beats maintenance-free Symphony.
        assert by[(dataset, "select", 0.0)]["availability"] > 0.97
        assert by[(dataset, "select", 0.05)]["availability"] >= 0.95
        for loss in BENCH_LOSS_RATES:
            sel = by[(dataset, "select", loss)]
            sym = by[(dataset, "symphony", loss)]
            assert sel["availability"] >= sym["availability"]
        # Retransmissions are what buys the flat curve: they must rise
        # with the loss rate and stay within the per-hop budget of 2.
        retries = [by[(dataset, "select", loss)]["mean_retries"] for loss in BENCH_LOSS_RATES]
        assert retries[0] == 0.0
        assert retries[-1] > 0.0
    save_report("faults", faults.report(quick_config, rows))
