"""Warm-started sweeps from a converged snapshot: ``select-repro warmstart``.

SELECT's convergence phase dominates experiment wall-clock (Figure 5:
gossip rounds until quiescence), and the overlay is a long-lived
structure in deployment — so sweeps should amortize convergence by
reusing a converged snapshot instead of rebuilding per trial. This
experiment measures exactly that trade: per trial, a cold ``build()``
(projection + gossip rounds) against a warm :func:`repro.persist.restore`
of the same converged state, verifying with the overlay doctor that the
restored overlay is as healthy as the built one and that the round
counter continues from the manifest instead of restarting at zero.

With ``--resume PATH`` (``ExperimentConfig.resume_from``) the snapshot is
loaded from disk — the workflow ``select-repro build DIR`` +
``select-repro warmstart --resume DIR`` skips every re-convergence.
Without it, the snapshot is captured in memory from trial 0's cold build.
"""

from __future__ import annotations

import time

from repro.experiments.common import ExperimentConfig, build_system, dataset_graph
from repro.overlay.doctor import check_overlay
from repro.persist import load, restore
from repro.util.tables import format_table

__all__ = ["run", "report"]


def run(config: ExperimentConfig) -> list[dict]:
    """Cold-build vs warm-restore timings over ``config.trials`` trials.

    One shared graph (first dataset, trial 0): a snapshot is only
    restorable onto the graph it was captured on, which is precisely the
    amortize-one-convergence-across-a-sweep workflow.
    """
    dataset = config.datasets[0]
    if config.resume_from:
        snapshot = load(config.resume_from)
        cold_graph = restore(snapshot).graph
    else:
        snapshot = None  # trial 0's cold build is the snapshot
        cold_graph = dataset_graph(config, dataset, 0)
    rows = []
    for trial in range(config.trials):
        t0 = time.perf_counter()
        cold = build_system(config, "select", cold_graph, trial)
        cold_s = time.perf_counter() - t0
        if snapshot is None:
            snapshot = cold.snapshot()
        manifest = snapshot["manifest"]
        t0 = time.perf_counter()
        warm = restore(snapshot)
        warm_s = time.perf_counter() - t0
        doc = check_overlay(warm)
        rows.append(
            {
                "trial": trial,
                "dataset": manifest["graph"]["name"],
                "cold_s": cold_s,
                "cold_rounds": cold.iterations,
                "warm_s": warm_s,
                "warm_round": warm.iterations,
                "manifest_round": manifest["round"],
                "snapshot_id": manifest["snapshot_id"],
                "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
                "doctor_ok": doc.ok,
            }
        )
    return rows


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the cold-vs-warm table."""
    table = format_table(
        headers=[
            "Trial",
            "Dataset",
            "Cold build (s)",
            "Cold rounds",
            "Warm restore (s)",
            "Resumes at round",
            "Speedup",
            "Doctor",
        ],
        rows=[
            (
                r["trial"],
                r["dataset"],
                f"{r['cold_s']:.3f}",
                r["cold_rounds"],
                f"{r['warm_s']:.3f}",
                r["warm_round"],
                f"{r['speedup']:.1f}x",
                "OK" if r["doctor_ok"] else "VIOLATION",
            )
            for r in rows
        ],
        title="Warm start: converged-snapshot restore vs cold re-convergence",
    )
    first = rows[0]
    lines = [
        table,
        f"snapshot {first['snapshot_id']}: round counter resumes at "
        f"{first['manifest_round']} (cold builds re-converge from round 0)",
    ]
    bad = sum(1 for r in rows if not r["doctor_ok"])
    if bad:
        lines.append(f"{bad} restored overlay(s) violate doctor invariants")
    return "\n".join(lines)
