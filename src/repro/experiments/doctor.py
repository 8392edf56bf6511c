"""Overlay invariant audit: ``select-repro doctor``.

Builds every configured system on every configured dataset and runs the
:mod:`repro.overlay.doctor` sweep over the result: ring connectivity,
successor/predecessor symmetry, no leaked admission slot, and the ``K``
incoming-link cap. A healthy build reports OK on every row; anything else
names the invariant that broke, which is the first thing to check when an
experiment misbehaves after an overlay-construction change.
"""

from __future__ import annotations

from repro.experiments import grid
from repro.experiments.common import ExperimentConfig, pretty
from repro.overlay.doctor import check_overlay
from repro.util.tables import format_table

__all__ = ["run", "report"]


def wants(config, size, system, trial) -> bool:
    return size == config.num_nodes and system in config.systems and trial == 0


def sample(config, cell, rng):
    doc = check_overlay(cell.overlay)
    return {
        "peers": doc.live_peers,
        "ring_cycles": doc.ring_count,
        "largest_cycle": doc.largest_cycle,
        "broken_successors": len(doc.broken_successors),
        "asymmetric_pairs": len(doc.asymmetric_pairs),
        "leaked_slots": len(doc.leaked_slots),
        "max_in_degree": doc.max_in_degree,
        "in_degree_cap": doc.in_degree_cap,
        "ok": doc.ok,
    }


def row(config, dataset, system, size, samples) -> list[dict]:
    return [{"dataset": dataset, "system": system, **fields} for fields in samples]


def run(config: ExperimentConfig) -> list[dict]:
    """Invariant sweep per dataset × system (trial 0's build)."""
    return grid.rows(config, "doctor")


def report(config: ExperimentConfig, rows: list[dict]) -> str:
    """Render the audit table."""
    table = format_table(
        headers=[
            "Dataset",
            "System",
            "Peers",
            "Cycles",
            "Largest",
            "Broken",
            "Asymmetric",
            "Leaked",
            "In-deg (cap)",
            "Verdict",
        ],
        rows=[
            (
                r["dataset"],
                pretty(r["system"]),
                r["peers"],
                r["ring_cycles"],
                r["largest_cycle"],
                r["broken_successors"],
                r["asymmetric_pairs"],
                r["leaked_slots"],
                f"{r['max_in_degree']} ({r['in_degree_cap']})",
                "OK" if r["ok"] else "VIOLATION",
            )
            for r in rows
        ],
        title="Overlay doctor: ring, symmetry, ledger and in-degree invariants",
    )
    bad = sum(1 for r in rows if not r["ok"])
    verdict = "all overlays healthy" if bad == 0 else f"{bad} overlay(s) violate invariants"
    return f"{table}\n{verdict}"
