"""Checkpoint/restore + deterministic replay (`select-repro/snapshot/v2`).

A snapshot serializes the *full* live state of a built SELECT overlay —
its peer and edge columns (every peer's gossip knowledge), routing
tables, the K-incoming admission sets, stabilizer/recovery suspicion
state, catch-up buffers, and the fault plan's RNG stream — into a
versioned two-file directory (``manifest.json`` + ``state.json``), each
column a flat list and each per-peer collection a CSR. Restoring yields a
bit-identical overlay: a simulation snapshotted at round *t* and resumed
produces the same :class:`~repro.sim.runner.SimulationReport` as the
uninterrupted run (pinned by test, mirroring the ``FaultPlan.none()``
convention).

``select-repro validate DIR`` schema-checks a snapshot directory
(:mod:`repro.validate`) with the check restore runs.
"""

from repro.persist.snapshot import (
    MANIFEST_FILE,
    SCHEMA,
    STATE_FILE,
    capture,
    graph_fingerprint,
    load,
    restore,
    restore_into,
    save,
    snapshot_id,
)

__all__ = [
    "SCHEMA",
    "MANIFEST_FILE",
    "STATE_FILE",
    "capture",
    "graph_fingerprint",
    "load",
    "restore",
    "restore_into",
    "save",
    "snapshot_id",
]
