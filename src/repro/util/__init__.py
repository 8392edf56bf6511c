"""Shared utilities: seeded randomness, atomic writes, exceptions, statistics,
text tables.

These helpers are deliberately dependency-light; everything in
:mod:`repro` builds on top of them.
"""

from repro.util.atomicio import (
    atomic_write_json,
    atomic_write_lines,
    atomic_write_text,
    fsync_dir,
)
from repro.util.exceptions import (
    ConfigurationError,
    DatasetError,
    DeadlineExceeded,
    FaultInjectionError,
    PartitionError,
    PeerUnreachable,
    PersistError,
    ReproError,
    RetryBudgetExhausted,
    SimulationError,
    SnapshotIntegrityError,
    SnapshotIOError,
    TransientError,
)
from repro.util.rng import RngStream, as_generator, spawn_generators
from repro.util.stats import (
    StatSummary,
    confidence_interval,
    gini_coefficient,
    summarize,
)
from repro.util.tables import format_table

__all__ = [
    "ConfigurationError",
    "DatasetError",
    "DeadlineExceeded",
    "FaultInjectionError",
    "PartitionError",
    "PeerUnreachable",
    "PersistError",
    "ReproError",
    "RetryBudgetExhausted",
    "SimulationError",
    "SnapshotIntegrityError",
    "SnapshotIOError",
    "TransientError",
    "atomic_write_json",
    "atomic_write_lines",
    "atomic_write_text",
    "fsync_dir",
    "RngStream",
    "as_generator",
    "spawn_generators",
    "StatSummary",
    "confidence_interval",
    "gini_coefficient",
    "summarize",
    "format_table",
]
