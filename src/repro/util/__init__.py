"""Shared utilities: seeded randomness, bitsets, statistics, text tables.

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
from repro.util.bitset import (
    bitset_from_indices,
    bitset_intersection_count,
    bitset_union_count,
    hamming_distance,
    popcount,
)
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
    "bitset_from_indices",
    "bitset_intersection_count",
    "bitset_union_count",
    "hamming_distance",
    "popcount",
    "StatSummary",
    "confidence_interval",
    "gini_coefficient",
    "summarize",
    "format_table",
]
