"""Seeded randomness plumbing.

All stochastic behaviour in the library flows through
:class:`numpy.random.Generator` objects. Experiments spawn independent
child generators per trial so that (a) every trial is reproducible from a
single root seed and (b) trials do not share state, which keeps results
identical whether trials run serially or are farmed out to workers.

:func:`generator_state` / :func:`restore_generator` capture and rebuild a
generator's exact stream position as a JSON-serializable dict, which is
what lets :mod:`repro.persist` snapshot a run mid-flight and resume it
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_generator",
    "generator_state",
    "restore_generator",
    "RngStream",
]

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(seed: "int | np.random.Generator | np.random.SeedSequence | None") -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged) or anything
    :func:`numpy.random.default_rng` takes directly: an integer seed, a
    :class:`numpy.random.SeedSequence`, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _jsonable(value):
    """Recursively convert a bit-generator state dict to JSON-safe types."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": [int(x) for x in value], "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _from_jsonable(value):
    """Inverse of :func:`_jsonable` (rebuilds ndarray members)."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {k: _from_jsonable(v) for k, v in value.items()}
    return value


def generator_state(gen: np.random.Generator) -> dict:
    """JSON-serializable snapshot of ``gen``'s exact stream position.

    The returned dict survives a ``json.dumps``/``loads`` round trip and
    feeds :func:`restore_generator`, which rebuilds a generator that
    produces the *identical* continuation of the stream.
    """
    return _jsonable(gen.bit_generator.state)


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from :func:`generator_state`.

    The bit-generator class is looked up by the name recorded in the
    state dict, so any numpy bit generator (PCG64, Philox, SFC64, ...)
    round-trips.
    """
    name = state.get("bit_generator")
    cls = getattr(np.random, str(name), None)
    if cls is None or not isinstance(name, str):
        raise ValueError(f"unknown bit generator in state: {name!r}")
    bit_gen = cls()
    bit_gen.state = _from_jsonable(state)
    return np.random.Generator(bit_gen)


@dataclass
class RngStream:
    """A named hierarchy of reproducible random generators.

    Each call to :meth:`child` with the same name returns a generator
    seeded identically across runs, regardless of call order. This is how
    simulation subsystems (churn, workload, gossip) obtain isolated
    randomness from one experiment seed.
    """

    seed: int = 0
    _root: np.random.SeedSequence = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._root = np.random.SeedSequence(self.seed)

    def child(self, name: str) -> np.random.Generator:
        """Return a generator deterministically derived from ``name``."""
        # Stable string -> integer key; hash() is salted per process, so
        # derive the key from the bytes directly.
        key = int.from_bytes(name.encode("utf-8").ljust(8, b"\0")[:8], "little")
        extra = sum(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self._root.entropy, spawn_key=(key, extra))
        return np.random.default_rng(seq)

    def trial(self, index: int) -> np.random.Generator:
        """Return the generator for independent trial ``index``."""
        if index < 0:
            raise ValueError(f"trial index must be non-negative, got {index}")
        seq = np.random.SeedSequence(entropy=self._root.entropy, spawn_key=(0x7121A1, index))
        return np.random.default_rng(seq)
