"""Metrics registry: counters, gauges, deterministic histograms, timers.

The registry is the write side of the telemetry subsystem. Instrumented
code asks its registry for a named gauge or histogram once and then
updates it on the hot path; the experiment harness snapshots the registry
at the end of a run and hands it to :mod:`repro.telemetry.export`.

Every counter is a field of a stats dataclass (``FaultStats``, ...): its
owner hands the object to :meth:`MetricsRegistry.attach` once, counts an
event there and nowhere else, and the read side reads the fields.

Two registries exist:

* :class:`MetricsRegistry` — the real thing. Histograms use *fixed*
  bucket edges chosen at creation time (no adaptive bucketing), so two
  runs over the same seed produce byte-identical snapshots.
* :class:`NullRegistry` — the contractual default, the telemetry
  analogue of :func:`repro.net.faults.FaultPlan.none`. Every instrument
  it hands out is a shared no-op singleton and ``attach`` keeps nothing;
  code that observes pays one attribute lookup and an empty call, and
  behaviour stays bit-identical to a build without telemetry (pinned by
  a regression test).

Injection follows the same pattern as the fault layer: components take
an optional ``registry`` argument, and when it is omitted they fall back
to the process-wide current registry (:func:`get_registry`), which is
the :data:`NULL_REGISTRY` unless an entry point such as
``select-repro --telemetry`` installed a real one via
:func:`set_registry`/:func:`use_registry`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

from repro.util.exceptions import ConfigurationError

__all__ = [
    "stat",
    "Stats",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "DEFAULT_BUCKETS",
    "HOP_BUCKETS",
    "TIME_BUCKETS_S",
]

#: generic magnitude buckets (powers of two-ish), for counts per event.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: overlay hop counts; greedy ring routing rarely exceeds ~20 hops.
HOP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)

#: wall-clock phase timings in seconds, microseconds up to minutes.
TIME_BUCKETS_S = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def _label_key(name: str, labels: "dict | None") -> str:
    """Composite instrument key: ``name`` or ``name{k=v,...}`` (sorted keys).

    Sorting makes the key (and therefore snapshot/export ordering)
    independent of the caller's dict ordering — two runs that touch the
    same label sets produce byte-identical exports.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Gauge:
    """Scalar that can go up and down (buffer occupancy, live peers)."""

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels: "dict | None" = None):
        self.name = name
        self.help = help
        #: label set of this series; ``{}`` = the unlabeled series.
        self.labels = dict(labels) if labels else {}
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def set_function(self, read) -> None:
        """Have the owner compute the level, ``read()``, whenever it is read."""
        self._value = read

    @property
    def value(self) -> float:
        return float(self._value()) if callable(self._value) else self._value


def stat(help: str, default=0):
    """A :class:`Stats` field that carries its own ``# HELP`` text."""
    return field(default=default, metadata={"help": help})


@dataclass
class Stats:
    """Base of a component's counters: what :meth:`MetricsRegistry.attach` reads."""

    def as_dict(self) -> dict:
        """Plain-dict snapshot for reports, verdicts and checkpoints."""
        return asdict(self)


class Counter:
    """One stats field, summed over the objects attached under its prefix."""

    __slots__ = ("name", "help", "sources")

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.sources: list = []

    @property
    def value(self) -> float:
        field = self.name.rpartition(".")[2]
        return float(sum(getattr(stats, field) for stats in self.sources))


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative export).

    ``buckets`` are upper bucket edges, strictly increasing; an implicit
    ``+Inf`` bucket catches the tail. Edges are fixed at construction so
    snapshots are deterministic across runs and platforms.
    """

    __slots__ = ("name", "help", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, buckets=DEFAULT_BUCKETS, help: str = "", labels: "dict | None" = None
    ):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError(f"histogram {name}: needs at least one bucket edge")
        if any(b >= c for b, c in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram {name}: bucket edges must be strictly increasing, got {edges}"
            )
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else {}
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        self.sum += v
        self.count += 1
        for i, edge in enumerate(self.buckets):
            if v <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket (``le`` semantics), +Inf last."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket containing the ``q``-quantile.

        Deterministic (no interpolation): the answer is always one of the
        fixed bucket edges, so SLO verdicts computed from it are
        bit-reproducible. Observations in the +Inf tail report the last
        finite edge times two as a conservative stand-in; an empty
        histogram reports 0.0.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"histogram {self.name}: quantile {q} not in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for edge, c in zip(self.buckets, self.counts):
            running += c
            if running >= rank:
                return edge
        return self.buckets[-1] * 2.0


class _TimerHandle:
    """One timed interval; ``elapsed`` is valid after the ``with`` exits."""

    __slots__ = ("elapsed", "_start")

    def __init__(self):
        self.elapsed = 0.0
        self._start = 0.0


class Timer:
    """Phase timer feeding a histogram of seconds (``time.perf_counter``)."""

    __slots__ = ("name", "histogram", "_cm")

    def __init__(self, name: str, histogram: Histogram):
        self.name = name
        self.histogram = histogram

    @contextmanager
    def __call__(self):
        handle = _TimerHandle()
        handle._start = time.perf_counter()
        try:
            yield handle
        finally:
            handle.elapsed = time.perf_counter() - handle._start
            self.histogram.observe(handle.elapsed)

    # Allow ``with registry.timer("x"):`` without an extra call pair.
    def __enter__(self):
        self._cm = self.__call__()
        return self._cm.__enter__()

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


class MetricsRegistry:
    """Named instrument store; one instance per telemetry-enabled run.

    Instruments are created on first use and shared on later lookups, so
    several components can update the same gauge or histogram. Asking
    for an existing name with a different kind raises.
    """

    is_null = False

    def __init__(self):
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind, factory):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = factory()
        elif not isinstance(inst, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def gauge(self, name: str, help: str = "", labels: "dict | None" = None) -> Gauge:
        key = _label_key(name, labels)
        return self._get(key, Gauge, lambda: Gauge(name, help, labels))

    def histogram(
        self, name: str, buckets=DEFAULT_BUCKETS, help: str = "", labels: "dict | None" = None
    ) -> Histogram:
        key = _label_key(name, labels)
        return self._get(key, Histogram, lambda: Histogram(name, buckets, help, labels))

    def timer(self, name: str) -> Timer:
        hist = self.histogram(f"{name}.seconds", buckets=TIME_BUCKETS_S)
        return Timer(name, hist)

    def attach(self, prefix: str, stats: Stats) -> None:
        """Export ``stats``' fields as ``prefix.field`` counters, read on demand.

        Objects attached under one prefix are summed (trials of one
        experiment accumulate); an object attached twice counts twice.
        """
        for f in fields(stats):
            name = f"{prefix}.{f.name}"
            help = f.metadata.get("help", "")
            self._get(name, Counter, lambda: Counter(name, help)).sources.append(stats)

    # -- read side ---------------------------------------------------------

    def counters(self) -> dict[str, Counter]:
        return {n: i for n, i in sorted(self._instruments.items()) if isinstance(i, Counter)}

    def gauges(self) -> dict[str, Gauge]:
        return {n: i for n, i in sorted(self._instruments.items()) if isinstance(i, Gauge)}

    def histograms(self) -> dict[str, Histogram]:
        return {n: i for n, i in sorted(self._instruments.items()) if isinstance(i, Histogram)}

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """Shared no-op gauge/histogram/timer; also a no-op context manager."""

    __slots__ = ()
    name = "null"
    help = ""
    labels: dict = {}
    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0
    buckets = ()

    def set(self, value: float) -> None:
        pass

    def set_function(self, read) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative(self) -> list:
        return []

    def quantile(self, q: float) -> float:
        return 0.0

    def __enter__(self):
        return _NULL_HANDLE

    def __exit__(self, *exc):
        return False

    def __call__(self):
        return self


_NULL_HANDLE = _TimerHandle()
_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Zero-overhead registry: every instrument is one shared no-op.

    The telemetry analogue of ``FaultPlan.none()`` — installed as the
    process-wide default so un-instrumented runs stay bit-identical to
    the seed (pinned by ``tests/test_telemetry.py``).
    """

    is_null = True

    def gauge(self, name: str, help: str = "", labels: "dict | None" = None):
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets=DEFAULT_BUCKETS, help: str = "", labels: "dict | None" = None
    ):
        return _NULL_INSTRUMENT

    def timer(self, name: str):
        return _NULL_INSTRUMENT

    def attach(self, prefix: str, stats: Stats) -> None:
        pass


#: the process-wide default registry; never mutated, safe to share.
NULL_REGISTRY = NullRegistry()

_current: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide current registry (:data:`NULL_REGISTRY` by default)."""
    return _current


def set_registry(registry: "MetricsRegistry | None") -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one.

    ``None`` restores the :data:`NULL_REGISTRY`.
    """
    global _current
    previous = _current
    _current = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Scoped :func:`set_registry` that restores the previous registry."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
