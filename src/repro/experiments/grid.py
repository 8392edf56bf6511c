"""One trial grid for every experiment that measures a built overlay.

:func:`walk` loops dataset → size → system → trial. It hands each
:class:`Cell` to every requested experiment in :data:`MEASURES` whose
``wants(config, size, system, trial)`` names it (only Fig. 2 goes below
N), takes its ``sample(config, cell, rng)`` and drops the cell; ``row(config,
dataset, system, size, samples)`` reduces the trials to rows. Each
experiment draws from its own ``trial_rngs(config, name)`` in its own
order, so its rows are the same whichever others share the walk.

How a cell is shared:

* its overlay is built with :func:`~repro.experiments.common.build_system`
  when a sample first reads :attr:`Cell.overlay`;
* read-only samples (Figs. 2–5, 7 and 8, geo, doctor, Symphony in faults,
  Fig. 6 without recovery) all read that one overlay;
* samples that write (Fig. 6 with recovery, SELECT in faults, stabilize)
  take :meth:`Cell.writable`, a restore of the cell's snapshot, except the
  final write of the cell's last sample, which takes the cell itself.
  Samples run in :data:`MEASURES` order, readers first, so stabilize, the
  one writer of a Symphony cell (Symphony has no snapshot), runs last.

Fig. 7's bandwidth-aware SELECT is a build of its own (:meth:`Cell.build`).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from importlib import import_module

import numpy as np

from repro.experiments.common import ExperimentConfig, build_system, dataset_graph, trial_rngs
from repro.persist import restore

__all__ = ["GROWTH_POINTS", "MEASURES", "Cell", "growth_sizes", "rows", "shared", "walk"]

#: Figure 2's x-axis: this many sizes from 0.4 N up to N.
GROWTH_POINTS = 3

#: experiment -> its module under ``repro.experiments``, in the order a
#: cell's samples run: the read-only ones first, then those that write.
MEASURES = {
    "fig2": "fig2_hops",
    "fig3": "fig3_relays",
    "fig4": "fig4_load",
    "fig5": "fig5_iterations",
    "geo": "geo",
    "fig7": "fig7_latency",
    "fig8": "fig8_ids",
    "doctor": "doctor",
    "fig6": "fig6_churn",
    "faults": "faults",
    "stabilize": "stabilize",
}


def growth_sizes(config: ExperimentConfig) -> list[int]:
    """The growing network sizes on Figure 2's x-axis; the largest is N."""
    n = config.num_nodes
    return sorted({min(n, max(32, int(round(n * f)))) for f in np.linspace(0.4, 1.0, GROWTH_POINTS)})


class Cell:
    """One trial's graph and the overlay built on it (on first read)."""

    def __init__(self, config, dataset, system, trial, graph):
        self.config = config
        self.dataset = dataset
        self.system = system
        self.trial = trial
        self.graph = graph
        #: True while the cell's last sample runs
        self.last = False
        self._snapshot = None

    def build(self, **kwargs):
        """A build of this cell's system on its graph, with extra build inputs."""
        return build_system(self.config, self.system, self.graph, self.trial, **kwargs)

    @cached_property
    def overlay(self):
        """The built overlay every read-only sample shares."""
        return self.build()

    def writable(self, final: bool):
        """An overlay the sample may write: the cell's own for the ``final``
        write of the cell's last sample, else a restore of its snapshot."""
        if final and self.last:
            self._snapshot = None
            return self.overlay
        if self._snapshot is None:
            self._snapshot = self.overlay.snapshot(include_graph=False)
        return restore(self._snapshot, self.graph)


def _samples(config, dataset, size, system, trial, here, rngs) -> list:
    """Make one cell, take each of ``here``'s samples from it, and drop it."""
    cell = Cell(config, dataset, system, trial, dataset_graph(config, dataset, trial, num_nodes=size))
    out = []
    for i, (name, measure) in enumerate(here):
        cell.last = i == len(here) - 1
        out.append(measure.sample(config, cell, rngs[name][trial]))
    return out


def walk(config: ExperimentConfig, names) -> dict[str, list[dict]]:
    """The rows of each experiment in ``names``, every cell they measure made once."""
    measures = {n: import_module(f"repro.experiments.{m}") for n, m in MEASURES.items() if n in names}
    rngs = {n: trial_rngs(config, n) for n in measures}
    out = {n: [] for n in measures}
    # Fig. 6 and 8 measure SELECT and Fig. 7 the random overlay, configured or not.
    systems = dict.fromkeys((*config.systems, "select", "random"))
    for dataset in config.datasets:
        for size in growth_sizes(config):
            for system in systems:
                taken = {n: [] for n in measures}
                for trial in range(config.trials):
                    here = [(n, m) for n, m in measures.items() if m.wants(config, size, system, trial)]
                    if here:
                        for (n, _), sample in zip(here, _samples(config, dataset, size, system, trial, here, rngs)):
                            taken[n].append(sample)
                for n, samples in taken.items():
                    if samples:
                        out[n] += measures[n].row(config, dataset, system, size, samples)
    return out


#: one (experiments, {config: walked rows}) per open :func:`shared` block
_shared: "list[tuple[list[str], dict]]" = []


@contextmanager
def shared(names):
    """Inside this block the first :func:`rows` call walks once for every
    grid experiment in ``names``, and later calls read its rows."""
    _shared.append(([n for n in MEASURES if n in names], {}))
    try:
        yield
    finally:
        _shared.pop()


def rows(config: ExperimentConfig, name: str) -> list[dict]:
    """``name``'s rows: the shared walk's inside :func:`shared`, else a fresh walk."""
    names, walked = _shared[-1] if _shared else ((), {})
    if name not in names:
        return walk(config, [name])[name]
    if config not in walked:
        walked[config] = walk(config, names)
    return walked[config][name]
