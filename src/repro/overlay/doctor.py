"""Overlay invariant checker (`select-repro doctor`).

Verifies the structural invariants every ring overlay in this repo is
supposed to uphold, over the full population or any live subset:

* **ring connectivity** — following successor pointers from any live
  peer traverses every live peer exactly once (one cycle, no broken or
  dangling pointers);
* **successor/predecessor symmetry** — ``succ(v).predecessor == v``;
* **bounded in-degree** — no peer holds more incoming long links than
  the paper's ``K`` cap (plus the recovery path's small slack);
* **no leaked slot** — every source the admission ledger charges on a
  peer still holds a long link to it. The router carries an admitted
  link both ways on the ledger's word, so a leak is a route over a
  connection nobody holds.

The checker only *reports*; callers (tests, the CLI, the healing metric)
decide what to do with a violation. That makes it usable both as a hard
assertion on freshly built overlays and as a progress probe while the
stabilizer is still repairing a partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.overlay.base import INCOMING_SLACK, OverlayNetwork

__all__ = ["DoctorReport", "check_overlay"]


@dataclass
class DoctorReport:
    """Outcome of one invariant sweep over an overlay."""

    #: peers examined (all of them, or the online subset).
    live_peers: int
    #: distinct cycles formed by the live successor pointers.
    ring_count: int
    #: size of the largest such cycle (== live_peers on a healthy ring).
    largest_cycle: int
    #: (peer, successor) pairs whose successor is missing, self, or dead.
    broken_successors: list = field(default_factory=list)
    #: (peer, successor) pairs where succ.predecessor != peer.
    asymmetric_pairs: list = field(default_factory=list)
    #: maximum allowed incoming long links (K + slack).
    in_degree_cap: int = 0
    #: largest observed incoming long-link count.
    max_in_degree: int = 0
    #: peers holding more incoming long links than the cap.
    in_degree_violations: list = field(default_factory=list)
    #: (source, target) slots the ledger charges on ``target`` although
    #: ``source`` no longer links to it.
    leaked_slots: list = field(default_factory=list)

    @property
    def ring_ok(self) -> bool:
        """Successor pointers form one cycle covering every live peer."""
        return (
            not self.broken_successors
            and self.ring_count == 1
            and self.largest_cycle == self.live_peers
        )

    @property
    def consistent_ring(self) -> bool:
        """Ring connectivity plus successor/predecessor symmetry."""
        return self.ring_ok and not self.asymmetric_pairs

    @property
    def ok(self) -> bool:
        """All invariants hold."""
        return self.consistent_ring and not self.in_degree_violations and not self.leaked_slots

    def summary(self) -> str:
        """One human-readable line per invariant."""
        lines = [
            f"live peers          : {self.live_peers}",
            f"ring cycles         : {self.ring_count} "
            f"(largest covers {self.largest_cycle})"
            + ("  [OK]" if self.ring_ok else "  [SPLIT]"),
            f"broken successors   : {len(self.broken_successors)}",
            f"asymmetric pred/succ: {len(self.asymmetric_pairs)}",
            f"max in-degree       : {self.max_in_degree} "
            f"(cap {self.in_degree_cap}, "
            f"{len(self.in_degree_violations)} over)",
            f"leaked slots        : {len(self.leaked_slots)}",
            f"verdict             : {'OK' if self.ok else 'VIOLATIONS FOUND'}",
        ]
        return "\n".join(lines)


def check_overlay(
    overlay: OverlayNetwork,
    online: "np.ndarray | None" = None,
    in_degree_slack: int = INCOMING_SLACK,
) -> DoctorReport:
    """Sweep an overlay's invariants; never raises on a violation.

    ``online`` restricts the sweep to the live subset (the view the
    stabilizer is trying to make consistent); ``in_degree_slack`` is the
    tolerance over the ``K`` cap that the recovery admission path is
    allowed to use.
    """
    overlay._check_built()
    n = overlay.graph.num_nodes
    live = [v for v in range(n) if online is None or online[v]]
    live_set = set(live)

    broken: list = []
    asymmetric: list = []
    for v in live:
        succ = overlay.tables[v].successor
        if succ is None or succ == v or succ not in live_set:
            broken.append((v, succ))
            continue
        if overlay.tables[succ].predecessor != v:
            asymmetric.append((v, succ))

    # Cycle census of the successor functional graph restricted to the
    # live peers: every node is on at most one cycle; nodes whose pointer
    # chain leaves the live set (broken) form tails and belong to none.
    state: dict[int, int] = {}  # 1 = on current walk, 2 = finished
    ring_count = 0
    largest = 0
    for start in live:
        if start in state:
            continue
        walk: list[int] = []
        u: "int | None" = start
        while u is not None and u in live_set and u not in state:
            state[u] = 1
            walk.append(u)
            u = overlay.tables[u].successor
        if u is not None and state.get(u) == 1:
            cycle_len = len(walk) - walk.index(u)
            ring_count += 1
            largest = max(largest, cycle_len)
        for w in walk:
            state[w] = 2

    long_links = overlay.long_links
    in_degree = np.bincount(long_links[long_links >= 0], minlength=n)
    cap = overlay.k_links + max(0, in_degree_slack)
    violations = [int(v) for v in np.flatnonzero(in_degree > cap)]
    # A ledger entry (source s admitted on v) whose source links elsewhere.
    target, at = np.nonzero(overlay.incoming_sources >= 0)
    source = overlay.incoming_sources[target, at]
    loose = ~(long_links[source] == target[:, None]).any(axis=1)
    order = np.lexsort((source[loose], target[loose]))
    leaked = list(zip(source[loose][order].tolist(), target[loose][order].tolist()))

    return DoctorReport(
        live_peers=len(live),
        ring_count=ring_count,
        largest_cycle=largest,
        broken_successors=broken,
        asymmetric_pairs=asymmetric,
        in_degree_cap=int(cap),
        max_in_degree=int(in_degree.max()) if n else 0,
        in_degree_violations=violations,
        leaked_slots=leaked,
    )
