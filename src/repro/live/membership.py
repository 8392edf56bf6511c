"""SWIM-style membership state, one view per node.

Each live node keeps a :class:`MembershipView`: for every cluster member
a monotonically increasing *heartbeat sequence* and a status in the SWIM
lattice ``ALIVE < SUSPECT < DEAD``. Information spreads by push gossip
(each round a node bumps its own heartbeat and pushes its full digest to
a few believed-alive targets) and hardens through the failure detector
(direct ping, then indirect ping-req through helpers, then a suspicion
counter that must reach ``SUSPICION_THRESHOLD`` before SUSPECT becomes
DEAD — the false-suspicion guard ``tests/test_live.py`` pins).

Merge rules (pure functions of ``(heartbeat, status)`` pairs, so the
state machine is unit-testable without an event loop):

* a **higher heartbeat always wins** — it is strictly newer evidence,
  and in particular resurrects a DEAD entry after a partition heals;
* at **equal heartbeats the worse status wins** — suspicion and death
  verdicts propagate without needing the victim's cooperation;
* a node that sees *itself* reported SUSPECT/DEAD **refutes** by bumping
  its own heartbeat above the report, so the next gossip round clears
  the false alarm.
"""

from __future__ import annotations

from repro.live.config import SUSPICION_THRESHOLD

__all__ = ["ALIVE", "SUSPECT", "DEAD", "MembershipView"]

ALIVE = 0
SUSPECT = 1
DEAD = 2


class MembershipView:
    """One node's view of every cluster member."""

    def __init__(self, owner: int, members):
        self.owner = int(owner)
        members = [int(m) for m in members]
        #: member -> latest known heartbeat sequence.
        self.heartbeat: dict[int, int] = {m: 0 for m in members}
        #: member -> ALIVE / SUSPECT / DEAD.
        self.status: dict[int, int] = {m: ALIVE for m in members}
        #: member -> consecutive failed probe rounds (local evidence only).
        self.suspicion: dict[int, int] = {}
        #: optional hook ``(member, old, new, reason)`` fired on every
        #: status transition — the flight recorder's tap. ``None`` (the
        #: default) keeps the PR 7 zero-overhead path: transitions assign
        #: the dict directly and no callback machinery runs.
        self.on_transition = None

    def _set_status(self, m: int, new: int, reason: str) -> None:
        """Assign a status, notifying the transition hook on change."""
        old = self.status.get(m, ALIVE)
        self.status[m] = new
        if self.on_transition is not None and old != new:
            self.on_transition(m, old, new, reason)

    # -- own heartbeat ---------------------------------------------------------

    def self_beat(self) -> int:
        """Bump and return the owner's heartbeat (one per gossip round)."""
        hb = self.heartbeat[self.owner] + 1
        self.heartbeat[self.owner] = hb
        self._set_status(self.owner, ALIVE, "self_beat")
        return hb

    # -- digest exchange -------------------------------------------------------

    def digest(self) -> dict:
        """JSON-safe snapshot pushed in one gossip envelope."""
        return {str(m): (self.heartbeat[m], self.status[m]) for m in self.heartbeat}

    def merge(self, digest: dict) -> "set[int]":
        """Fold a received digest into this view.

        Returns the members whose *heartbeat advanced* — the failure
        detector uses this as freshness evidence (a member whose
        heartbeat never advances is exactly the one worth probing).
        """
        advanced: "set[int]" = set()
        for key, (hb, status) in digest.items():
            m = int(key)
            hb = int(hb)
            status = int(status)
            if m not in self.heartbeat:
                self.heartbeat[m] = hb
                self.status[m] = status
                advanced.add(m)
                continue
            if m == self.owner:
                if status != ALIVE and hb >= self.heartbeat[self.owner]:
                    # Refutation: out-live the rumor of our death.
                    self.heartbeat[self.owner] = hb + 1
                    self._set_status(self.owner, ALIVE, "refute")
                continue
            cur_hb = self.heartbeat[m]
            cur_status = self.status[m]
            if hb > cur_hb:
                self.heartbeat[m] = hb
                if status != cur_status:
                    self._set_status(m, status, "gossip")
                # Fresh evidence the peer is alive clears local suspicion.
                if status == ALIVE:
                    self.suspicion.pop(m, None)
                advanced.add(m)
            elif hb == cur_hb and status > cur_status:
                self._set_status(m, status, "gossip")
        return advanced

    # -- failure detector verdicts ---------------------------------------------

    def probe_succeeded(self, m: int) -> None:
        """Direct or indirect probe answered: the member is alive *now*."""
        self.suspicion.pop(m, None)
        if self.status.get(m, ALIVE) != ALIVE:
            # Local first-hand evidence beats gossip rumor: resurrect and
            # bump the entry so the correction propagates.
            self._set_status(m, ALIVE, "probe_ack")
            self.heartbeat[m] = self.heartbeat.get(m, 0) + 1

    def probe_failed(self, m: int) -> bool:
        """One failed probe round; returns True when DEAD was confirmed.

        The first failure only marks SUSPECT; DEAD requires
        ``SUSPICION_THRESHOLD`` *consecutive* failed rounds, so a flaky
        but alive member is never evicted off a single noisy sample.
        """
        if self.status.get(m) == DEAD:
            return False
        count = self.suspicion.get(m, 0) + 1
        self.suspicion[m] = count
        if count >= SUSPICION_THRESHOLD:
            self._set_status(m, DEAD, "confirmed")
            self.heartbeat[m] = self.heartbeat.get(m, 0)
            self.suspicion.pop(m, None)
            return True
        self._set_status(m, SUSPECT, "suspected")
        return False

    # -- queries -----------------------------------------------------------------

    def is_alive(self, m: int) -> bool:
        """Believed usable: ALIVE or merely SUSPECT (not yet confirmed)."""
        return self.status.get(m, DEAD) != DEAD

    def alive_members(self) -> "list[int]":
        """Members currently believed usable, owner included, sorted."""
        return sorted(m for m in self.status if self.status[m] != DEAD)

    def dead_members(self) -> "list[int]":
        return sorted(m for m in self.status if self.status[m] == DEAD)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = sum(1 for s in self.status.values() if s == ALIVE)
        suspect = sum(1 for s in self.status.values() if s == SUSPECT)
        dead = sum(1 for s in self.status.values() if s == DEAD)
        return (
            f"MembershipView(owner={self.owner}, alive={alive}, "
            f"suspect={suspect}, dead={dead})"
        )
