"""Overlay doctor: the invariant checker and its CLI experiment."""

import numpy as np
import pytest

from repro.baselines.symphony import SymphonyOverlay
from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.core.stabilize import CatchUpStore, Stabilizer
from repro.graphs.datasets import load_dataset
from repro.net.churn import ChurnModel
from repro.net.faults import FaultPlan, PingService
from repro.net.workload import PublishWorkload
from repro.overlay.doctor import check_overlay
from repro.sim.runner import NotificationSimulator
from repro.util.exceptions import ConfigurationError


class TestHealthyOverlays:
    def test_built_select_passes(self, built_select):
        doc = check_overlay(built_select)
        assert doc.ok
        assert doc.consistent_ring and doc.ring_ok
        assert doc.ring_count == 1
        assert doc.largest_cycle == doc.live_peers == built_select.graph.num_nodes
        assert doc.broken_successors == []
        assert doc.asymmetric_pairs == []
        assert doc.in_degree_violations == []

    def test_built_symphony_passes(self, small_graph):
        overlay = SymphonyOverlay(small_graph).build(seed=7)
        assert check_overlay(overlay).ok

    def test_unbuilt_overlay_rejected(self, small_graph):
        with pytest.raises(ConfigurationError):
            check_overlay(SelectOverlay(small_graph))

    def test_summary_renders_verdict(self, built_select):
        text = check_overlay(built_select).summary()
        assert "OK" in text and "ring cycles" in text


class TestLiveSubset:
    def test_offline_peers_are_ignored_by_oracle_repair(self, small_graph):
        overlay = SelectOverlay(small_graph, config=SelectConfig(max_rounds=25)).build(seed=3)
        online = np.ones(small_graph.num_nodes, dtype=bool)
        online[::5] = False
        RecoveryManager(overlay).tick(online)
        doc = check_overlay(overlay, online=online)
        assert doc.live_peers == int(online.sum())
        assert doc.ring_ok


class TestViolationsDetected:
    def _built(self, tiny_graph):
        return SelectOverlay(tiny_graph, config=SelectConfig(max_rounds=10)).build(seed=5)

    def test_split_ring_detected(self, tiny_graph):
        overlay = self._built(tiny_graph)
        # Rewire successor pointers into two 3-cycles (and predecessors to
        # match so only the connectivity invariant trips).
        for cycle in ([0, 1, 2], [3, 4, 5]):
            for i, v in enumerate(cycle):
                overlay.tables[v].successor = cycle[(i + 1) % 3]
                overlay.tables[cycle[(i + 1) % 3]].predecessor = v
        doc = check_overlay(overlay)
        assert not doc.ring_ok
        assert doc.ring_count == 2
        assert doc.largest_cycle == 3

    def test_broken_successor_detected(self, tiny_graph):
        overlay = self._built(tiny_graph)
        overlay.tables[0].successor = None
        doc = check_overlay(overlay)
        assert (0, None) in doc.broken_successors
        assert not doc.ok

    def test_asymmetry_detected(self, tiny_graph):
        overlay = self._built(tiny_graph)
        succ = overlay.tables[0].successor
        wrong = next(w for w in range(6) if w not in (0, succ))
        overlay.tables[succ].predecessor = wrong
        doc = check_overlay(overlay)
        assert (0, succ) in doc.asymmetric_pairs
        assert not doc.consistent_ring

    def test_in_degree_violation_detected(self, tiny_graph):
        overlay = self._built(tiny_graph)
        # Everyone force-links to node 0, far beyond K + slack.
        for v in range(1, 6):
            table = overlay.tables[v]
            table.long_links = [0, *table.long_links][: table.max_long]
        doc = check_overlay(overlay, in_degree_slack=0)
        assert 0 in doc.in_degree_violations or doc.max_in_degree > doc.in_degree_cap

    def test_leaked_slot_detected(self, tiny_graph):
        overlay = self._built(tiny_graph)
        src, dst = next(
            (s, v) for v in range(overlay.graph.num_nodes) for s in sorted(overlay.admitted(v))
        )
        overlay.tables[src].drop_long(dst)  # the link goes, the slot stays charged
        doc = check_overlay(overlay)
        assert doc.leaked_slots == [(src, dst)]
        assert doc.consistent_ring and not doc.ok
        assert "leaked slots        : 1" in doc.summary()


class TestLedgerAfterRecovery:
    def test_churn_repair_keeps_ledger_equal_to_reverse_links(self):
        """The suite's churn workload at 1k: recovery swaps hundreds of
        links under loss, and every admitted source still holds its link
        — the invariant that lets the router carry admitted links both
        ways."""
        n = 1000
        overlay = SelectOverlay(
            load_dataset("facebook", num_nodes=n, seed=7), config=SelectConfig(max_rounds=200)
        ).build(7)
        plan = FaultPlan(loss_rate=0.02, seed=1)
        pings = PingService(plan)
        recovery = RecoveryManager(overlay, pings, stabilizer=Stabilizer(overlay, pings))
        NotificationSimulator(
            overlay,
            PublishWorkload(n, mean_rate=0.01, seed=7),
            churn=ChurnModel(n, seed=7),
            faults=plan,
            repair=recovery.tick,
            catchup=CatchUpStore(overlay, faults=plan),
            maintenance_period=24.0,
        ).run(120.0)
        assert recovery.replacements > 0
        assert check_overlay(overlay).leaked_slots == []
        reverse = [set() for _ in range(n)]
        for v, table in enumerate(overlay.tables):
            for w in table.long_links:
                reverse[w].add(v)
        assert [set(overlay.admitted(v)) for v in range(n)] == reverse
        assert overlay.incoming_count.tolist() == [len(sources) for sources in reverse]
