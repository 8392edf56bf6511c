"""Recovery mechanism (§III-F): CMA-driven link replacement."""

import numpy as np
import pytest

from repro.core.config import SelectConfig
from repro.core.recovery import RecoveryManager
from repro.core.select import SelectOverlay
from repro.graphs.datasets import load_dataset
from repro.net.faults import FaultPlan, PingService


@pytest.fixture(scope="module")
def overlay():
    graph = load_dataset("facebook", num_nodes=100, seed=21)
    cfg = SelectConfig(max_rounds=25)
    return SelectOverlay(graph, config=cfg).build(seed=21)


def fresh_overlay():
    graph = load_dataset("facebook", num_nodes=100, seed=21)
    cfg = SelectConfig(max_rounds=25)
    return SelectOverlay(graph, config=cfg).build(seed=21)


class TestRecoveryManager:
    def test_all_online_no_replacements(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        online = np.ones(ov.graph.num_nodes, dtype=bool)
        manager.tick(online)
        assert manager.replacements == 0
        assert manager.kept_unresponsive == 0

    def test_first_failure_kept_not_replaced(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        online = np.ones(ov.graph.num_nodes, dtype=bool)
        victim = next(
            w for w in sorted(ov.tables[0].long_links)
        )
        online[victim] = False
        manager.tick(online)
        # One observation < CMA_MIN_OBSERVATIONS: kept, not replaced.
        assert victim in ov.tables[0].long_links or manager.replacements == 0
        assert manager.kept_unresponsive > 0

    def test_chronically_offline_replaced(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        online = np.ones(ov.graph.num_nodes, dtype=bool)
        victims = sorted(ov.tables[0].long_links)[:1]
        online[victims[0]] = False
        for _ in range(2):
            manager.tick(online)
        # Two missed pings, below CMA_MIN_OBSERVATIONS: kept, with a mean of 0.
        assert ov.cma[0, victims[0]] == (2, 0.0)
        assert victims[0] in ov.tables[0].long_links
        for _ in range(2):
            manager.tick(online)
        assert victims[0] not in ov.tables[0].long_links
        assert manager.replacements > 0
        # The replaced contact's history is forgotten with it.
        assert (0, victims[0]) not in ov.cma

    def test_high_cma_peer_survives_transient_failure(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        n = ov.graph.num_nodes
        online = np.ones(n, dtype=bool)
        victim = sorted(ov.tables[0].long_links)[0]
        # Long history of being online...
        for _ in range(10):
            manager.tick(online)
        # ...then one transient failure: kept.
        online[victim] = False
        manager.tick(online)
        assert victim in ov.tables[0].long_links

    def test_ring_restitched_over_live_peers(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        n = ov.graph.num_nodes
        online = np.ones(n, dtype=bool)
        online[np.arange(0, n, 3)] = False  # a third of the network gone
        manager.tick(online)
        for v in range(n):
            if not online[v]:
                continue
            assert online[ov.tables[v].successor]
            assert online[ov.tables[v].predecessor]

    def test_replacement_is_online_known_friend(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        n = ov.graph.num_nodes
        online = np.ones(n, dtype=bool)
        before = {v: set(ov.tables[v].long_links) for v in range(n)}
        dead = sorted(before[0])[:2]
        online[dead] = False
        for _ in range(4):
            manager.tick(online)
        added = set(ov.tables[0].long_links) - before[0]
        for w in added:
            assert online[w]
            assert w in ov.peers[0].known_bitmap or w in ov.peers[0].known_mutual

    def test_failed_replacement_keeps_dead_slot(self):
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        n = ov.graph.num_nodes
        online = np.ones(n, dtype=bool)
        v = 0
        peer = ov.peers[v]
        victim = sorted(peer.table.long_links)[0]
        degree_before = len(peer.table.long_links)
        # Kill the victim *and* every candidate the peer could swap in:
        # all replacement candidates come from known_bitmap.
        online[victim] = False
        for friend in peer.known_bitmap:
            online[friend] = False
        online[v] = True
        for _ in range(4):
            manager.tick(online)
        # With nobody to swap in, the dead slot must be *kept* (giving it
        # up would permanently under-link the peer) and retried each tick.
        assert victim in peer.table.long_links
        assert len(peer.table.long_links) == degree_before
        assert manager.failed_replacements > 0

    def test_multi_tick_convergence_under_mass_failure(self):
        """Satellite: recovery converges over several ticks, not one.

        A fifth of the network goes permanently offline; live peers must
        drain their dead long links over successive ticks while keeping
        their degree constant, and the dead-contact count must shrink
        monotonically tick over tick.
        """
        ov = fresh_overlay()
        manager = RecoveryManager(ov)
        n = ov.graph.num_nodes
        rng = np.random.default_rng(99)
        online = np.ones(n, dtype=bool)
        online[rng.choice(n, size=n // 5, replace=False)] = False

        def dead_contacts() -> int:
            return sum(
                1
                for v in range(n)
                if online[v]
                for w in ov.tables[v].long_links
                if not online[w]
            )

        degrees_before = {v: len(ov.tables[v].long_links) for v in range(n) if online[v]}
        counts = [dead_contacts()]
        for _ in range(6):
            manager.tick(online)
            counts.append(dead_contacts())
        # Monotone convergence: every tick leaves at most as many dead
        # contacts as the last, and overall the count drops substantially.
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        # The drain plateaus where no live unlinked candidate exists (those
        # slots are deliberately kept, see test above), but well under the
        # starting level.
        assert counts[-1] <= 0.6 * counts[0]
        assert manager.replacements > 0
        assert manager.replacements >= counts[0] - counts[-1]
        # One-for-one swaps: degree of each live peer is preserved.
        for v, deg in degrees_before.items():
            assert len(ov.tables[v].long_links) == deg
        # Ring restitched over survivors.
        for v in range(n):
            if online[v]:
                assert online[ov.tables[v].successor]
                assert online[ov.tables[v].predecessor]


class TestNoisyPings:
    """RecoveryManager driven through a faulty PingService."""

    def test_false_negatives_do_not_evict_high_cma_contacts(self):
        """Acceptance: ping noise alone never evicts reliable contacts.

        Every peer is online the whole time; the only failures are
        injected ping false negatives. Contacts with a mature, high CMA
        must all be kept: with 10 prior successes the CMA cannot drop
        below 0.5 within 10 noisy ticks, so eviction is impossible.
        """
        ov = fresh_overlay()
        n = ov.graph.num_nodes
        for v in range(n):
            peer = ov.peers[v]
            for contact in peer.table.long_links:
                for _ in range(10):
                    ov.cma.observe(v, contact, True)
        plan = FaultPlan(
            ping_false_negative=0.4, ping_attempts=2, suspicion_threshold=2, seed=31
        )
        manager = RecoveryManager(ov, ping_service=PingService(plan))
        online = np.ones(n, dtype=bool)
        links_before = {v: set(ov.tables[v].long_links) for v in range(n)}
        for _ in range(10):
            manager.tick(online)
        assert plan.stats.ping_false_negatives > 0  # noise actually fired
        assert manager.replacements == 0
        assert manager.false_evictions == 0
        assert {v: set(ov.tables[v].long_links) for v in range(n)} == links_before

    def test_suspicion_threshold_slows_but_not_stops_real_eviction(self):
        ov = fresh_overlay()
        plan = FaultPlan(ping_false_negative=0.05, suspicion_threshold=3, seed=32)
        manager = RecoveryManager(ov, ping_service=PingService(plan))
        n = ov.graph.num_nodes
        online = np.ones(n, dtype=bool)
        victim = sorted(ov.tables[0].long_links)[0]
        online[victim] = False
        for _ in range(8):
            manager.tick(online)
        # A genuinely dead, mostly-offline contact is still replaced once
        # the suspicion counter clears the threshold.
        assert victim not in ov.tables[0].long_links
        assert manager.replacements > 0

    def test_null_plan_matches_default_manager(self):
        """FaultPlan.none() ping service is bit-identical to the oracle."""
        results = []
        for service in (None, PingService(FaultPlan.none())):
            ov = fresh_overlay()
            manager = RecoveryManager(ov, ping_service=service)
            n = ov.graph.num_nodes
            online = np.ones(n, dtype=bool)
            online[np.arange(0, n, 4)] = False
            for _ in range(4):
                manager.tick(online)
            results.append(
                (
                    manager.replacements,
                    manager.kept_unresponsive,
                    manager.failed_replacements,
                    {v: sorted(ov.tables[v].long_links) for v in range(n)},
                )
            )
        assert results[0] == results[1]
