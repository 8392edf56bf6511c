"""Live runtime: envelopes, transport, SWIM membership, supervision, delivery."""

import asyncio

import numpy as np
import pytest

from repro.live import (
    ALIVE,
    DEAD,
    SUSPECT,
    Envelope,
    LiveCluster,
    LiveConfig,
    LiveScenario,
    LoopbackTransport,
    MembershipView,
    NodeSupervisor,
    PeerNode,
    get_live_scenario,
    live_scenario_names,
)
from repro.live import TraceContext
from repro.live.envelope import ACK, PING
from repro.net.faults import FaultPlan, RingPartition
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.util.exceptions import (
    ConfigurationError,
    PeerUnreachable,
    RetryBudgetExhausted,
    TransientError,
)

#: quiet protocol loops for unit tests that drive the node by hand.
QUIET = LiveConfig(
    gossip_interval=30.0,
    probe_interval=30.0,
    request_timeout=0.02,
    request_retries=1,
    delay_mean=0.0,
    delay_jitter=0.0,
)


class TestEnvelope:
    def test_reply_swaps_endpoints_and_preserves_corr(self):
        req = Envelope(kind=PING, src=3, dst=9, seq=17, corr=42, payload={"a": 1})
        rep = req.reply(ACK, seq=5, payload={"ok": True})
        assert rep.src == 9 and rep.dst == 3
        assert rep.corr == 42 and rep.seq == 5
        assert rep.kind == ACK and rep.payload == {"ok": True}

    def test_default_payload_is_fresh_dict(self):
        a = Envelope(kind=PING, src=0, dst=1, seq=1)
        b = Envelope(kind=PING, src=0, dst=1, seq=2)
        assert a.payload == {} and a.payload is not b.payload


class TestLiveConfig:
    def test_defaults_valid(self):
        LiveConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay_mean": -0.001},
            {"delay_jitter": float("nan")},
            {"request_timeout": 0.0},
            {"probe_interval": -1.0},
            {"gossip_interval": 0.0},
            {"request_retries": -1},
            {"restart_backoff": 0.0},
            {"restart_backoff_max": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LiveConfig(**kwargs)


class TestLiveScenarioCatalog:
    def test_catalog_names(self):
        names = live_scenario_names()
        assert "crash_and_partition" in names and "calm" in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_live_scenario("definitely_not_a_scenario")

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            LiveScenario(name="bad", description="", crash_fraction=1.5)


class TestMembershipView:
    def test_higher_heartbeat_wins_and_reports_advance(self):
        view = MembershipView(owner=0, members=range(3))
        advanced = view.merge({"1": (5, ALIVE)})
        assert advanced == {1}
        assert view.heartbeat[1] == 5
        # Stale digest: no advance, no regression.
        assert view.merge({"1": (2, ALIVE)}) == set()
        assert view.heartbeat[1] == 5

    def test_equal_heartbeat_worse_status_wins(self):
        view = MembershipView(owner=0, members=range(3))
        view.merge({"1": (5, ALIVE)})
        assert view.merge({"1": (5, DEAD)}) == set()
        assert view.status[1] == DEAD
        # ...but a better status at equal heartbeat does not resurrect.
        view.merge({"1": (5, ALIVE)})
        assert view.status[1] == DEAD

    def test_higher_heartbeat_resurrects_dead_entry(self):
        view = MembershipView(owner=0, members=range(3))
        view.merge({"1": (5, DEAD)})
        advanced = view.merge({"1": (6, ALIVE)})
        assert advanced == {1}
        assert view.status[1] == ALIVE and view.is_alive(1)

    def test_self_report_refuted_by_heartbeat_bump(self):
        view = MembershipView(owner=0, members=range(3))
        view.self_beat()  # own hb = 1
        view.merge({"0": (4, DEAD)})
        assert view.status[0] == ALIVE
        assert view.heartbeat[0] == 5  # out-lives the rumor

    def test_false_suspicion_regression_threshold_guard(self):
        # A flaky-but-alive member must never be evicted before
        # SUSPICION_THRESHOLD (3) *consecutive* failed probe rounds.
        view = MembershipView(owner=0, members=range(2))
        assert not view.probe_failed(1)
        assert not view.probe_failed(1)
        assert view.status[1] == SUSPECT and view.is_alive(1)
        # One successful probe clears the streak entirely.
        view.probe_succeeded(1)
        assert view.status[1] == ALIVE and view.suspicion.get(1, 0) == 0
        # The next failures start the count from zero again.
        assert not view.probe_failed(1)
        assert not view.probe_failed(1)
        assert view.is_alive(1)
        assert view.probe_failed(1)  # third consecutive: confirmed
        assert view.status[1] == DEAD and not view.is_alive(1)

    def test_probe_success_resurrects_with_heartbeat_bump(self):
        view = MembershipView(owner=0, members=range(2))
        view.merge({"1": (7, DEAD)})
        view.probe_succeeded(1)
        assert view.status[1] == ALIVE
        assert view.heartbeat[1] == 8  # correction propagates via gossip


class TestLoopbackTransport:
    def _env(self, src: int, dst: int) -> Envelope:
        return Envelope(kind=PING, src=src, dst=dst, seq=1)

    @pytest.mark.parametrize(
        "mean, jitter, digest",
        [(0.002, 0.002, "1e11e96e52829422"), (0.003, 0.001, "77fc13eca8f87171")],
    )
    def test_seeded_delays_are_pinned(self, mean, jitter, digest):
        # sha256 of 200 float64 delays as the closure-based model drew them.
        import hashlib

        t = LoopbackTransport(seed=11, registry=MetricsRegistry())
        t.configure_delay(mean, jitter)
        delays = np.array([t._sample_delay() for _ in range(200)])
        assert hashlib.sha256(delays.tobytes()).hexdigest()[:16] == digest
        assert delays.min() >= max(0.0, mean - jitter) and delays.max() <= mean + jitter

    def test_no_delay_draws_nothing(self):
        reference = np.random.default_rng(11).random()
        for configure in (None, (0.0, 0.0)):
            t = LoopbackTransport(seed=11, registry=MetricsRegistry())
            if configure is not None:
                t.configure_delay(*configure)
            assert [t._sample_delay() for _ in range(3)] == [0.0, 0.0, 0.0]
            assert t._rng.random() == reference

    def test_delivers_between_registered_inboxes(self):
        async def main():
            t = LoopbackTransport(registry=MetricsRegistry())
            t.register(0)
            inbox = t.register(1)
            assert t.send(self._env(0, 1))
            env = await asyncio.wait_for(inbox.get(), 1.0)
            assert env.src == 0 and env.dst == 1

        asyncio.run(main())

    def test_unregistered_destination_dropped(self):
        async def main():
            registry = MetricsRegistry()
            t = LoopbackTransport(registry=registry)
            t.register(0)
            assert not t.send(self._env(0, 7))
            assert registry.counters()["transport.dropped_unregistered"].value == 1

        asyncio.run(main())

    def test_partition_blocks_cross_cut_links(self):
        async def main():
            registry = MetricsRegistry()
            plan = FaultPlan(
                partitions=(RingPartition(cut=(0.15, 0.65), start=0.0, end=100.0),),
                seed=3,
                registry=registry,
            )
            ids = np.array([0.3, 0.8, 0.4])  # 0 and 2 inside the arc, 1 outside
            t = LoopbackTransport(ids=ids, faults=plan, seed=3, registry=registry)
            t.register(0), t.register(1), t.register(2)
            t.start_clock()
            assert not t.send(self._env(0, 1))  # crosses the cut
            assert t.send(self._env(0, 2))  # same side
            assert registry.counters()["transport.dropped_partition"].value == 1

        asyncio.run(main())

    def test_total_loss_drops_everything(self):
        async def main():
            registry = MetricsRegistry()
            plan = FaultPlan(loss_rate=1.0, seed=4, registry=registry)
            t = LoopbackTransport(faults=plan, seed=4, registry=registry)
            t.register(0), t.register(1)
            assert not t.send(self._env(0, 1))
            assert registry.counters()["transport.dropped_loss"].value == 1

        asyncio.run(main())

    def test_crash_while_in_flight_drops_envelope(self):
        async def main():
            t = LoopbackTransport(registry=MetricsRegistry())
            t.register(0)
            inbox = t.register(1)
            t.configure_delay(0.01, 0.0)
            assert t.send(self._env(0, 1))  # accepted...
            t.unregister(1)  # ...but the host dies in flight
            await asyncio.sleep(0.05)
            assert inbox.qsize() == 0

        asyncio.run(main())


class TestDropCauseSpans:
    """Every transport kill of a traced envelope annotates the chain.

    One test per drop cause — loss, partition, crashed destination,
    crash while in flight — asserting the cause lands verbatim as the
    ``drop`` span's status, so a broken causal chain always says *why*
    the envelope died, not just that it did.
    """

    def _traced_env(self, src: int, dst: int) -> Envelope:
        wire = TraceContext("3:1", parent=5, hop=1).wire()
        return Envelope(kind=PING, src=src, dst=dst, seq=1, trace=wire)

    def _drop_span(self, tracer: Tracer) -> dict:
        spans = [s for s in tracer.spans() if s["name"] == "drop"]
        assert len(spans) == 1
        return spans[0]

    def test_loss_annotates_span(self):
        async def main():
            plan = FaultPlan(loss_rate=1.0, seed=4)
            t = LoopbackTransport(faults=plan, seed=4, registry=MetricsRegistry())
            t.tracer = Tracer(clock=t.now)
            t.register(0), t.register(1)
            assert not t.send(self._traced_env(0, 1))
            span = self._drop_span(t.tracer)
            assert span["status"] == "loss"
            assert span["trace_id"] == "3:1" and span["parent"] == 5
            assert span["node"] == 1 and span["hop"] == 1

        asyncio.run(main())

    def test_partition_annotates_span(self):
        async def main():
            plan = FaultPlan(
                partitions=(RingPartition(cut=(0.15, 0.65), start=0.0, end=100.0),),
                seed=3,
            )
            ids = np.array([0.3, 0.8])
            t = LoopbackTransport(ids=ids, faults=plan, seed=3, registry=MetricsRegistry())
            t.tracer = Tracer(clock=t.now)
            t.register(0), t.register(1)
            t.start_clock()
            assert not t.send(self._traced_env(0, 1))
            assert self._drop_span(t.tracer)["status"] == "partition"

        asyncio.run(main())

    def test_crashed_destination_annotates_span(self):
        async def main():
            t = LoopbackTransport(registry=MetricsRegistry())
            t.tracer = Tracer(clock=t.now)
            t.register(0)
            assert not t.send(self._traced_env(0, 7))
            span = self._drop_span(t.tracer)
            assert span["status"] == "crashed_dst" and span["node"] == 7

        asyncio.run(main())

    def test_crash_while_in_flight_annotates_span(self):
        async def main():
            t = LoopbackTransport(registry=MetricsRegistry())
            t.tracer = Tracer(clock=t.now)
            t.register(0)
            t.register(1)
            t.configure_delay(0.01, 0.0)
            assert t.send(self._traced_env(0, 1))
            t.unregister(1)
            await asyncio.sleep(0.05)
            assert self._drop_span(t.tracer)["status"] == "inflight_crash"

        asyncio.run(main())

    def test_untraced_envelope_emits_no_span(self):
        async def main():
            t = LoopbackTransport(registry=MetricsRegistry())
            t.tracer = Tracer(clock=t.now)
            t.register(0)
            assert not t.send(Envelope(kind=PING, src=0, dst=7, seq=1))
            assert t.tracer.spans() == []

        asyncio.run(main())


class TestRequestTaxonomy:
    def _world(self, registry):
        t = LoopbackTransport(seed=1, registry=registry)
        node = PeerNode(0, t, range(3), config=QUIET, seed=1, registry=registry)
        return t, node

    def test_confirmed_dead_peer_raises_peer_unreachable(self):
        async def main():
            registry = MetricsRegistry()
            _, node = self._world(registry)
            for _ in range(3):
                node.view.probe_failed(1)
            with pytest.raises(PeerUnreachable):
                await node.request(1, PING)
            assert registry.counters()["live.peer_unreachable"].value == 1

        asyncio.run(main())

    def test_silent_peer_exhausts_retry_budget(self):
        async def main():
            registry = MetricsRegistry()
            t, node = self._world(registry)
            node.start()
            t.register(1)  # registered but nobody drains the inbox
            try:
                with pytest.raises(RetryBudgetExhausted):
                    await node.request(1, PING)
            finally:
                await node.stop()
            assert registry.counters()["live.retry_exhausted"].value == 1
            assert registry.counters()["live.request_retries"].value == 1

        asyncio.run(main())

    def test_node_crash_mid_request_surfaces_transient_error(self):
        async def main():
            registry = MetricsRegistry()
            t, node = self._world(registry)
            node.start()
            t.register(1)
            task = asyncio.create_task(
                node.request(1, PING, timeout=5.0, retries=0)
            )
            await asyncio.sleep(0.02)
            node.crash()
            with pytest.raises(TransientError):
                await task

        asyncio.run(main())

    def test_round_trip_between_two_live_nodes(self):
        async def main():
            registry = MetricsRegistry()
            t = LoopbackTransport(seed=2, registry=registry)
            a = PeerNode(0, t, range(2), config=QUIET, seed=2, registry=registry)
            b = PeerNode(1, t, range(2), config=QUIET, seed=3, registry=registry)
            a.start(), b.start()
            try:
                reply = await a.request(1, PING, timeout=1.0)
                assert reply == {}
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(main())


class TestSupervisor:
    def test_crashed_node_is_restarted(self):
        async def main():
            registry = MetricsRegistry()
            config = LiveConfig(
                gossip_interval=30.0,
                probe_interval=30.0,
                restart_backoff=0.01,
                restart_backoff_max=0.02,
            )
            t = LoopbackTransport(seed=5, registry=registry)
            node = PeerNode(0, t, range(2), config=config, seed=5, registry=registry)
            sup = NodeSupervisor(config=config, seed=5, registry=registry)
            sup.supervise(node)
            # Poison the inbox: the recv loop dies on the non-envelope.
            node.inbox.put_nowait(object())
            await asyncio.sleep(0.3)
            try:
                assert registry.counters()["live.node_crashes"].value == 1
                assert registry.counters()["live.node_restarts"].value == 1
                assert node.running and t.is_registered(0)
                assert sup.restart_count(0) == 1 and not sup.gave_up()
            finally:
                await sup.shutdown()

        asyncio.run(main())

    def test_killed_node_stays_down(self):
        async def main():
            registry = MetricsRegistry()
            t = LoopbackTransport(seed=6, registry=registry)
            node = PeerNode(0, t, range(2), config=QUIET, seed=6, registry=registry)
            sup = NodeSupervisor(config=QUIET, seed=6, registry=registry)
            sup.supervise(node)
            sup.kill(0)
            await asyncio.sleep(0.1)
            try:
                assert not node.running and not t.is_registered(0)
                assert sup.is_killed(0)
                assert registry.counters()["live.node_restarts"].value == 0
            finally:
                await sup.shutdown()

        asyncio.run(main())


class TestDegradedDelivery:
    def test_crash_mid_publish_loses_nothing_silently(self):
        # 25% of nodes die mid-publish; every intended pair for a
        # truth-alive subscriber must be delivered live, recovered via
        # catch-up, or still parked in a buffer — never unaccounted.
        scenario = LiveScenario(
            name="test_crash_quarter",
            description="crash mid-publish (test-sized)",
            duration=1.5,
            settle=10.0,
            crash_fraction=0.25,
            crash_at=0.6,
        )
        result = asyncio.run(
            LiveCluster(
                num_nodes=40, scenario=scenario, seed=5, registry=MetricsRegistry()
            ).run()
        )
        assert result["unaccounted"] == 0
        assert result["eventual_delivery_ratio"] >= 0.99
        assert result["shed_pairs"] + result["recovered_catchup"] > 0 or (
            result["delivered_live"] == result["intended_pairs"]
        )
        classified = (
            result["delivered_live"]
            + result["recovered_catchup"]
            + result["pending_catchup"]
            + result["evicted_catchup"]
            + result["subscriber_dead"]
        )
        assert classified == result["intended_pairs"]
        assert result["membership_converged"]
        assert result["doctor_ok"]
        assert result["gave_up_nodes"] == []

    @staticmethod
    def _idle_cluster():
        """A booted-but-never-run cluster with every node up and room for
        one catch-up entry a holder; returns it with a friend pair."""
        cluster = LiveCluster(num_nodes=16, scenario="calm", seed=3, registry=MetricsRegistry())
        for v in range(cluster.n):
            cluster.transport.register(v)
        cluster.catchup.capacity = 1
        publisher = 0
        subscriber = int(cluster.graph.neighbors(publisher)[0])
        return cluster, publisher, subscriber

    def _shed(self, cluster, publisher, subscriber):
        """What ``_publish_once`` does with a pair whose retry budget ran out."""
        seq = cluster.catchup.new_notification()
        cluster.intended.append((seq, publisher, subscriber))
        cluster.shed_pairs.add((seq, subscriber))
        cluster.catchup.deposit(seq, publisher, subscriber, True, cluster.truth_online(), 0.0)
        return seq

    def test_an_eviction_elsewhere_does_not_excuse_a_lost_pair(self):
        cluster, publisher, subscriber = self._idle_cluster()
        # A pair that was neither acked nor parked: its deliver() died of
        # something other than a TransientError.
        cluster.intended.append((cluster.catchup.new_notification(), publisher, subscriber))
        # Two bonus deposits for an unrelated subscriber overflow a buffer.
        other = next(v for v in range(cluster.n) if v not in (publisher, subscriber))
        for _ in range(2):
            seq = cluster.catchup.new_notification()
            cluster.catchup.deposit(seq, publisher, other, False, cluster.truth_online(), 0.0)
        assert cluster.catchup.stats.evictions > 0
        result = cluster._account()
        assert result["unaccounted"] == 1
        assert result["pending_catchup"] == result["evicted_catchup"] == 0
        assert result["eventual_delivery_ratio"] == 0.0

    def test_a_shed_pair_evicted_from_a_full_buffer_is_counted_as_evicted(self):
        cluster, publisher, subscriber = self._idle_cluster()
        first = self._shed(cluster, publisher, subscriber)
        second = self._shed(cluster, publisher, subscriber)  # same holders: evicts the first
        buffered = {(seq, sub) for buf in cluster.catchup.buffers.values() for seq, sub, _ in buf}
        assert buffered == {(second, subscriber)} and first != second
        result = cluster._account()
        assert result["evicted_catchup"] == 1
        assert result["pending_catchup"] == 1
        assert result["unaccounted"] == 0
        assert result["shed_pairs"] == result["intended_pairs"] == 2


class TestAcceptance:
    def test_200_node_crash_and_partition_reconverges_and_delivers(self):
        # The ISSUE's acceptance bar: a seeded 200-node cluster survives
        # a scripted 25% crash plus a 2-arc partition — membership
        # reconverges, the overlay doctor stays clean, and eventual
        # notification delivery (live + catch-up) reaches >= 99%.
        result = asyncio.run(
            LiveCluster(
                num_nodes=200,
                scenario="crash_and_partition",
                seed=2018,
                registry=MetricsRegistry(),
            ).run()
        )
        assert result["membership_converged"]
        assert result["convergence_s"] is not None
        assert result["doctor_ok"]
        assert result["unaccounted"] == 0
        assert result["eventual_delivery_ratio"] >= 0.99
        assert result["gave_up_nodes"] == []
