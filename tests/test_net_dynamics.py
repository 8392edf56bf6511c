"""Dynamic models: churn, growth, workload, CMA availability."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.datasets import load_dataset
from repro.net.availability import CmaBook
from repro.net.churn import ChurnModel, ChurnTimeline
from repro.net.growth import GrowthModel
from repro.net.workload import PublishWorkload
from repro.util.exceptions import ConfigurationError
from tests.conftest import online_reference


#: sha256 of ``ChurnModel(60, mean_session=100, mean_offline=400, seed=4)
#: .online_matrix(5000, 12)``, recorded while liveness was one
#: ``ChurnSchedule`` a peer and the matrix a ticks x peers Python loop.
ONLINE_MATRIX_PIN = "8865fde42dda829bdfeb102a16193ccba1b15f0a1b74e8a5efb3542d17a5e595"

_flip_gaps = st.lists(st.floats(1e-6, 500.0), min_size=1, max_size=8)


class TestChurnSchedule:
    def test_alternating_states(self):
        timeline = ChurnModel(5, seed=1).schedules(horizon=10_000.0)
        # Every peer's state flips at each of its boundaries.
        for peer, (boundaries, initially_online) in enumerate(timeline.peers()):
            assert timeline.online_at(0.0)[peer] == initially_online
            for flips, instant in enumerate(boundaries.tolist(), start=1):
                assert timeline.online_at(instant)[peer] == initially_online ^ (flips % 2 == 1)

    @given(
        peers=st.lists(st.tuples(_flip_gaps, st.booleans()), min_size=1, max_size=6),
        probe=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lookup_equals_the_per_peer_rule(self, peers, probe, data):
        timeline = ChurnTimeline.from_peers(
            [(np.cumsum(gaps), initially_online) for gaps, initially_online in peers]
        )
        horizon = float(timeline.boundaries.max())
        instants = [0.0, horizon, probe * horizon]
        instants.append(data.draw(st.sampled_from(timeline.boundaries.tolist())))
        for t in instants:
            assert timeline.online_at(t).tolist() == online_reference(timeline, t).tolist()

    def test_a_peer_without_a_boundary_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnTimeline.from_peers([([1.0], True), ([], False)])

    def test_biased_peers_less_online(self):
        model = ChurnModel(400, offline_bias_fraction=0.5, seed=3)
        horizon = 20_000.0
        timeline = model.schedules(horizon)
        grid = np.linspace(0.0, horizon, 200, endpoint=False)
        fracs = np.mean([timeline.online_at(t) for t in grid], axis=0)
        assert ((0.0 <= fracs) & (fracs <= 1.0)).all()
        assert fracs[model.offline_biased].mean() < fracs[~model.offline_biased].mean()

    def test_matrix_shape_and_floor(self):
        model = ChurnModel(60, mean_session=100.0, mean_offline=400.0, seed=4)
        m = model.online_matrix(horizon=5_000.0, ticks=12)
        assert m.shape == (12, 60) and m.dtype == bool
        # Paper constraint: never below half the network online.
        assert (m.sum(axis=1) >= 30).all()
        assert hashlib.sha256(m.tobytes()).hexdigest() == ONLINE_MATRIX_PIN

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ChurnModel(0)
        with pytest.raises(ConfigurationError):
            ChurnModel(5, mean_session=-1.0)
        model = ChurnModel(5, seed=5)
        with pytest.raises(ConfigurationError):
            model.schedules(-5.0)
        with pytest.raises(ConfigurationError):
            model.online_matrix(100.0, ticks=0)


class TestGrowth:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook", num_nodes=120, seed=9)

    def test_covers_every_user_once(self, graph):
        users, _, _ = GrowthModel(graph, seed=1).join_order()
        assert sorted(users.tolist()) == list(range(graph.num_nodes))

    def test_inviter_joined_earlier_and_is_friend(self, graph):
        users, inviters, _ = GrowthModel(graph, seed=2).join_order().tolist()
        joined = set()
        for user, inviter in zip(users, inviters):
            if inviter >= 0:
                assert inviter in joined
                assert graph.has_edge(user, inviter)
            joined.add(user)

    def test_steps_nondecreasing(self, graph):
        steps = GrowthModel(graph, seed=3).join_order()[2].tolist()
        assert steps == sorted(steps)


class TestWorkload:
    def test_events_sorted_and_within_horizon(self):
        w = PublishWorkload(50, mean_rate=0.05, seed=1)
        events = w.events_until(200.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 200.0 for t in times)

    def test_rate_normalization(self):
        w = PublishWorkload(100, mean_rate=0.02, seed=2)
        # Population posts ~ mean_rate * num_users per second.
        assert w.rates.sum() == pytest.approx(0.02 * 100)

    def test_publisher_fraction(self):
        w = PublishWorkload(200, publisher_fraction=0.1, seed=3)
        assert 5 <= len(w.publishers) <= 40

    def test_heterogeneous_rates(self):
        w = PublishWorkload(300, rate_sigma=1.5, seed=4)
        positive = w.rates[w.rates > 0]
        assert positive.max() > 5 * np.median(positive)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PublishWorkload(0)
        with pytest.raises(ConfigurationError):
            PublishWorkload(10, mean_rate=0)
        w = PublishWorkload(10, seed=6)
        with pytest.raises(ConfigurationError):
            w.events_until(0)

    def test_negative_rate_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            PublishWorkload(10, rate_sigma=-0.5)
        # Zero sigma is legal: every publisher posts at the same rate.
        w = PublishWorkload(10, rate_sigma=0.0, publisher_fraction=1.0, seed=7)
        assert np.allclose(w.rates, w.rates[0])

    def test_aggregate_rate_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            PublishWorkload(10**9, mean_rate=1e300)

    def test_reweight_boosts_named_user(self):
        w = PublishWorkload(50, rate_sigma=1.0, publisher_fraction=1.0, seed=9)
        before = w.rates.copy()
        w.reweight({3: 10.0})
        assert w.rates[3] == pytest.approx(before[3] * 10.0)
        others = np.delete(np.arange(50), 3)
        assert np.allclose(w.rates[others], before[others])

    def test_reweight_renormalize_preserves_total(self):
        w = PublishWorkload(50, rate_sigma=1.0, publisher_fraction=1.0, seed=10)
        total = w.total_rate
        w.reweight({0: 25.0}, renormalize=True)
        assert w.total_rate == pytest.approx(total)

    def test_reweight_invalid(self):
        w = PublishWorkload(10, publisher_fraction=1.0, seed=11)
        with pytest.raises(ConfigurationError):
            w.reweight({-1: 2.0})
        with pytest.raises(ConfigurationError):
            w.reweight({10: 2.0})
        with pytest.raises(ConfigurationError):
            w.reweight({0: -1.0})
        with pytest.raises(ConfigurationError):
            w.reweight({i: 0.0 for i in range(10)})

    def test_reweight_zeroed_user_leaves_publishers(self):
        w = PublishWorkload(10, publisher_fraction=1.0, seed=12)
        w.reweight({4: 0.0})
        assert 4 not in w.publishers


class TestCma:
    def test_streaming_mean(self):
        book = CmaBook()
        for obs in (True, False, True, True):
            book.observe(0, 7, obs)
        count, mean = book[0, 7]
        assert mean == pytest.approx(0.75)
        assert count == 4

    def test_initial_state(self):
        book = CmaBook()
        assert (0, 7) not in book and not book.should_replace(0, 7)


class TestOnlineBehavior:
    def test_unknown_contact_optimistic(self):
        assert not CmaBook().should_replace(0, 42)

    def test_replace_after_enough_bad_observations(self):
        book = CmaBook()
        for _ in range(3):
            book.observe(0, 7, False)
        assert book.should_replace(0, 7)
        assert not book.should_replace(1, 7)  # the verdict is the observer's own

    def test_keep_before_min_observations(self):
        book = CmaBook()
        book.observe(0, 7, False)
        assert not book.should_replace(0, 7)

    def test_keep_high_cma_contact(self):
        book = CmaBook()
        for _ in range(10):
            book.observe(0, 7, True)
        book.observe(0, 7, False)
        assert not book.should_replace(0, 7)

    def test_forget(self):
        book = CmaBook()
        book.observe(0, 7, False)
        book.pop((0, 7), None)
        assert (0, 7) not in book and not book.should_replace(0, 7)

    def test_tracked_sorted(self):
        book = CmaBook()
        book.observe(0, 9, True)
        book.observe(1, 5, True)
        book.observe(0, 2, True)
        assert sorted(c for o, c in book if o == 0) == [2, 9]
