"""Seeded randomness plumbing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import (
    RngStream,
    as_generator,
    generator_state,
    restore_generator,
)


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        a = as_generator(seq).random(3)
        b = as_generator(np.random.SeedSequence(7)).random(3)
        assert np.array_equal(a, b)

    def test_none_gives_fresh_entropy(self):
        a = as_generator(None).random(8)
        b = as_generator(None).random(8)
        assert not np.array_equal(a, b)


class TestGeneratorState:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        burn=st.integers(min_value=0, max_value=200),
    )
    def test_bit_exact_continuation_after_json_round_trip(self, seed, burn):
        gen = np.random.default_rng(seed)
        if burn:
            gen.random(burn)
        state = json.loads(json.dumps(generator_state(gen)))
        clone = restore_generator(state)
        assert np.array_equal(gen.random(32), clone.random(32))
        assert np.array_equal(
            gen.integers(0, 1 << 40, size=8), clone.integers(0, 1 << 40, size=8)
        )

    def test_all_numpy_bit_generators_round_trip(self):
        for cls in (np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937):
            gen = np.random.Generator(cls(7))
            gen.random(5)
            clone = restore_generator(json.loads(json.dumps(generator_state(gen))))
            assert np.array_equal(gen.random(16), clone.random(16)), cls.__name__

    def test_restored_stream_is_independent_of_source(self):
        gen = np.random.default_rng(3)
        state = generator_state(gen)
        expected = gen.random(10)  # advances only the source
        assert np.array_equal(restore_generator(state).random(10), expected)

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValueError):
            restore_generator({"bit_generator": "NotABitGenerator"})
        with pytest.raises(ValueError):
            restore_generator({"bit_generator": 42})


class TestRngStream:
    def test_same_name_same_stream(self):
        s = RngStream(5)
        assert np.array_equal(s.child("alpha").random(5), s.child("alpha").random(5))

    def test_different_names_differ(self):
        s = RngStream(5)
        assert not np.array_equal(s.child("alpha").random(5), s.child("beta").random(5))

    def test_order_independent(self):
        s1 = RngStream(5)
        a_first = s1.child("a").random(4)
        _ = s1.child("b").random(4)
        s2 = RngStream(5)
        _ = s2.child("b").random(4)
        a_second = s2.child("a").random(4)
        assert np.array_equal(a_first, a_second)

    def test_trials_independent_and_reproducible(self):
        s = RngStream(1)
        t0 = s.trial(0).random(6)
        t1 = s.trial(1).random(6)
        assert not np.array_equal(t0, t1)
        assert np.array_equal(t0, RngStream(1).trial(0).random(6))

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).trial(-1)

    def test_different_seeds_differ(self):
        a = RngStream(1).child("x").random(4)
        b = RngStream(2).child("x").random(4)
        assert not np.array_equal(a, b)
