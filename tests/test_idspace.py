"""Ring identifier space: distance, midpoints, hashing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.hashing import stable_digest, uniform_hash, uniform_hashes
from repro.idspace.space import normalize, ring_distance, ring_midpoint, signed_ring_delta

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestRingDistance:
    def test_wraparound_is_short(self):
        assert ring_distance(0.95, 0.05) == pytest.approx(0.1)

    def test_antipodal_max(self):
        assert ring_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_identity(self):
        assert ring_distance(0.3, 0.3) == 0.0

    @given(unit, unit)
    @settings(max_examples=80)
    def test_symmetric_and_bounded(self, a, b):
        d = ring_distance(a, b)
        assert d == pytest.approx(ring_distance(b, a))
        assert 0.0 <= d <= 0.5

    @given(unit, unit, unit)
    @settings(max_examples=80)
    def test_triangle_inequality(self, a, b, c):
        assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c) + 1e-12

    def test_vectorized_matches_scalar(self):
        ids = np.array([0.1, 0.5, 0.95])
        out = ring_distance(ids, 0.0)
        expected = [ring_distance(float(x), 0.0) for x in ids]
        assert np.allclose(out, expected)


class TestSignedDelta:
    @given(unit, unit)
    @settings(max_examples=80)
    def test_moves_a_to_b(self, a, b):
        delta = signed_ring_delta(a, b)
        assert float(normalize(a + delta)) == pytest.approx(b, abs=1e-9)

    @given(unit, unit)
    @settings(max_examples=80)
    def test_magnitude_is_ring_distance(self, a, b):
        assert abs(signed_ring_delta(a, b)) == pytest.approx(ring_distance(a, b))


class TestMidpoint:
    def test_simple(self):
        assert ring_midpoint(0.2, 0.4) == pytest.approx(0.3)

    def test_wraparound(self):
        assert ring_midpoint(0.9, 0.1) == pytest.approx(0.0, abs=1e-9)

    @given(unit, unit)
    @settings(max_examples=80)
    def test_equidistant(self, a, b):
        m = float(ring_midpoint(a, b))
        assert ring_distance(m, a) == pytest.approx(ring_distance(m, b), abs=1e-9)

    @given(unit, unit)
    @settings(max_examples=80)
    def test_on_shorter_arc(self, a, b):
        m = float(ring_midpoint(a, b))
        assert ring_distance(m, a) <= 0.25 + 1e-9


class TestHashing:
    def test_deterministic(self):
        assert uniform_hash(12345) == uniform_hash(12345)
        assert uniform_hash("abc") == uniform_hash("abc")

    def test_salt_changes_value(self):
        assert uniform_hash(1, salt=0) != uniform_hash(1, salt=1)

    def test_range(self):
        values = uniform_hashes(range(500))
        assert values.min() >= 0.0 and values.max() < 1.0

    def test_roughly_uniform(self):
        values = uniform_hashes(range(2000))
        hist, _ = np.histogram(values, bins=4, range=(0, 1))
        assert hist.min() > 350  # each quartile near 500

    def test_bytes_and_str_and_int_keys(self):
        assert isinstance(uniform_hash(b"key"), float)
        assert isinstance(uniform_hash("key"), float)
        assert isinstance(uniform_hash(-5), float)

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_digest(3.14)  # type: ignore[arg-type]
