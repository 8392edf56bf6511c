"""Friendship bitmaps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.bitmaps import BitmapCodec
from repro.util.bitset import popcount


class TestBitmapCodec:
    def test_encode_marks_only_neighborhood(self):
        codec = BitmapCodec([3, 7, 9])
        bitmap = codec.encode([7, 100, 3])
        assert popcount(bitmap) == 2
        assert set(codec.decode(bitmap).tolist()) == {3, 7}

    def test_empty_neighborhood(self):
        codec = BitmapCodec([])
        bitmap = codec.encode([1, 2])
        assert popcount(bitmap) == 0
        assert codec.coverage(bitmap) == 0.0

    def test_coverage(self):
        codec = BitmapCodec([1, 2, 3, 4])
        assert codec.coverage(codec.encode([1, 2])) == pytest.approx(0.5)

    @given(st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_roundtrip(self, neighborhood):
        neigh = sorted(neighborhood)
        codec = BitmapCodec(neigh)
        subset = neigh[:: 2]
        bitmap = codec.encode(subset)
        assert list(codec.decode(bitmap)) == subset
