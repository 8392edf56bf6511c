"""Friendship bitmaps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.bitmaps import decode, encode


class TestBitmapCodec:
    def test_encode_marks_only_neighborhood(self):
        bitmap = encode([3, 7, 9], [7, 100, 3])
        assert bitmap == 0b011
        assert set(decode([3, 7, 9], bitmap).tolist()) == {3, 7}

    def test_empty_neighborhood(self):
        bitmap = encode([], [1, 2])
        assert bitmap == 0
        assert list(decode([], bitmap)) == []

    @given(st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_roundtrip(self, neighborhood):
        neigh = sorted(neighborhood)
        subset = neigh[:: 2]
        bitmap = encode(neigh, subset)
        assert list(decode(neigh, bitmap)) == subset
