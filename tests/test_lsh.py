"""Locality sensitive hashing: the bit-sampling family."""

import numpy as np
import pytest

from repro.lsh.bitsampling import BitSamplingLsh
from repro.util.bitset import bitset_from_indices


class TestBitSampling:
    def test_equal_bitmaps_always_collide(self):
        family = BitSamplingLsh(nbits=40, num_samples=6, seed=1)
        a = bitset_from_indices([1, 5, 9], 40)
        b = bitset_from_indices([1, 5, 9], 40)
        assert family.signature(a) == family.signature(b)
        assert family.bucket(a, 7) == family.bucket(b, 7)

    def test_signature_depends_on_sampled_bits_only(self):
        family = BitSamplingLsh(nbits=40, num_samples=4, seed=2)
        positions = set(int(p) for p in family.positions)
        unsampled = next(i for i in range(40) if i not in positions)
        a = bitset_from_indices([], 40)
        b = bitset_from_indices([unsampled], 40)
        assert family.signature(a) == family.signature(b)

    def test_similar_collide_more_often_than_dissimilar(self):
        rng = np.random.default_rng(3)
        similar = dissimilar = 0
        trials = 200
        for t in range(trials):
            family = BitSamplingLsh(nbits=64, num_samples=4, seed=100 + t)
            base = sorted(rng.choice(64, size=24, replace=False).tolist())
            near = sorted(set(base[:-2]) | {int(rng.integers(64))})
            far = sorted(rng.choice(64, size=24, replace=False).tolist())
            wa = bitset_from_indices(base, 64)
            wn = bitset_from_indices(near, 64)
            wf = bitset_from_indices(far, 64)
            similar += family.signature(wa) == family.signature(wn)
            dissimilar += family.signature(wa) == family.signature(wf)
        assert similar > dissimilar

    def test_collision_probability_formula(self):
        family = BitSamplingLsh(nbits=32, num_samples=3, seed=4)
        assert family.collision_probability(1.0) == 1.0
        assert family.collision_probability(0.5) == pytest.approx(0.125)
        with pytest.raises(ValueError):
            family.collision_probability(1.5)

    def test_zero_width_bitmaps_supported(self):
        family = BitSamplingLsh(nbits=0, num_samples=4, seed=5)
        empty = bitset_from_indices([], 0)
        assert family.signature(np.zeros(1, dtype=np.uint64)) == family.signature(empty) == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BitSamplingLsh(nbits=-1)
        with pytest.raises(ValueError):
            BitSamplingLsh(nbits=8, num_samples=0)
