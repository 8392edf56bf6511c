"""Locality sensitive hashing: the bit-sampling family."""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.lsh.bitsampling import BitSamplingLsh

#: sha256[:16] of ``[signature, bucket(b, 11)]`` over the draws in
#: :meth:`TestBitSampling.test_signatures_and_buckets_are_pinned`: the
#: sampled positions and the ``_MIX`` / ``_MASK`` bucket hash must not move,
#: or every build's links would.
LSH_DIGEST = "fc4e985a1c9faace"


def bits(*indices):
    return sum(1 << i for i in set(indices))


class TestBitSampling:
    def test_equal_bitmaps_always_collide(self):
        family = BitSamplingLsh(nbits=40, num_samples=6, seed=1)
        a = bits(1, 5, 9)
        b = bits(1, 5, 9)
        assert family.signature(a) == family.signature(b)
        assert family.bucket(a, 7) == family.bucket(b, 7)

    def test_signature_depends_on_sampled_bits_only(self):
        family = BitSamplingLsh(nbits=40, num_samples=4, seed=2)
        positions = set(int(p) for p in family.positions)
        unsampled = next(i for i in range(40) if i not in positions)
        assert family.signature(0) == family.signature(bits(unsampled))

    def test_similar_collide_more_often_than_dissimilar(self):
        rng = np.random.default_rng(3)
        similar = dissimilar = 0
        trials = 200
        for t in range(trials):
            family = BitSamplingLsh(nbits=64, num_samples=4, seed=100 + t)
            base = rng.choice(64, size=24, replace=False).tolist()
            near = set(base[:-2]) | {int(rng.integers(64))}
            far = rng.choice(64, size=24, replace=False).tolist()
            wa, wn, wf = bits(*base), bits(*near), bits(*far)
            similar += family.signature(wa) == family.signature(wn)
            dissimilar += family.signature(wa) == family.signature(wf)
        assert similar > dissimilar

    def test_zero_width_bitmaps_supported(self):
        family = BitSamplingLsh(nbits=0, num_samples=4, seed=5)
        assert family.signature(0) == 0
        assert family.bucket(0, 3) == 0

    def test_signatures_and_buckets_are_pinned(self):
        rng = random.Random(30)
        out = []
        for seed in range(20):
            nbits = 1 + 7 * seed
            family = BitSamplingLsh(nbits, num_samples=6, seed=seed)
            for _ in range(10):
                b = rng.getrandbits(nbits)
                out.append([family.signature(b), family.bucket(b, 11)])
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
        assert digest == LSH_DIGEST

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BitSamplingLsh(nbits=-1)
        with pytest.raises(ValueError):
            BitSamplingLsh(nbits=8, num_samples=0)
        with pytest.raises(ValueError):
            BitSamplingLsh(nbits=8).bucket(0, 0)
