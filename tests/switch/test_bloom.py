"""Bloom filter: no false negatives, plausible false-positive rate."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch import bloom as bloom_module
from repro.switch.bloom import BloomFilter
from repro.switch.columns import VECTOR_MIN_ROWS, force_numpy


class TestBasics:
    def test_add_then_contains(self):
        bloom = BloomFilter(1024, 3)
        assert not bloom.add(b"user-1")
        assert bloom.contains(b"user-1")

    def test_duplicate_detected(self):
        bloom = BloomFilter(1024, 3)
        bloom.add(b"user-1")
        assert bloom.add(b"user-1")  # already present
        assert bloom.items_added == 1

    def test_absent_key(self):
        bloom = BloomFilter(4096, 3)
        bloom.add(b"present")
        assert not bloom.contains(b"absent")

    def test_reset(self):
        bloom = BloomFilter(1024, 3)
        bloom.add(b"x")
        bloom.reset()
        assert not bloom.contains(b"x")
        assert bloom.items_added == 0

    def test_reset_filter_counts_afresh(self):
        bloom = BloomFilter(1024, 3)
        bloom.add(b"x")
        bloom.reset()
        assert not bloom.add(b"x")
        assert bloom.items_added == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(100, 0)
        with pytest.raises(ValueError):
            BloomFilter(100, 9)


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    force_numpy(request.param)
    try:
        yield request.param
    finally:
        force_numpy(None)


class TestAddMany:
    """``add_many`` == ``add`` called key by key, in both kernel forms."""

    @pytest.mark.parametrize("num_hashes", (1, 2, 3, 4))
    def test_matches_sequential_add(self, kernel_form, num_hashes):
        rng = random.Random(num_hashes)
        keys = [
            bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 24)))
            for _ in range(60)
        ]
        keys += keys[:15]  # duplicates within the batch
        assert len(keys) >= VECTOR_MIN_ROWS
        # Small enough that some fresh keys find their bits already set.
        seq = BloomFilter(size_bits=512, num_hashes=num_hashes, name="seq")
        vec = BloomFilter(size_bits=512, num_hashes=num_hashes, name="vec")
        expected = [seq.add(key) for key in keys]
        assert vec.add_many(keys) == expected
        assert vec.items_added == seq.items_added
        probes = [bytes([i, i ^ 0x5A]) for i in range(64)]
        assert [vec.contains(p) for p in probes] == [
            seq.contains(p) for p in probes
        ]

    def test_empty_batch(self, kernel_form):
        bloom = BloomFilter(size_bits=512, num_hashes=3)
        assert bloom.add_many([]) == []
        assert bloom.items_added == 0

    def test_one_crc_pass_per_batch(self, kernel_form, monkeypatch):
        calls = []
        crc32_many = bloom_module.crc32_many

        def counted(rows):
            calls.append(len(rows))
            return crc32_many(rows)

        monkeypatch.setattr(bloom_module, "crc32_many", counted)
        keys = [b"key-%d" % i for i in range(40)]
        BloomFilter(size_bits=4096, num_hashes=4).add_many(keys)
        assert calls == [len(keys)]


class TestNoFalseNegatives:
    @given(st.lists(st.binary(min_size=1, max_size=20), max_size=100))
    @settings(max_examples=25)
    def test_every_inserted_key_is_found(self, keys):
        bloom = BloomFilter(8192, 4)
        for key in keys:
            bloom.add(key)
        assert all(bloom.contains(key) for key in keys)

    def test_single_hash_filter_still_works(self):
        """A k=1 filter keeps the no-false-negative guarantee."""
        bloom = BloomFilter(64, 1)
        for i in range(100):
            bloom.add(b"k%d" % i)
        assert all(bloom.contains(b"k%d" % i) for i in range(100))


    def test_full_hash_budget(self):
        """k = 8, the most hash units a switch stage gives the filter."""
        bloom = BloomFilter(8192, 8)
        keys = [b"u%d" % i for i in range(150)]
        assert not any(bloom.add_many(keys))
        assert all(bloom.contains(key) for key in keys)
        assert bloom.items_added == len(keys)


class TestFalsePositiveRate:
    def test_empirical_rate_near_estimate(self):
        bloom = BloomFilter(4096, 3)
        n = 500
        for i in range(n):
            bloom.add(b"in-%d" % i)
        false_hits = sum(
            bloom.contains(b"out-%d" % i) for i in range(2000)
        )
        empirical = false_hits / 2000
        analytic = (1.0 - math.exp(-3 * n / 4096)) ** 3
        assert empirical <= max(0.02, 3 * analytic)
