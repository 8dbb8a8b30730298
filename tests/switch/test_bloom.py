"""Bloom filter: no false negatives, plausible false-positive rate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch import bloom as bloom_module
from repro.switch.bloom import (
    BloomFilter,
    bloom_parameters,
    optimal_num_hashes,
)
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


class TestFalsePositiveRate:
    def test_analytic_estimate_monotone(self):
        bloom = BloomFilter(1024, 3)
        assert bloom.false_positive_rate(10) < bloom.false_positive_rate(500)

    def test_empirical_rate_near_estimate(self):
        bloom = BloomFilter(4096, 3)
        n = 500
        for i in range(n):
            bloom.add(b"in-%d" % i)
        false_hits = sum(
            bloom.contains(b"out-%d" % i) for i in range(2000)
        )
        empirical = false_hits / 2000
        analytic = bloom.false_positive_rate()
        assert empirical <= max(0.02, 3 * analytic)

    def test_zero_when_empty(self):
        assert BloomFilter(1024, 3).false_positive_rate() == 0.0


class TestOptimalHashes:
    def test_classic_formula(self):
        # m/n = 10 -> k ~ 7
        assert optimal_num_hashes(10_000, 1_000) == 7

    def test_clamped_to_switch_budget(self):
        assert optimal_num_hashes(10_000, 10) == 8
        assert optimal_num_hashes(10, 10_000) == 1

    def test_degenerate_population(self):
        assert optimal_num_hashes(1024, 0) == 1

    def test_overloaded_boundary_pins_k_at_one(self):
        """The regression: once expected_items exceeds roughly
        ``2 * bits / ln 2`` the unclamped ``round()`` would return 0 —
        a zero-hash filter that matches everything."""
        bits = 1024
        for items in (2 * bits, 3 * bits, 100 * bits):
            assert optimal_num_hashes(bits, items) == 1

    @given(st.integers(min_value=1, max_value=1 << 20),
           st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=50)
    def test_always_in_switch_budget(self, bits, items):
        assert 1 <= optimal_num_hashes(bits, items) <= 8


class TestBloomParameters:
    def test_classic_sizing(self):
        # n=1000 at 1% -> m ~ 9.6 bits/item, k ~ 7.
        bits, k = bloom_parameters(1000, 0.01)
        assert 9 * 1000 <= bits <= 10 * 1000
        assert k == 7

    def test_loose_target_never_degenerates(self):
        bits, k = bloom_parameters(1, target_fp_rate=0.99)
        assert bits >= 1
        assert k >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bloom_parameters(0)
        with pytest.raises(ValueError):
            bloom_parameters(100, 0.0)
        with pytest.raises(ValueError):
            bloom_parameters(100, 1.0)

    def test_for_expected_items_builds_working_filter(self):
        bloom = BloomFilter.for_expected_items(500, target_fp_rate=0.01)
        expected_bits, expected_k = bloom_parameters(500, 0.01)
        assert bloom.size_bits == expected_bits
        assert bloom.num_hashes == expected_k
        for i in range(500):
            bloom.add(b"user-%d" % i)
        assert all(bloom.contains(b"user-%d" % i) for i in range(500))

    def test_single_hash_filter_still_works(self):
        """A k=1 filter (the clamped overload case) must keep the
        no-false-negative guarantee."""
        bloom = BloomFilter(64, optimal_num_hashes(64, 1000))
        assert bloom.num_hashes == 1
        for i in range(100):
            bloom.add(b"k%d" % i)
        assert all(bloom.contains(b"k%d" % i) for i in range(100))
