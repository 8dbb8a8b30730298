"""Count-min sketch: one-sided error, bounds, register budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch.registers import RegisterFile, SramExhaustedError
from repro.switch.sketch import CountMinSketch


class TestEstimates:
    def test_exact_for_sparse_streams(self):
        cms = CountMinSketch(width=2048, depth=4)
        for i in range(20):
            cms.add(b"key-%d" % i, count=i + 1)
        for i in range(20):
            assert cms.estimate(b"key-%d" % i) == i + 1

    def test_never_underestimates(self):
        cms = CountMinSketch(width=64, depth=3)
        truth = {}
        rng = random.Random(1)
        for _ in range(2000):
            key = b"k%d" % rng.randrange(200)
            truth[key] = truth.get(key, 0) + 1
            cms.add(key)
        for key, count in truth.items():
            assert cms.estimate(key) >= count

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=20)
    def test_overestimate_within_bound(self, stream):
        cms = CountMinSketch(width=256, depth=4)
        truth = {}
        for item in stream:
            key = b"%d" % item
            cms.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert count <= cms.estimate(key) <= count + cms.error_bound()

    def test_absent_key_small_estimate(self):
        cms = CountMinSketch(width=4096, depth=4)
        for i in range(100):
            cms.add(b"present-%d" % i)
        assert cms.estimate(b"never-seen") <= cms.error_bound() + 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch().add(b"x", count=-1)


class TestResources:
    def test_uses_register_budget(self):
        registers = RegisterFile(sram_budget_bits=128 * 32 * 2)
        CountMinSketch(width=128, depth=2, registers=registers)
        with pytest.raises(SramExhaustedError):
            CountMinSketch(width=128, depth=2, name="second",
                           registers=registers)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
