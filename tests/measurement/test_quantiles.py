"""Quantile curves: interpolation, validation, inverse-CDF lookup."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.measurement.quantiles import QuantileCurve


def _curve():
    return QuantileCurve([(0, 1.0), (50, 10.0), (100, 100.0)], name="x")


class TestInterpolation:
    def test_anchor_values(self):
        curve = _curve()
        assert curve.percentile(0) == 1.0
        assert curve.percentile(50) == 10.0
        assert curve.percentile(100) == 100.0
        assert curve.median == 10.0

    def test_linear_between_anchors(self):
        curve = _curve()
        assert curve.percentile(25) == pytest.approx(5.5)
        assert curve.percentile(75) == pytest.approx(55.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            _curve().percentile(101)
        with pytest.raises(ValueError):
            _curve().percentile(-1)

    @given(st.floats(min_value=0, max_value=100))
    def test_monotone(self, p):
        curve = _curve()
        assert curve.percentile(p) <= curve.percentile(min(100.0, p + 5))

    @given(st.floats(min_value=0, max_value=100))
    def test_values_stay_within_the_end_anchors(self, p):
        assert 1.0 <= _curve().percentile(p) <= 100.0


class TestValidation:
    def test_must_span_0_to_100(self):
        with pytest.raises(ValueError, match="span"):
            QuantileCurve([(10, 1), (100, 2)])

    def test_values_must_be_non_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            QuantileCurve([(0, 5), (50, 3), (100, 10)])

    def test_duplicate_percentiles_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuantileCurve([(0, 1), (0, 2), (100, 3)])

    def test_needs_two_anchors(self):
        with pytest.raises(ValueError):
            QuantileCurve([(0, 1)])


class TestSampling:
    def test_sample_at(self):
        curve = _curve()
        assert curve.sample_at(0.5) == 10.0
        with pytest.raises(ValueError):
            curve.sample_at(1.5)

    @given(st.floats(min_value=0, max_value=1))
    def test_sample_at_is_the_percentile(self, u):
        curve = _curve()
        assert curve.sample_at(u) == curve.percentile(u * 100.0)
