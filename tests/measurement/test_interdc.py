"""Inter-DC matrix: paper anchors, symmetry, US subset."""

import pytest

from repro.measurement.interdc import (
    AWS_REGIONS,
    US_REGIONS,
    haversine_km,
    matrix_stats,
    region_delay_ms,
)


class TestHaversine:
    def test_zero_distance(self):
        point = (40.0, -75.0)
        assert haversine_km(point, point) == 0.0

    def test_known_distance(self):
        # London <-> New York is ~5,570 km.
        dist = haversine_km((51.5, -0.1), (40.7, -74.0))
        assert 5400 < dist < 5750

    def test_symmetry(self):
        a, b = (10.0, 20.0), (-30.0, 140.0)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


class TestDelayMatrix:
    def test_paper_anchors(self):
        stats = matrix_stats()
        assert stats["min"] == pytest.approx(4.7)
        assert stats["max"] == pytest.approx(206.0)
        assert stats["median"] == pytest.approx(75.5, abs=2.0)

    def test_us_median_near_paper(self):
        # Paper: US inter-DC median 26.3 ms.
        stats = matrix_stats(US_REGIONS)
        assert 20.0 < stats["median"] < 35.0

    def test_intra_dc(self):
        assert region_delay_ms("us-east-1", "us-east-1") == pytest.approx(0.8)

    def test_symmetry(self):
        assert region_delay_ms("eu-west-1", "ap-south-1") == region_delay_ms(
            "ap-south-1", "eu-west-1"
        )

    def test_unknown_region(self):
        with pytest.raises(KeyError):
            region_delay_ms("us-east-1", "moon-base-1")

    def test_intra_dc_delay(self):
        for region in ("us-east-1", "eu-west-1"):
            assert region_delay_ms(region, region) == pytest.approx(0.8)

    def test_all_pairs_within_calibrated_range(self):
        names = tuple(sorted(AWS_REGIONS))
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert 4.7 <= region_delay_ms(a, b) <= 206.0

    def test_monotone_in_distance(self):
        """Closer region pairs never have larger delays."""
        close = region_delay_ms("eu-west-2", "eu-west-3")  # London-Paris
        far = region_delay_ms("eu-west-2", "ap-southeast-2")
        assert close < far

    def test_stats_needs_regions(self):
        with pytest.raises(ValueError):
            matrix_stats(("us-east-1",))
