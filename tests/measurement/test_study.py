"""The measurement campaign: per-site records and paper-level medians."""

import pytest

from repro.measurement.sites import generate_sites
from repro.measurement.study import (
    ITERATIONS_PER_SITE,
    MeasurementStudy,
    StudyResult,
)


def _result(n=500, seed=7):
    return MeasurementStudy(seed=seed).run(max_sites=n)


class TestCampaign:
    def test_discards_non_residential(self):
        census = generate_sites(non_residential_rate=0.3, seed=2)
        result = MeasurementStudy(census).run(max_sites=300)
        assert result.discarded_sites > 0
        assert len(result.measurements) + result.discarded_sites == 300

    def test_medians_near_paper(self):
        summary = _result().summary()
        paper = {
            "d_ci": 1.4, "d_ce": 6.7, "d_cc": 13.1, "d_cw": 60.1,
            "d_ew": 43.6, "t_edge": 136.6, "t_web": 241.6,
        }
        for key, expected in paper.items():
            assert summary[key] == pytest.approx(expected, rel=0.35), key

    def test_per_provider_delays_present(self):
        result = _result(100)
        for record in result.measurements:
            assert record.d_ce == min(record.d_ce_per_provider.values())

    def test_iterations_constant_matches_paper(self):
        assert ITERATIONS_PER_SITE == 10


class TestStudyResult:
    def test_percentile_accessor(self):
        result = _result(300)
        assert result.percentile("d_ce", 0) <= result.percentile("d_ce", 50)
        assert result.percentile("d_ce", 50) <= result.percentile("d_ce", 100)

    def test_median_equals_percentile_50(self):
        result = _result(301)
        assert result.median("d_ci") == pytest.approx(
            result.percentile("d_ci", 50), rel=0.05
        )

    def test_empty_result_raises(self):
        empty = StudyResult(measurements=[], discarded_sites=0)
        with pytest.raises(ValueError):
            empty.percentile("d_ci", 50)

    def test_deterministic(self):
        a = MeasurementStudy(seed=9).run(max_sites=50).summary()
        b = MeasurementStudy(seed=9).run(max_sites=50).summary()
        assert a == b
