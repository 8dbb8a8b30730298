"""Scenario presets and the best-practice interpolation."""

import dataclasses

import pytest

from repro.model.params import (
    D_EA_RANGE,
    D_WA_RANGE,
    INSA_ANALYTICS_MS,
    ScenarioParams,
    interpolated_scenario,
    median_scenario,
    percentile_scenario,
    us_scenario,
    worldwide_scenario,
)


class TestScenarioParams:
    def test_t_edge_snatch_defaults_to_t_edge(self):
        p = median_scenario()
        assert p.t_edge_snatch == p.t_edge

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ScenarioParams(
                d_ci=-1, d_ce=1, d_ew=1, d_wa=1, d_ea=1, d_ia=1,
                t_trans=1, t_edge=1, t_web=1, t_analytics=1,
            )

    @pytest.mark.parametrize("name", (
        "d_ci", "d_ce", "d_ew", "d_wa", "d_ea", "d_ia",
        "t_trans", "t_edge", "t_web", "t_analytics",
    ))
    def test_every_delay_and_cost_validated(self, name):
        fields = dict.fromkeys(
            ("d_ci", "d_ce", "d_ew", "d_wa", "d_ea", "d_ia",
             "t_trans", "t_edge", "t_web", "t_analytics"), 1.0,
        )
        fields[name] = -0.5
        with pytest.raises(ValueError, match=name):
            ScenarioParams(**fields)

    def test_zero_delays_accepted(self):
        p = ScenarioParams(
            d_ci=0, d_ce=0, d_ew=0, d_wa=0, d_ea=0, d_ia=0,
            t_trans=0, t_edge=0, t_web=0, t_analytics=0,
        )
        assert p.t_edge_snatch == 0

    def test_explicit_t_edge_snatch_kept(self):
        p = dataclasses.replace(median_scenario(), t_edge_snatch=12.5)
        assert p.t_edge_snatch == 12.5
        assert p.t_edge == median_scenario().t_edge

    def test_replace_revalidates(self):
        """``dataclasses.replace`` is how callers vary one parameter;
        it runs the same validation as the constructor."""
        p = dataclasses.replace(median_scenario(), t_analytics=42.0)
        assert p.t_analytics == 42.0 and p.d_ci == 1.4
        with pytest.raises(ValueError, match="t_analytics"):
            dataclasses.replace(median_scenario(), t_analytics=-1.0)

    def test_insa_cost_below_1ms(self):
        assert INSA_ANALYTICS_MS <= 1.0


class TestMedianScenario:
    def test_matches_section_5_1(self):
        p = median_scenario()
        assert p.d_ci == 1.4
        assert p.d_ce == 6.7
        assert p.d_ew == 43.6
        assert p.d_wa == 75.5
        assert p.t_edge == 136.6
        assert p.t_web == 241.6
        assert p.t_analytics == 500.0

    def test_d_ia_is_client_web_minus_isp(self):
        assert median_scenario().d_ia == pytest.approx(60.1 - 1.4)


class TestInterpolation:
    def test_range_endpoints(self):
        lo = interpolated_scenario(D_WA_RANGE[0])
        hi = interpolated_scenario(D_WA_RANGE[1])
        assert lo.d_ea == pytest.approx(D_EA_RANGE[0])
        assert hi.d_ea == pytest.approx(D_EA_RANGE[1])

    def test_monotone_in_d_wa(self):
        previous = -1.0
        for d_wa in (0.8, 26.3, 75.5, 150.0, 206.0):
            p = interpolated_scenario(d_wa)
            assert p.d_ea > previous
            previous = p.d_ea

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            interpolated_scenario(0.1)
        with pytest.raises(ValueError):
            interpolated_scenario(300.0)

    def test_us_vs_worldwide(self):
        assert us_scenario().d_wa == 26.3
        assert worldwide_scenario().d_wa == 75.5
        assert us_scenario().d_ea < worldwide_scenario().d_ea


class TestPercentileScenario:
    def test_median_percentile_matches_measured(self):
        p = percentile_scenario(50)
        assert p.d_ci == pytest.approx(1.4)
        assert p.d_ce == pytest.approx(6.7)
        assert p.d_ea == pytest.approx(43.6)  # measured edge-cloud curve
        assert p.d_ia == pytest.approx(58.7)

    def test_monotone_in_percentile(self):
        low = percentile_scenario(10)
        high = percentile_scenario(90)
        for attr in ("d_ci", "d_ce", "d_ew", "d_wa", "d_ea", "d_ia"):
            assert getattr(low, attr) <= getattr(high, attr), attr

    def test_custom_analytics_time(self):
        assert percentile_scenario(50, t_analytics=9).t_analytics == 9
