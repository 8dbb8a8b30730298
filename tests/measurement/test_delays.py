"""Delay curves are anchored at the paper's reported medians."""

import pytest

from repro.measurement.delays import (
    MEDIANS,
    client_to_closest_cloud,
    client_to_edge,
    client_to_isp,
    client_to_web_server,
    edge_to_cloud,
    inter_dc,
)


class TestPaperAnchors:
    @pytest.mark.parametrize(
        "curve_fn,median_key",
        [
            (client_to_isp, "d_CI"),
            (client_to_edge, "d_CE"),
            (client_to_closest_cloud, "d_CC"),
            (client_to_web_server, "d_CW"),
            (edge_to_cloud, "d_EW"),
            (inter_dc, "d_WA"),
        ],
    )
    def test_median_matches_paper(self, curve_fn, median_key):
        assert curve_fn().median == pytest.approx(MEDIANS[median_key])

    def test_ordering_client_side(self):
        """client->ISP < client->edge < client->closest cloud,
        the layering of Figure 5(a)."""
        assert client_to_isp().median < client_to_edge().median
        assert client_to_edge().median < client_to_closest_cloud().median
        assert client_to_closest_cloud().median < client_to_web_server().median

    def test_inter_dc_range(self):
        curve = inter_dc()
        assert curve.percentile(0) == pytest.approx(4.7)
        assert curve.percentile(100) == pytest.approx(206.0)

    def test_tail_inflation_for_testbed_p100(self):
        """The 100th percentile must 'drastically increase' d_CE
        (Figure 6(a)'s worst case)."""
        curve = client_to_edge()
        assert curve.percentile(100) > 20 * curve.median

    def test_every_curve_starts_non_negative(self):
        for make in (client_to_isp, client_to_edge, client_to_closest_cloud,
                     client_to_web_server, edge_to_cloud, inter_dc):
            assert make().percentile(0) >= 0

    def test_medians_table_complete(self):
        for key in ("d_CI", "d_CE", "d_EW", "d_WA", "T_trans", "T_E",
                    "T_W", "T_A"):
            assert key in MEDIANS
