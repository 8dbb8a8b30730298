"""Calibrated delay distributions from the paper's measurement study.

The paper measures 2,253 residential dVPN sites over 14 days and
reports (section 5.1, Figure 5(a), Appendix D):

* client -> ISP first hop:        median  1.4 ms
* client -> best edge server:     median  6.7 ms
* client -> closest cloud region: median 13.1 ms
* client -> farthest cloud region: median 150.3 ms
* client -> the hosted EC2 web server: median 60.1 ms
* edge  -> cloud (web server):    median 43.6 ms
* intra-DC delays 0.8-4.4 ms; inter-DC 4.7-206 ms, median 75.5 ms

Each distribution is a :class:`~repro.measurement.quantiles.QuantileCurve`
anchored at those reported values, with tails shaped so the testbed
percentile sweep of Figure 6(a) reproduces the paper's behaviour
(the 100th percentile makes `d_CE` "drastically increase", pushing the
no-Snatch total to ~2.8 s).
"""

from __future__ import annotations

from typing import Dict

from repro.measurement.quantiles import QuantileCurve

__all__ = [
    "client_to_isp",
    "client_to_edge",
    "client_to_closest_cloud",
    "client_to_web_server",
    "edge_to_cloud",
    "inter_dc",
    "MEDIANS",
]

# Medians reported in section 5.1 (ms), used throughout the repo.
MEDIANS: Dict[str, float] = {
    "d_CI": 1.4,     # client -> ISP
    "d_CE": 6.7,     # client -> edge server
    "d_CC": 13.1,    # client -> closest cloud region
    "d_CW": 60.1,    # client -> hosted web server
    "d_EW": 43.6,    # edge -> web server (cloud)
    "d_WA": 75.5,    # inter-data-center (web -> analytics), worldwide
    "d_WA_US": 26.3,  # inter-data-center, US only
    "T_trans": 0.8,  # request transmission duration
    "T_E": 136.6,    # edge-server processing (measured GET handling)
    "T_W": 241.6,    # web-server processing (measured POST handling)
    "T_A": 500.0,    # analytics (Spark default 1 s interval / 2)
}


def client_to_isp() -> QuantileCurve:
    """Delay from client to the ISP first hop (LarkSwitch location)."""
    return QuantileCurve(
        [(0, 0.2), (25, 0.8), (50, 1.4), (75, 2.6), (90, 5.0),
         (95, 8.0), (99, 15.0), (100, 30.0)],
        name="client-isp",
    )


def client_to_edge() -> QuantileCurve:
    """Delay from client to its best edge server (min over off-net,
    CloudFront, Cloudflare)."""
    return QuantileCurve(
        [(0, 0.5), (25, 3.0), (50, 6.7), (75, 14.0), (90, 35.0),
         (95, 60.0), (99, 150.0), (100, 400.0)],
        name="client-edge",
    )


def client_to_closest_cloud() -> QuantileCurve:
    """Delay from client to the nearest cloud region."""
    return QuantileCurve(
        [(0, 1.5), (25, 6.0), (50, 13.1), (75, 30.0), (90, 60.0),
         (95, 90.0), (99, 180.0), (100, 420.0)],
        name="client-cloud-closest",
    )


def client_to_web_server() -> QuantileCurve:
    """Delay from client to the paper's hosted EC2 web server."""
    return QuantileCurve(
        [(0, 4.0), (25, 30.0), (50, 60.1), (75, 95.0), (90, 140.0),
         (95, 180.0), (99, 320.0), (100, 700.0)],
        name="client-web",
    )


def edge_to_cloud() -> QuantileCurve:
    """Delay from the edge server to the cloud (web server); also used
    as the edge -> analytics-server curve under the best-practice
    assumption (Appendix D.2)."""
    return QuantileCurve(
        [(0, 0.2), (25, 20.0), (50, 43.6), (75, 70.0), (90, 110.0),
         (95, 150.0), (99, 200.0), (100, 380.0)],
        name="edge-cloud",
    )


def inter_dc() -> QuantileCurve:
    """Inter-data-center delays (web server -> analytics server)."""
    return QuantileCurve(
        [(0, 4.7), (25, 40.0), (50, 75.5), (75, 120.0), (90, 160.0),
         (95, 180.0), (99, 200.0), (100, 206.0)],
        name="inter-dc",
    )

