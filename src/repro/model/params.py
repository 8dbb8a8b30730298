"""Scenario parameters for the analytic speedup model.

One :class:`ScenarioParams` bundles every quantity in the paper's
speedup equations (section 3.3): the component delays, processing
costs, and Snatch-side costs.  Presets reproduce the configurations
the paper evaluates:

* :func:`median_scenario` — section 5.1's medians (Figures 5(c), 5(d));
* :func:`interpolated_scenario` — the best-practice interpolation of
  Appendix D.2, parameterized by the web->analytics delay ``d_WA``
  (Figure 5(b));
* :func:`us_scenario` / :func:`worldwide_scenario` — the two marked
  operating points (``d_WA`` = 26.3 / 75.5 ms);
* :func:`percentile_scenario` — delays at the Nth percentile of the
  measured distributions (Figure 6(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.measurement.delays import (
    MEDIANS,
    client_to_edge,
    client_to_isp,
    client_to_web_server,
    edge_to_cloud,
    inter_dc,
)

__all__ = [
    "ScenarioParams",
    "median_scenario",
    "interpolated_scenario",
    "us_scenario",
    "worldwide_scenario",
    "percentile_scenario",
    "INSA_ANALYTICS_MS",
    "D_WA_RANGE",
    "D_CA_RANGE",
    "D_EA_RANGE",
]

# Line-rate in-network analytics cost: "<1 ms" (section 3.1).
INSA_ANALYTICS_MS = 1.0

# Best-practice interpolation ranges (Appendix D.2): as d_WA sweeps its
# measured range, d_CA and d_EA grow proportionally within theirs.
# d_IA (ISP -> analytics) tracks the d_EA range: the ISP switch sits a
# hop behind the edge from the analytics server's viewpoint.
D_WA_RANGE = (0.8, 206.0)
D_CA_RANGE = (13.1, 150.3)
D_EA_RANGE = (0.2, 249.5)


@dataclass(frozen=True)
class ScenarioParams:
    """All delays (one-way, ms) and processing costs (ms) of a scenario."""

    d_ci: float   # client -> ISP switch (LarkSwitch)
    d_ce: float   # client -> edge server
    d_ew: float   # edge -> web server
    d_wa: float   # web -> analytics server
    d_ea: float   # edge -> analytics server
    d_ia: float   # ISP switch -> analytics server
    t_trans: float  # request transmission duration
    t_edge: float   # edge-server processing
    t_web: float    # web-server processing (incl. database)
    t_analytics: float  # analytics-server processing (incl. queues)
    t_edge_snatch: float = -1.0   # T'_E; defaults to t_edge
    t_analytics_insa: float = INSA_ANALYTICS_MS  # T'_A with INSA

    def __post_init__(self):
        if self.t_edge_snatch < 0:
            object.__setattr__(self, "t_edge_snatch", self.t_edge)
        for name in ("d_ci", "d_ce", "d_ew", "d_wa", "d_ea", "d_ia",
                     "t_trans", "t_edge", "t_web", "t_analytics"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)



def _lerp(frac: float, lo: float, hi: float) -> float:
    return lo + frac * (hi - lo)


def median_scenario(t_analytics: float = MEDIANS["T_A"]) -> ScenarioParams:
    """Section 5.1 medians.  ``d_EA`` is the measured edge->cloud
    median and ``d_IA = d_CW - d_CI`` (the client-to-web path beyond
    the ISP hop)."""
    return ScenarioParams(
        d_ci=MEDIANS["d_CI"],
        d_ce=MEDIANS["d_CE"],
        d_ew=MEDIANS["d_EW"],
        d_wa=MEDIANS["d_WA"],
        d_ea=MEDIANS["d_EW"],
        d_ia=MEDIANS["d_CW"] - MEDIANS["d_CI"],
        t_trans=MEDIANS["T_trans"],
        t_edge=MEDIANS["T_E"],
        t_web=MEDIANS["T_W"],
        t_analytics=t_analytics,
    )


def interpolated_scenario(
    d_wa: float, t_analytics: float = MEDIANS["T_A"]
) -> ScenarioParams:
    """Best-practice interpolation (Appendix D.2): ``d_CA``/``d_EA``/
    ``d_IA`` grow proportionally with ``d_WA`` within their ranges."""
    lo, hi = D_WA_RANGE
    if not lo <= d_wa <= hi:
        raise ValueError(
            "d_WA=%.1f outside the measured range [%.1f, %.1f]"
            % (d_wa, lo, hi)
        )
    frac = (d_wa - lo) / (hi - lo)
    d_ea = _lerp(frac, *D_EA_RANGE)
    return ScenarioParams(
        d_ci=MEDIANS["d_CI"],
        d_ce=MEDIANS["d_CE"],
        d_ew=MEDIANS["d_EW"],
        d_wa=d_wa,
        d_ea=d_ea,
        d_ia=d_ea,
        t_trans=MEDIANS["T_trans"],
        t_edge=MEDIANS["T_E"],
        t_web=MEDIANS["T_W"],
        t_analytics=t_analytics,
    )


def us_scenario(t_analytics: float = MEDIANS["T_A"]) -> ScenarioParams:
    """Users in the US: median inter-DC delay 26.3 ms."""
    return interpolated_scenario(MEDIANS["d_WA_US"], t_analytics)


def worldwide_scenario(t_analytics: float = MEDIANS["T_A"]) -> ScenarioParams:
    """Users worldwide: median inter-DC delay 75.5 ms."""
    return interpolated_scenario(MEDIANS["d_WA"], t_analytics)


def percentile_scenario(
    percentile: float, t_analytics: float = MEDIANS["T_A"]
) -> ScenarioParams:
    """Delays at the Nth percentile of the measured distributions
    (Figure 6(a)'s x-axis).  Per Appendix D.2, ``d_EA`` is represented
    by the measured "Edge-Cloud" curve, and ``d_IA`` by the
    client-to-web path beyond the ISP hop."""
    d_ci = client_to_isp().percentile(percentile)
    return ScenarioParams(
        d_ci=d_ci,
        d_ce=client_to_edge().percentile(percentile),
        d_ew=edge_to_cloud().percentile(percentile),
        d_wa=inter_dc().percentile(percentile),
        d_ea=edge_to_cloud().percentile(percentile),
        d_ia=max(0.0, client_to_web_server().percentile(percentile) - d_ci),
        t_trans=MEDIANS["T_trans"],
        t_edge=MEDIANS["T_E"],
        t_web=MEDIANS["T_W"],
        t_analytics=t_analytics,
    )
