"""Figure 1: time-cost breakdown of the ad-campaign example.

A New York user clicks an ad; the edge server is in New York, the web
server in AWS ``us-east-1``, and the analytics server in California.
The paper reports (section 2.3 / 3.1):

* QUIC handshakes: 97.8 ms total
* edge + web processing: 378.2 ms (= 136.6 + 241.6)
* web -> analytics delay: 32.3 ms
* analytics: 500 ms
* total without Snatch: 1008.3 ms; data reaches analytics at 508.3 ms
* with application-layer semantic cookies + INSA: 228.6 ms (~80 % cut)
* with transport-layer cookies + INSA: ~48 ms (~95 % cut)

The per-link delays below are solved from those totals:
``3(d_CE + d_EW) = 97.8`` with the measured median ``d_CE = 6.7``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.model.params import INSA_ANALYTICS_MS, ScenarioParams

__all__ = [
    "BreakdownStep",
    "Breakdown",
    "figure1_scenario",
    "baseline_breakdown",
    "app_insa_breakdown",
    "trans_insa_breakdown",
]


@dataclass(frozen=True)
class BreakdownStep:
    label: str
    duration_ms: float


@dataclass
class Breakdown:
    name: str
    steps: List[BreakdownStep]

    @property
    def total_ms(self) -> float:
        return sum(step.duration_ms for step in self.steps)

    def until(self, label: str) -> float:
        """Cumulative time up to and including the named step."""
        total = 0.0
        for step in self.steps:
            total += step.duration_ms
            if step.label == label:
                return total
        raise KeyError("no step labelled %r" % label)

    def rows(self) -> List[tuple]:
        return [(s.label, round(s.duration_ms, 1)) for s in self.steps]


def figure1_scenario() -> ScenarioParams:
    """The New York ad-click operating point."""
    d_ce = 6.7
    d_ew = 97.8 / 3.0 - d_ce  # handshakes total 97.8 ms
    return ScenarioParams(
        d_ci=1.4,
        d_ce=d_ce,
        d_ew=d_ew,
        d_wa=32.3,
        d_ea=70.9,   # NY edge -> California analytics
        d_ia=45.6,   # NY ISP -> California analytics
        t_trans=0.8,
        t_edge=136.6,
        t_web=241.6,
        t_analytics=500.0,
    )


def baseline_breakdown(params: ScenarioParams = None) -> Breakdown:
    """Figure 1(a): the current pipeline (no semantic cookies)."""
    p = params or figure1_scenario()
    return Breakdown(
        name="no-snatch",
        steps=[
            BreakdownStep("QUIC handshake client<->edge", 3 * p.d_ce),
            BreakdownStep("edge processing (static content)", p.t_edge),
            BreakdownStep("QUIC handshake edge<->web", 3 * p.d_ew),
            BreakdownStep("transmission", p.t_trans),
            BreakdownStep("web processing (cookie + database)", p.t_web),
            BreakdownStep("web -> analytics delivery", p.d_wa),
            BreakdownStep("analytics (Spark batch)", p.t_analytics),
        ],
    )


def app_insa_breakdown(params: ScenarioParams = None) -> Breakdown:
    """Figure 1(b), solid path: application-layer semantic cookies
    pre-processed at the edge, aggregated by the AggSwitch."""
    p = params or figure1_scenario()
    return Breakdown(
        name="snatch-app-insa",
        steps=[
            BreakdownStep("QUIC handshake client<->edge", 3 * p.d_ce),
            BreakdownStep("edge processing + cookie filter/count", p.t_edge),
            BreakdownStep("edge -> AggSwitch -> analytics", p.d_ea),
            BreakdownStep("in-network aggregation", INSA_ANALYTICS_MS),
        ],
    )


def trans_insa_breakdown(params: ScenarioParams = None) -> Breakdown:
    """Figure 1(b), dashed path: transport-layer cookies decoded by
    the LarkSwitch at the ISP, aggregated by the AggSwitch."""
    p = params or figure1_scenario()
    return Breakdown(
        name="snatch-trans-insa",
        steps=[
            BreakdownStep("client -> ISP (LarkSwitch)", p.d_ci),
            BreakdownStep("LarkSwitch -> AggSwitch -> analytics", p.d_ia),
            BreakdownStep("in-network aggregation", INSA_ANALYTICS_MS),
        ],
    )
