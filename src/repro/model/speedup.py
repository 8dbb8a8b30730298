"""The paper's speedup equations (1)-(6).

Speedup is the ratio of the end-to-end analytics latency without
Snatch (data detours via edge + web servers to the analytics server)
to the latency with Snatch (semantic data early-forwarded from the
edge server or ISP switch).  Six protocol variants are modelled:

==============================  ====  ==========================
variant                          eq.   handshake one-way delays
==============================  ====  ==========================
App over HTTPS, QUIC 1-RTT       (1)   3 d_CE (+ 3 d_EW upstream)
Transport, QUIC 0-RTT            (2)   1
Transport, QUIC 1-RTT            (3)   3 upstream, 1 Snatch path
App over HTTPS, QUIC 0-RTT       (4)   1
App over HTTP, TCP               (5)   3 (TCP handshake)
App over HTTPS, TCP+TLS 1.2      (6)   7 (3 RTTs)
==============================  ====  ==========================

For transport-layer cookies the Snatch path is always
``d_CI + d_IA + T'_A`` — the cookie rides the *first* packet of the
connection regardless of handshake mode, so the LarkSwitch forwards it
immediately (section 3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.model.params import ScenarioParams

__all__ = [
    "Protocol",
    "LatencyPair",
    "baseline_latency_ms",
    "snatch_latency_ms",
    "speedup",
    "latency_pair",
    "speedup_table",
]


class Protocol(enum.Enum):
    """Cookie placement x transport variant."""

    APP_HTTPS_1RTT = "App-HTTPS (QUIC 1-RTT)"
    APP_HTTPS_0RTT = "App-HTTPS (QUIC 0-RTT)"
    APP_HTTP_TCP = "App-HTTP (TCP)"
    APP_HTTPS_TCP = "App-HTTPS (TCP+TLS 1.2)"
    TRANS_0RTT = "Trans-0RTT"
    TRANS_1RTT = "Trans-1RTT"


# One-way-delay multipliers for connection establishment up to the
# point where the server holds the request data.
_HANDSHAKE_OW_DELAYS: Dict[Protocol, int] = {
    Protocol.APP_HTTPS_1RTT: 3,
    Protocol.APP_HTTPS_0RTT: 1,
    Protocol.APP_HTTP_TCP: 3,
    Protocol.APP_HTTPS_TCP: 7,
    Protocol.TRANS_0RTT: 1,
    Protocol.TRANS_1RTT: 3,
}


def _is_transport(protocol: Protocol) -> bool:
    return protocol in (Protocol.TRANS_0RTT, Protocol.TRANS_1RTT)


def baseline_latency_ms(params: ScenarioParams, protocol: Protocol) -> float:
    """Numerator of the speedup equations: the no-Snatch cycle latency
    from request generation to analytics result."""
    k = _HANDSHAKE_OW_DELAYS[protocol]
    return (
        k * params.d_ce
        + k * params.d_ew
        + params.d_wa
        + params.t_trans
        + params.t_edge
        + params.t_web
        + params.t_analytics
    )


def snatch_latency_ms(
    params: ScenarioParams, protocol: Protocol, insa: bool
) -> float:
    """Denominator: Snatch-path latency to the analytics result.

    With INSA the network completes the computation (T'_A < 1 ms);
    without, early-forwarded data still pays the full analytics cost.
    """
    t_analytics = params.t_analytics_insa if insa else params.t_analytics
    if _is_transport(protocol):
        return params.d_ci + params.d_ia + t_analytics
    k = _HANDSHAKE_OW_DELAYS[protocol]
    return k * params.d_ce + params.d_ea + params.t_edge_snatch + t_analytics


def speedup(
    params: ScenarioParams, protocol: Protocol, insa: bool = False
) -> float:
    """Speedup >= 1 per the paper's definition."""
    return baseline_latency_ms(params, protocol) / snatch_latency_ms(
        params, protocol, insa
    )


@dataclass(frozen=True)
class LatencyPair:
    """Baseline and Snatch latencies plus the derived speedup."""

    protocol: Protocol
    insa: bool
    baseline_ms: float
    snatch_ms: float

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.snatch_ms


def latency_pair(
    params: ScenarioParams, protocol: Protocol, insa: bool = False
) -> LatencyPair:
    return LatencyPair(
        protocol=protocol,
        insa=insa,
        baseline_ms=baseline_latency_ms(params, protocol),
        snatch_ms=snatch_latency_ms(params, protocol, insa),
    )


def speedup_table(
    params: ScenarioParams,
    protocols: Iterable[Protocol] = (
        Protocol.APP_HTTPS_1RTT,
        Protocol.TRANS_0RTT,
        Protocol.TRANS_1RTT,
    ),
) -> List[Dict[str, object]]:
    """Rows of (protocol, insa, baseline, snatch, speedup) — the series
    plotted in Figures 5(b)-(d)."""
    rows: List[Dict[str, object]] = []
    for protocol in protocols:
        for insa in (False, True):
            pair = latency_pair(params, protocol, insa)
            rows.append(
                {
                    "protocol": protocol.value,
                    "insa": insa,
                    "baseline_ms": round(pair.baseline_ms, 1),
                    "snatch_ms": round(pair.snatch_ms, 1),
                    "speedup": round(pair.speedup, 2),
                }
            )
    return rows
