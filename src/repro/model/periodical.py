"""Periodical-forwarding model (Figures 5(d), 6(c)).

Instead of forwarding per packet, LarkSwitch/edge servers accumulate
statistics over a period and forward once per interval.  Latency-wise
a just-missed record waits up to one full interval before its data
leaves the switch, so the Snatch-path latency gains the interval;
bandwidth-wise the aggregation-packet stream shrinks from one packet
per request to one per interval (section 3.4, 5.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.model.params import ScenarioParams
from repro.model.speedup import (
    Protocol,
    baseline_latency_ms,
    snatch_latency_ms,
)

__all__ = [
    "periodical_snatch_latency_ms",
    "periodical_speedup",
    "aggregation_bandwidth_kbps",
    "AGG_PACKET_BYTES",
    "bandwidth_sweep",
]

# Custom aggregation packet (Appendix B.3): Ethernet+IP+UDP framing,
# 16-bit SID, 16-bit summary, AES-padded data-stack — ~70 bytes on the
# wire, which reproduces the 112 Kbps -> 1 Kbps span of Figure 6(c).
AGG_PACKET_BYTES = 70


def periodical_snatch_latency_ms(
    params: ScenarioParams,
    protocol: Protocol,
    interval_ms: float,
    insa: bool = True,
) -> float:
    """Snatch-path latency with periodical forwarding: the per-packet
    path plus the forwarding interval (worst-case in-window wait)."""
    if interval_ms < 0:
        raise ValueError("interval must be non-negative")
    return snatch_latency_ms(params, protocol, insa) + interval_ms


def periodical_speedup(
    params: ScenarioParams,
    protocol: Protocol,
    interval_ms: float,
    insa: bool = True,
) -> float:
    return baseline_latency_ms(params, protocol) / periodical_snatch_latency_ms(
        params, protocol, interval_ms, insa
    )


def aggregation_bandwidth_kbps(
    interval_ms: float,
    requests_per_second: float,
    packet_bytes: int = AGG_PACKET_BYTES,
) -> float:
    """Bandwidth of the LarkSwitch/edge -> AggSwitch stream.

    Per-packet forwarding (interval 0) sends one aggregation packet per
    request; periodical forwarding sends one per interval.
    """
    if requests_per_second < 0:
        raise ValueError("request rate must be non-negative")
    if interval_ms < 0:
        raise ValueError("interval must be non-negative")
    if interval_ms == 0:
        packets_per_second = requests_per_second
    else:
        packets_per_second = min(1000.0 / interval_ms, requests_per_second)
    return packets_per_second * packet_bytes * 8 / 1000.0


def bandwidth_sweep(
    intervals_ms: Iterable[float],
    requests_per_second: float = 200.0,
) -> List[Dict[str, float]]:
    """The grey bandwidth line of Figure 6(c)."""
    return [
        {
            "interval_ms": interval,
            "bandwidth_kbps": round(
                aggregation_bandwidth_kbps(interval, requests_per_second), 2
            ),
        }
        for interval in intervals_ms
    ]
