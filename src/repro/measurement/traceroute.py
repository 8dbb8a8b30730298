"""Traceroute simulation (Appendix D.1 methodology).

For every dVPN site the paper runs ``traceroute`` through the VPN
tunnel: hop 1 is the dVPN proxy itself; subsequent hops walk the home
network (private IPs) until the first *public* IP — that hop is the
ISP, and its delay (minus the tunnel's hop-1 delay) is ``d_CI``.
Sites with no public hop among the first 10 (all private, or hops
answering "*") are discarded as miscategorized non-residential nodes.

This module reproduces that derivation on synthetic hop lists, so the
study's filtering logic runs against realistic traceroute shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "Hop",
    "Traceroute",
    "simulate_traceroute",
    "first_public_hop",
    "is_private_ip",
    "MAX_PROBED_HOPS",
]

MAX_PROBED_HOPS = 10

_PRIVATE_PREFIXES = ("10.", "192.168.", "100.64.", "169.254.")


def is_private_ip(address: str) -> bool:
    """RFC 1918 / CGNAT / link-local detection (plus 172.16/12)."""
    if address.startswith(_PRIVATE_PREFIXES):
        return True
    if address.startswith("172."):
        try:
            second = int(address.split(".")[1])
        except (IndexError, ValueError):
            return False
        return 16 <= second <= 31
    return False


@dataclass(frozen=True)
class Hop:
    """One traceroute hop; ``address`` is None when the probe timed
    out ('*' in traceroute output)."""

    ttl: int
    address: Optional[str]
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.address is not None

    @property
    def is_public(self) -> bool:
        return self.responded and not is_private_ip(self.address)


@dataclass
class Traceroute:
    """A sequence of hops through the VPN tunnel."""

    hops: List[Hop]

    def first_public(self) -> Optional[Hop]:
        return first_public_hop(self.hops)

    def tunnel_rtt_ms(self) -> Optional[float]:
        """Hop 1 is the dVPN proxy: the tunnel's own RTT, subtracted
        from every downstream measurement."""
        if not self.hops or self.hops[0].rtt_ms is None:
            return None
        return self.hops[0].rtt_ms

    def isp_delay_ms(self) -> Optional[float]:
        """d_CI: first-public-hop RTT minus the tunnel RTT, halved
        (one-way)."""
        public = self.first_public()
        tunnel = self.tunnel_rtt_ms()
        if public is None or public.rtt_ms is None or tunnel is None:
            return None
        return max(0.05, (public.rtt_ms - tunnel) / 2.0)


def first_public_hop(hops: List[Hop]) -> Optional[Hop]:
    """The first public-IP hop within the probe budget, else None
    (the site is discarded)."""
    for hop in hops[:MAX_PROBED_HOPS]:
        if hop.is_public:
            return hop
    return None


def simulate_traceroute(
    residential: bool,
    d_ci_ms: float,
    tunnel_rtt_ms: float = 40.0,
    rng: Optional[random.Random] = None,
) -> Traceroute:
    """Generate a plausible hop list.

    Residential paths: proxy, 0-2 private home/CGNAT hops, then the
    public ISP hop carrying ``d_CI``.  Non-residential paths (data
    centers, miscategorized nodes) yield only private or silent hops in
    the probe window.
    """
    rng = rng or random.Random()
    hops: List[Hop] = [
        Hop(ttl=1, address="10.8.0.1", rtt_ms=tunnel_rtt_ms)
    ]
    if residential:
        for extra in range(rng.randint(0, 2)):
            hops.append(
                Hop(
                    ttl=len(hops) + 1,
                    address="192.168.%d.1" % (extra + 1),
                    rtt_ms=tunnel_rtt_ms + rng.uniform(0.1, 0.9),
                )
            )
        hops.append(
            Hop(
                ttl=len(hops) + 1,
                address="%d.%d.%d.1" % (
                    rng.randint(11, 94), rng.randint(0, 255),
                    rng.randint(0, 255),
                ),
                rtt_ms=tunnel_rtt_ms + 2 * d_ci_ms,
            )
        )
        # A couple of onward public hops for realism.
        for onward in range(2):
            hops.append(
                Hop(
                    ttl=len(hops) + 1,
                    address="%d.0.%d.1" % (
                        rng.randint(11, 94), onward
                    ),
                    rtt_ms=tunnel_rtt_ms + 2 * d_ci_ms
                    + rng.uniform(1.0, 8.0),
                )
            )
    else:
        # All private or unresponsive within the probe budget.
        for ttl in range(2, MAX_PROBED_HOPS + 2):
            if rng.random() < 0.5:
                hops.append(Hop(ttl=ttl, address=None, rtt_ms=None))
            else:
                hops.append(
                    Hop(
                        ttl=ttl,
                        address="10.%d.0.1" % (ttl % 256),
                        rtt_ms=tunnel_rtt_ms + 0.3 * ttl,
                    )
                )
    return Traceroute(hops=hops)
