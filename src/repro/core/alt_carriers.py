"""Alternative transport-layer cookie carriers (Appendix B.2).

The paper, following [33], identifies three ways to encode cookies in
the transport layer without client modification:

1. **IPv6 least-significant bits** — up to 64 bits, but assumes the
   host controls its interface identifier; "not appropriate" for
   Snatch, and tiny.
2. **TCP timestamp option** — 32 bits echoed by the peer, but the
   value cannot be reused across connections and proactive re-sending
   requires root-level packet rewriting, breaking the minimal-client
   vision.
3. **QUIC connection ID** — up to 160 bits, userspace-controlled:
   Snatch's choice (see :mod:`repro.core.transport_cookie`).

These carriers are implemented here so the trade-off is executable:
each reports its bit budget, whether state survives reconnects, and
the client privilege it requires — and each round-trips a (small)
cookie schema so the capacity limits bite in tests and benches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.schema import CookieSchema, FeatureValueError
from repro.crypto.aes import AES

__all__ = [
    "CarrierProfile",
    "Ipv6Carrier",
    "TcpTimestampCarrier",
    "QUIC_CARRIER_PROFILE",
    "carrier_comparison",
]


@dataclass(frozen=True)
class CarrierProfile:
    """The deployment properties Appendix B.2 compares."""

    name: str
    cookie_bits: int
    survives_reconnect: bool
    client_modification: str  # "none", "userspace", "root"
    suitable_for_snatch: bool
    reason: str


QUIC_CARRIER_PROFILE = CarrierProfile(
    name="quic-connection-id",
    cookie_bits=160,
    survives_reconnect=True,
    client_modification="userspace",
    suitable_for_snatch=True,
    reason="up to 160 bits; userspace QUIC can repeat the cookie bits "
           "across connections (0-RTT needs no change at all)",
)


def _pack_bits(schema: CookieSchema, values: Dict[str, Any], budget: int,
               rng: random.Random) -> int:
    """Pack bitmap + stack into an integer of ``budget`` bits."""
    if schema.total_bits > budget:
        raise FeatureValueError(
            "schema needs %d bits but the carrier offers %d"
            % (schema.total_bits, budget)
        )
    unknown = set(values) - set(schema.feature_names())
    if unknown:
        raise FeatureValueError("non-schema features: %s" % sorted(unknown))
    out = 0
    used = 0
    for feature in schema.features:
        out = (out << 1) | (1 if feature.name in values else 0)
        used += 1
    for feature in schema.features:
        if feature.name in values:
            out = (out << feature.bits) | feature.encode_value(
                values[feature.name]
            )
            used += feature.bits
    # Random-fill the remainder.
    while used < budget:
        out = (out << 1) | rng.getrandbits(1)
        used += 1
    return out


def _unpack_bits(schema: CookieSchema, raw: int, budget: int) -> Dict[str, Any]:
    bits = [(raw >> (budget - 1 - i)) & 1 for i in range(budget)]
    pos = 0
    present = []
    for _feature in schema.features:
        present.append(bits[pos] == 1)
        pos += 1
    values: Dict[str, Any] = {}
    for feature, is_present in zip(schema.features, present):
        if is_present:
            wire = 0
            for _ in range(feature.bits):
                wire = (wire << 1) | bits[pos]
                pos += 1
            values[feature.name] = feature.decode_value(wire)
    return values


class Ipv6Carrier:
    """Cookie in the 64 least-significant bits of an IPv6 address.

    Capacity is 64 bits and the encoding is *not* encrypted on its own
    (the address is visible to every on-path observer), so we XOR-mask
    it with an AES-derived pad — still weaker than the QUIC carrier
    because the mask must be static per region.
    """

    PROFILE = CarrierProfile(
        name="ipv6-lsb",
        cookie_bits=64,
        survives_reconnect=True,
        client_modification="root",
        suitable_for_snatch=False,
        reason="assumes the MAC-derived interface identifier can be "
               "repurposed; 64 bits only; needs interface reconfiguration",
    )

    def __init__(self, schema: CookieSchema, key: bytes,
                 prefix: int = 0x20010DB8_00000000,
                 rng: Optional[random.Random] = None):
        if schema.total_bits > 64:
            raise ValueError(
                "schema needs %d bits; IPv6 carrier offers 64"
                % schema.total_bits
            )
        self.schema = schema
        self.prefix = prefix
        self._rng = rng or random.Random()
        # Static 64-bit pad derived from the region key.
        pad_block = AES(key).encrypt_block(b"ipv6-carrier-pad")
        self._pad = int.from_bytes(pad_block[:8], "big")

    def encode(self, values: Dict[str, Any]) -> int:
        """Returns the full 128-bit IPv6 address as an int."""
        low = _pack_bits(self.schema, values, 64, self._rng) ^ self._pad
        return (self.prefix << 64) | low

    def decode(self, address: int) -> Dict[str, Any]:
        low = (address & ((1 << 64) - 1)) ^ self._pad
        return _unpack_bits(self.schema, low, 64)


class TcpTimestampCarrier:
    """Cookie in the 32-bit TCP timestamp option.

    The peer echoes TSval in TSecr, so a server-set cookie flows back
    on every segment of *this* connection — but a new connection
    resets the clock, so the cookie does not survive reconnects
    without root-level rewriting (the property that disqualifies it,
    Appendix B.2).
    """

    PROFILE = CarrierProfile(
        name="tcp-timestamp",
        cookie_bits=32,
        survives_reconnect=False,
        client_modification="root",
        suitable_for_snatch=False,
        reason="TSval cannot be reused in the next connection; "
               "proactive resend needs raw-socket privileges",
    )

    def __init__(self, schema: CookieSchema, key: bytes,
                 rng: Optional[random.Random] = None):
        if schema.total_bits > 32:
            raise ValueError(
                "schema needs %d bits; TCP timestamp offers 32"
                % schema.total_bits
            )
        self.schema = schema
        self._rng = rng or random.Random()
        pad_block = AES(key).encrypt_block(b"tcp-tsval-pad\x00\x00\x00")
        self._pad = int.from_bytes(pad_block[:4], "big")
        self._connection_open = False

    def open_connection(self) -> None:
        self._connection_open = True

    def encode(self, values: Dict[str, Any]) -> int:
        if not self._connection_open:
            raise RuntimeError(
                "TCP timestamp cookies only exist within an open "
                "connection (Appendix B.2)"
            )
        return _pack_bits(self.schema, values, 32, self._rng) ^ self._pad

    def decode(self, tsval: int) -> Dict[str, Any]:
        if not self._connection_open:
            raise RuntimeError("no open connection to echo TSval on")
        return _unpack_bits(self.schema, tsval ^ self._pad, 32)


def carrier_comparison() -> List[CarrierProfile]:
    """The Appendix B.2 comparison, as data."""
    return [
        Ipv6Carrier.PROFILE,
        TcpTimestampCarrier.PROFILE,
        QUIC_CARRIER_PROFILE,
    ]
