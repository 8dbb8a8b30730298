"""A P4-style packet parser: a state machine over raw bytes.

Real programmable switches begin every pipeline with a parser that
walks header definitions and fills the PHV; Snatch's LarkSwitch parses
Ethernet/IPv4/UDP and then the QUIC header to reach the connection ID
(paper section 4.1: "the programmable switch's capability to read and
parse packet headers").  This module provides:

* :class:`HeaderField` / :class:`HeaderType` — bit-exact header
  definitions;
* :class:`Parser` — a select-based parse graph, as in P4's ``parser``
  blocks, producing a flat field dict for the match-action pipeline;
* ready-made definitions for Ethernet, IPv4, UDP, and the Snatch QUIC
  short header, plus builders to compose test packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "HeaderField",
    "HeaderType",
    "ParseState",
    "Parser",
    "ParseError",
    "ETHERNET",
    "IPV4",
    "UDP",
    "QUIC_SHORT",
    "snatch_parser",
    "build_snatch_packet",
]


class ParseError(ValueError):
    """The packet does not match the parse graph."""


@dataclass(frozen=True)
class HeaderField:
    """One field: name and width in bits.  Widths need not be
    byte-aligned (P4 headers frequently are not)."""

    name: str
    bits: int

    def __post_init__(self):
        if self.bits <= 0:
            raise ValueError("field width must be positive")


@dataclass(frozen=True)
class HeaderType:
    """An ordered list of fields; total width must be whole bytes."""

    name: str
    fields: Tuple[HeaderField, ...]

    def __post_init__(self):
        if self.total_bits % 8:
            raise ValueError(
                "header %s is %d bits; headers must be byte-aligned"
                % (self.name, self.total_bits)
            )

    @property
    def total_bits(self) -> int:
        return sum(f.bits for f in self.fields)

    @property
    def total_bytes(self) -> int:
        return self.total_bits // 8

    def extract(self, data: bytes, offset: int) -> Dict[str, int]:
        """Pull this header's fields starting at byte ``offset``."""
        end = offset + self.total_bytes
        if end > len(data):
            raise ParseError(
                "truncated %s header: need %d bytes at offset %d"
                % (self.name, self.total_bytes, offset)
            )
        window = int.from_bytes(data[offset:end], "big")
        out: Dict[str, int] = {}
        remaining = self.total_bits
        for header_field in self.fields:
            remaining -= header_field.bits
            mask = (1 << header_field.bits) - 1
            out["%s.%s" % (self.name, header_field.name)] = (
                window >> remaining
            ) & mask
        return out

    def emit(self, values: Dict[str, int]) -> bytes:
        """Inverse of extract: build header bytes from field values."""
        window = 0
        for header_field in self.fields:
            value = values.get(header_field.name, 0)
            if value < 0 or value >= (1 << header_field.bits):
                raise ValueError(
                    "%s.%s value %d does not fit %d bits"
                    % (self.name, header_field.name, value, header_field.bits)
                )
            window = (window << header_field.bits) | value
        return window.to_bytes(self.total_bytes, "big")


# Select function: (fields so far) -> next state name or None (accept).
SelectFn = Callable[[Dict[str, int]], Optional[str]]


@dataclass
class ParseState:
    """Extract one header, then select the next state."""

    name: str
    header: HeaderType
    select: SelectFn


class Parser:
    """A parse graph: named states, a start state, accept on None."""

    MAX_STATES_VISITED = 16  # hardware parsers bound their depth

    def __init__(self, states: List[ParseState], start: str):
        self._states = {state.name: state for state in states}
        if start not in self._states:
            raise ValueError("unknown start state %r" % start)
        self.start = start

    def parse(self, data: bytes) -> Tuple[Dict[str, int], int]:
        """Returns (fields, payload_offset)."""
        fields: Dict[str, int] = {}
        offset = 0
        state_name: Optional[str] = self.start
        visited = 0
        while state_name is not None:
            visited += 1
            if visited > self.MAX_STATES_VISITED:
                raise ParseError("parse graph exceeded its depth bound")
            state = self._states.get(state_name)
            if state is None:
                raise ParseError("transition to unknown state %r" % state_name)
            fields.update(state.header.extract(data, offset))
            offset += state.header.total_bytes
            state_name = state.select(fields)
        return fields, offset


# -- standard header definitions ------------------------------------------

ETHERNET = HeaderType(
    "eth",
    (
        HeaderField("dst", 48),
        HeaderField("src", 48),
        HeaderField("ethertype", 16),
    ),
)

IPV4 = HeaderType(
    "ipv4",
    (
        HeaderField("version", 4),
        HeaderField("ihl", 4),
        HeaderField("tos", 8),
        HeaderField("total_len", 16),
        HeaderField("identification", 16),
        HeaderField("flags_frag", 16),
        HeaderField("ttl", 8),
        HeaderField("protocol", 8),
        HeaderField("checksum", 16),
        HeaderField("src", 32),
        HeaderField("dst", 32),
    ),
)

UDP = HeaderType(
    "udp",
    (
        HeaderField("sport", 16),
        HeaderField("dport", 16),
        HeaderField("length", 16),
        HeaderField("checksum", 16),
    ),
)

# Snatch fixes the short-header DCID at 20 bytes (160 bits); the
# parser splits out the app-ID byte so the match-action table can key
# on it directly.
QUIC_SHORT = HeaderType(
    "quic",
    (
        HeaderField("flags", 8),
        HeaderField("dcid_b0", 8),
        HeaderField("app_id", 8),
        HeaderField("cookie_block", 128),
        HeaderField("dcid_r2", 16),
    ),
)

ETHERTYPE_IPV4 = 0x0800
PROTO_UDP = 17
QUIC_PORT = 443


def snatch_parser() -> Parser:
    """eth -> ipv4 (proto 17) -> udp (port 443) -> quic short header."""

    def after_eth(fields: Dict[str, int]) -> Optional[str]:
        if fields["eth.ethertype"] == ETHERTYPE_IPV4:
            return "ipv4"
        return None

    def after_ipv4(fields: Dict[str, int]) -> Optional[str]:
        if fields["ipv4.protocol"] == PROTO_UDP:
            return "udp"
        return None

    def after_udp(fields: Dict[str, int]) -> Optional[str]:
        if fields["udp.dport"] == QUIC_PORT:
            return "quic"
        return None

    return Parser(
        states=[
            ParseState("eth", ETHERNET, after_eth),
            ParseState("ipv4", IPV4, after_ipv4),
            ParseState("udp", UDP, after_udp),
            ParseState("quic", QUIC_SHORT, lambda _f: None),
        ],
        start="eth",
    )


def build_snatch_packet(
    dcid: bytes,
    src_ip: int = 0x0A000001,
    dst_ip: int = 0x5DB8D822,
    sport: int = 51000,
) -> bytes:
    """Compose an Ethernet/IPv4/UDP/QUIC-short packet carrying a
    20-byte connection ID (for parser and pipeline tests)."""
    if len(dcid) != 20:
        raise ValueError("Snatch DCID must be 20 bytes")
    quic = QUIC_SHORT.emit(
        {
            "flags": 0x40,
            "dcid_b0": dcid[0],
            "app_id": dcid[1],
            "cookie_block": int.from_bytes(dcid[2:18], "big"),
            "dcid_r2": int.from_bytes(dcid[18:20], "big"),
        }
    )
    udp = UDP.emit(
        {
            "sport": sport,
            "dport": QUIC_PORT,
            "length": 8 + len(quic),
            "checksum": 0,
        }
    )
    ipv4 = IPV4.emit(
        {
            "version": 4,
            "ihl": 5,
            "total_len": 20 + 8 + len(quic),
            "ttl": 64,
            "protocol": PROTO_UDP,
            "src": src_ip,
            "dst": dst_ip,
        }
    )
    eth = ETHERNET.emit(
        {"dst": 0xFFFFFFFFFFFF, "src": 0x02004C4F4F50,
         "ethertype": ETHERTYPE_IPV4}
    )
    return eth + ipv4 + udp + quic
