"""Simulated network packets.

A :class:`NetPacket` carries an opaque payload (bytes or a structured
message), a protocol label, a size used for serialization-delay and
bandwidth accounting, and free-form headers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["NetPacket"]

_packet_ids = itertools.count(1)


@dataclass
class NetPacket:
    """One packet in flight through the simulated network."""

    src: str
    dst: str
    protocol: str = "udp"
    size_bytes: int = 100
    payload: Any = None
    headers: Dict[str, Any] = field(default_factory=dict)
    created_at_ms: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("packet size must be positive")
