"""QUIC connection-ID handling.

The QUIC connection ID is the carrier of Snatch's transport-layer
semantic cookies (paper section 4.1 and Appendix B.2): the server-chosen
``DstConnID*`` of up to 160 bits (20 bytes) is structured as

    [ 8-bit DCID | 8-bit application-ID | bitmap | cookie-stack | DCID-R2 ]

where everything after the application-ID byte is AES-128 encrypted.
This module provides the raw connection-ID type plus generation helpers;
the semantic structuring lives in :mod:`repro.core.transport_cookie`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["ConnectionID", "MAX_CONNECTION_ID_BYTES", "random_connection_id"]

MAX_CONNECTION_ID_BYTES = 20  # 160 bits, RFC 9000 maximum.


@dataclass(frozen=True)
class ConnectionID:
    """An immutable QUIC connection ID of 0..20 bytes."""

    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, (bytes, bytearray)):
            raise TypeError("connection ID must be bytes")
        if len(self.value) > MAX_CONNECTION_ID_BYTES:
            raise ValueError(
                "connection ID too long: %d > %d bytes"
                % (len(self.value), MAX_CONNECTION_ID_BYTES)
            )
        object.__setattr__(self, "value", bytes(self.value))

    def __len__(self) -> int:
        return len(self.value)

    def __bytes__(self) -> bytes:
        return self.value


# Deterministic default generator: falling back to the process-global
# ``random`` module would make no-rng callers (tests, examples) vary
# run to run and leak draws into unrelated seeded sequences.
_default_rng = random.Random("repro.quic.connection_id")


def random_connection_id(
    length: int = MAX_CONNECTION_ID_BYTES,
    rng: Optional[random.Random] = None,
) -> ConnectionID:
    """Generate a uniformly random connection ID of ``length`` bytes.

    Without an explicit ``rng`` a module-level seeded generator is
    used, so runs are reproducible bit-for-bit.
    """
    if not 0 <= length <= MAX_CONNECTION_ID_BYTES:
        raise ValueError("invalid connection ID length %d" % length)
    if rng is None:
        rng = _default_rng
    return ConnectionID(bytes(rng.getrandbits(8) for _ in range(length)))
