"""QUIC connection establishment state machines.

Implements the handshake procedures of paper Figure 7:

* **1-RTT**: the client sends an Initial long-header packet with random
  SrcConnID/DstConnID; the server copies SrcConnID, chooses a fresh
  ``DstConnID*`` and returns it; subsequent packets use short headers
  where the client sends with ``DstConnID*``.  First request data is
  delivered after 1 RTT (3 one-way delays until the server holds data).
* **0-RTT**: only available after a previous connection to the same
  endpoint; the client replays the remembered ``DstConnID*`` and sends
  application data immediately in a 0-RTT long-header packet.

The server's connection-ID factory is pluggable: Snatch's web server
installs a factory that emits semantic-cookie-structured IDs (see
:mod:`repro.core.transport_cookie`), while a vanilla server emits random
IDs.  The client-side Snatch modification (paper section 4.2, "<50 lines
of code") is :class:`SnatchConnectionIdPolicy`: on a new 1-RTT
connection it keeps the cookie-carrying byte range of the last
``DstConnID*`` and regenerates only the random identification bits.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.quic.connection_id import (
    ConnectionID,
    MAX_CONNECTION_ID_BYTES,
    random_connection_id,
)
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    ShortHeaderPacket,
    SNATCH_DCID_LENGTH,
)

__all__ = [
    "HandshakeMode",
    "HandshakeEvent",
    "SessionTicket",
    "QuicServer",
    "QuicClient",
    "SnatchConnectionIdPolicy",
    "RandomConnectionIdPolicy",
    "one_way_delays_to_server_data",
]


class HandshakeMode(enum.Enum):
    ONE_RTT = "1-RTT"
    ZERO_RTT = "0-RTT"


@dataclass(frozen=True)
class HandshakeEvent:
    """One packet exchange in the handshake trace (for Figure 7)."""

    direction: str  # "client->server" or "server->client"
    description: str


@dataclass
class SessionTicket:
    """Resumption state the client remembers between connections."""

    server_name: str
    dst_conn_id: ConnectionID
    psk: bytes


class RandomConnectionIdPolicy:
    """Vanilla client behaviour: every connection gets fresh random IDs."""

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or random.Random()

    def next_initial_dcid(
        self, previous: Optional[ConnectionID]
    ) -> ConnectionID:
        return random_connection_id(SNATCH_DCID_LENGTH, self._rng)


class SnatchConnectionIdPolicy:
    """The Snatch client modification for QUIC 1-RTT.

    Keeps bytes ``[cookie_start, cookie_end)`` of the previous
    ``DstConnID*`` (the app-ID + encrypted bitmap/cookie-stack region)
    and regenerates the remaining random-identification bytes (DCID and
    DCID-R2 in the paper's Figure 3 layout).
    """

    def __init__(
        self,
        cookie_start: int = 1,
        cookie_end: int = SNATCH_DCID_LENGTH,
        rng: Optional[random.Random] = None,
    ):
        if not 0 <= cookie_start <= cookie_end <= MAX_CONNECTION_ID_BYTES:
            raise ValueError(
                "invalid cookie byte range [%d, %d)" % (cookie_start, cookie_end)
            )
        self.cookie_start = cookie_start
        self.cookie_end = cookie_end
        self._rng = rng or random.Random()

    def next_initial_dcid(
        self, previous: Optional[ConnectionID]
    ) -> ConnectionID:
        fresh = random_connection_id(SNATCH_DCID_LENGTH, self._rng)
        if previous is None or len(previous) != SNATCH_DCID_LENGTH:
            return fresh
        keep = bytes(previous)[self.cookie_start:self.cookie_end]
        return fresh.replace_range(self.cookie_start, keep)


class QuicServer:
    """A QUIC endpoint accepting handshakes and issuing connection IDs.

    ``cid_factory`` receives the client identity (an opaque string) and
    returns the ``DstConnID*`` to install for that client — this is the
    hook through which Snatch web servers plant semantic cookies.
    """

    def __init__(
        self,
        name: str,
        cid_factory: Optional[Callable[[str], ConnectionID]] = None,
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self._rng = rng or random.Random()
        self._cid_factory = cid_factory or (
            lambda client: random_connection_id(SNATCH_DCID_LENGTH, self._rng)
        )
        self._sessions: Dict[bytes, str] = {}  # psk -> client identity
        self.accepted_handshakes: int = 0
        self.accepted_0rtt: int = 0

    def handle_initial(
        self, client_identity: str, initial: LongHeaderPacket
    ) -> Tuple[LongHeaderPacket, SessionTicket]:
        """Process a client Initial; return the server's Initial+Handshake
        flight (carrying ``DstConnID*``) and a resumption ticket."""
        if initial.packet_type is not PacketType.INITIAL:
            raise ValueError("expected an Initial packet")
        dst_conn_id = self._cid_factory(client_identity)
        if len(dst_conn_id) != SNATCH_DCID_LENGTH:
            raise ValueError(
                "server connection-ID factory must emit %d-byte IDs"
                % SNATCH_DCID_LENGTH
            )
        psk = bytes(self._rng.getrandbits(8) for _ in range(16))
        self._sessions[psk] = client_identity
        self.accepted_handshakes += 1
        response = LongHeaderPacket(
            packet_type=PacketType.HANDSHAKE,
            dcid=initial.scid,  # echo the client's source ID
            scid=dst_conn_id,  # the new DstConnID*
            payload=b"server-hello",
        )
        ticket = SessionTicket(
            server_name=self.name, dst_conn_id=dst_conn_id, psk=psk
        )
        return response, ticket

    def handle_0rtt(self, packet: LongHeaderPacket, psk: bytes) -> bool:
        """Validate a 0-RTT packet against a previously issued ticket."""
        if packet.packet_type is not PacketType.ZERO_RTT:
            raise ValueError("expected a 0-RTT packet")
        if psk not in self._sessions:
            return False
        self.accepted_0rtt += 1
        return True


@dataclass
class ConnectionResult:
    """Outcome of a client connection attempt."""

    mode: HandshakeMode
    dst_conn_id: ConnectionID
    trace: List[HandshakeEvent]
    one_way_delays_to_server_data: int


class QuicClient:
    """A QUIC client with pluggable connection-ID policy and a session
    cache enabling 0-RTT resumption."""

    def __init__(
        self,
        identity: str,
        cid_policy=None,
        rng: Optional[random.Random] = None,
    ):
        self.identity = identity
        self._rng = rng or random.Random()
        self.cid_policy = cid_policy or RandomConnectionIdPolicy(self._rng)
        self._tickets: Dict[str, SessionTicket] = {}
        self._last_dcid: Dict[str, ConnectionID] = {}

    def connect(
        self,
        server: QuicServer,
        request: bytes = b"GET /",
        prefer_0rtt: bool = True,
    ) -> ConnectionResult:
        """Establish a connection, using 0-RTT when a ticket exists and
        ``prefer_0rtt`` is set, else a full 1-RTT handshake."""
        if prefer_0rtt and server.name in self._tickets:
            return self._connect_0rtt(server, request)
        return self._connect_1rtt(server, request)

    def _connect_1rtt(
        self, server: QuicServer, request: bytes
    ) -> ConnectionResult:
        trace: List[HandshakeEvent] = []
        previous = self._last_dcid.get(server.name)
        initial_dcid = self.cid_policy.next_initial_dcid(previous)
        scid = random_connection_id(8, self._rng)
        initial = LongHeaderPacket(
            packet_type=PacketType.INITIAL,
            dcid=initial_dcid,
            scid=scid,
            payload=b"client-hello",
        )
        trace.append(
            HandshakeEvent("client->server", "Initial (SrcConnID, DstConnID)")
        )
        response, ticket = server.handle_initial(self.identity, initial)
        trace.append(
            HandshakeEvent("server->client", "Handshake (DstConnID*)")
        )
        dcid_star = response.scid
        # First 1-RTT short-header packet carries the request.
        ShortHeaderPacket(dcid=dcid_star, payload=request)
        trace.append(
            HandshakeEvent("client->server", "1-RTT data (DstConnID*)")
        )
        self._tickets[server.name] = ticket
        self._last_dcid[server.name] = dcid_star
        return ConnectionResult(
            mode=HandshakeMode.ONE_RTT,
            dst_conn_id=dcid_star,
            trace=trace,
            one_way_delays_to_server_data=3,
        )

    def _connect_0rtt(
        self, server: QuicServer, request: bytes
    ) -> ConnectionResult:
        ticket = self._tickets[server.name]
        trace = [
            HandshakeEvent(
                "client->server", "0-RTT data (replayed DstConnID*)"
            )
        ]
        packet = LongHeaderPacket(
            packet_type=PacketType.ZERO_RTT,
            dcid=ticket.dst_conn_id,
            scid=random_connection_id(8, self._rng),
            payload=request,
        )
        accepted = server.handle_0rtt(packet, ticket.psk)
        if not accepted:
            # Ticket rejected (e.g. server restarted): fall back to 1-RTT.
            del self._tickets[server.name]
            return self._connect_1rtt(server, request)
        self._last_dcid[server.name] = ticket.dst_conn_id
        return ConnectionResult(
            mode=HandshakeMode.ZERO_RTT,
            dst_conn_id=ticket.dst_conn_id,
            trace=trace,
            one_way_delays_to_server_data=1,
        )


def one_way_delays_to_server_data(mode: HandshakeMode) -> int:
    """One-way delay count before request data reaches the server.

    These are the coefficients in the paper's speedup equations:
    3 for QUIC 1-RTT (Eq. 1/3) and 1 for QUIC 0-RTT (Eq. 2/4).
    """
    return 3 if mode is HandshakeMode.ONE_RTT else 1
