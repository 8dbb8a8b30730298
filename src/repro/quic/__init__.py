"""QUIC substrate: headers, connection IDs, and handshake state machines.

The transport-layer semantic cookie rides in the QUIC connection-ID
field (paper sections 3.3, 4.1, Appendix B.2); this package provides
the protocol mechanics the Snatch core builds on.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "connection": (
        "ConnectionResult", "HandshakeEvent", "HandshakeMode", "QuicClient",
        "QuicServer", "RandomConnectionIdPolicy", "SessionTicket",
        "SnatchConnectionIdPolicy", "one_way_delays_to_server_data",
    ),
    "connection_id": (
        "ConnectionID", "MAX_CONNECTION_ID_BYTES", "random_connection_id",
    ),
    "packet": (
        "LongHeaderPacket", "PacketType", "QUIC_VERSION", "SNATCH_DCID_LENGTH",
        "ShortHeaderPacket", "parse_packet",
    ),
    "varint": ("decode_varint", "encode_varint", "varint_length"),
})
