"""QUIC handshake state machines, the vanilla connection-ID policy and
a Snatch server planting semantic cookies through its CID factory."""

import random

import pytest

from repro.core.schema import CookieSchema, Feature
from repro.core.transport_cookie import TransportCookieCodec
from repro.quic.connection import (
    HandshakeMode,
    QuicClient,
    QuicServer,
    RandomConnectionIdPolicy,
    one_way_delays_to_server_data,
)
from repro.quic.connection_id import ConnectionID, random_connection_id
from repro.quic.packet import LongHeaderPacket, PacketType, SNATCH_DCID_LENGTH


def _pair(seed=0):
    rng = random.Random(seed)
    server = QuicServer("web.example", rng=rng)
    client = QuicClient("alice", rng=rng)
    return client, server


class TestOneRtt:
    def test_first_connection_is_1rtt(self):
        client, server = _pair()
        result = client.connect(server)
        assert result.mode is HandshakeMode.ONE_RTT
        assert result.one_way_delays_to_server_data == 3
        assert len(result.dst_conn_id) == SNATCH_DCID_LENGTH

    def test_trace_matches_figure7(self):
        client, server = _pair()
        result = client.connect(server)
        directions = [e.direction for e in result.trace]
        assert directions == [
            "client->server", "server->client", "client->server"
        ]

    def test_server_counts_handshakes(self):
        client, server = _pair()
        client.connect(server, prefer_0rtt=False)
        client.connect(server, prefer_0rtt=False)
        assert server.accepted_handshakes == 2

    def test_server_cid_factory_controls_dcid(self):
        rng = random.Random(1)
        planted = random_connection_id(SNATCH_DCID_LENGTH, rng)
        server = QuicServer("s", cid_factory=lambda _c: planted, rng=rng)
        client = QuicClient("c", rng=rng)
        assert client.connect(server).dst_conn_id == planted

    def test_factory_must_emit_20_bytes(self):
        rng = random.Random(2)
        server = QuicServer(
            "s", cid_factory=lambda _c: ConnectionID(b"abc"), rng=rng
        )
        client = QuicClient("c", rng=rng)
        with pytest.raises(ValueError, match="20-byte"):
            client.connect(server)


class TestZeroRtt:
    def test_second_connection_uses_0rtt(self):
        client, server = _pair()
        first = client.connect(server)
        second = client.connect(server)
        assert second.mode is HandshakeMode.ZERO_RTT
        assert second.one_way_delays_to_server_data == 1
        assert second.dst_conn_id == first.dst_conn_id
        assert server.accepted_0rtt == 1

    def test_0rtt_can_be_declined(self):
        client, server = _pair()
        client.connect(server)
        result = client.connect(server, prefer_0rtt=False)
        assert result.mode is HandshakeMode.ONE_RTT

    def test_rejected_ticket_falls_back_to_1rtt(self):
        client, server = _pair()
        client.connect(server)
        restarted = QuicServer("web.example", rng=random.Random(9))
        result = client.connect(restarted)
        assert result.mode is HandshakeMode.ONE_RTT

    def test_handle_0rtt_validates_packet_type(self):
        client, server = _pair()
        client.connect(server)
        bad = LongHeaderPacket(
            PacketType.INITIAL,
            random_connection_id(20),
            random_connection_id(8),
        )
        with pytest.raises(ValueError, match="0-RTT"):
            server.handle_0rtt(bad, b"psk")


class TestRandomPolicy:
    def test_random_policy_ignores_previous(self):
        rng = random.Random(6)
        policy = RandomConnectionIdPolicy(rng)
        previous = random_connection_id(20, rng)
        fresh = policy.next_initial_dcid(previous)
        assert bytes(fresh)[1:18] != bytes(previous)[1:18]


def _cookie_codec(seed=0):
    schema = CookieSchema(
        "app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("score", 0, 100),
        ),
    )
    return TransportCookieCodec(
        0x42, schema, bytes(range(16)), random.Random(seed)
    )


class TestSnatchServer:
    """The server's CID factory is the Snatch web server's hook: the
    ``DstConnID*`` it mints carries the user's semantic cookie."""

    def test_each_client_receives_its_own_cookie(self):
        codec = _cookie_codec()
        users = {"alice": {"gender": "f", "score": 17},
                 "bob": {"gender": "m", "score": 90}}
        rng = random.Random(8)
        server = QuicServer(
            "s", cid_factory=lambda who: codec.encode(users[who]), rng=rng
        )
        for who, values in users.items():
            result = QuicClient(who, rng=rng).connect(server)
            assert result.mode is HandshakeMode.ONE_RTT
            assert codec.decode(result.dst_conn_id).values == values

    def test_0rtt_replays_the_planted_cookie(self):
        """0-RTT resends the remembered ``DstConnID*`` unchanged, so the
        cookie reaches the switch one round trip earlier (Eq. 2/4)."""
        codec = _cookie_codec(seed=3)
        rng = random.Random(9)
        server = QuicServer(
            "s", cid_factory=lambda _c: codec.encode({"score": 55}), rng=rng
        )
        client = QuicClient("c", rng=rng)
        first = client.connect(server)
        second = client.connect(server)
        assert second.mode is HandshakeMode.ZERO_RTT
        assert second.dst_conn_id == first.dst_conn_id
        assert codec.decode(second.dst_conn_id).values == {"score": 55}


class TestDelayCoefficients:
    def test_match_speedup_equations(self):
        assert one_way_delays_to_server_data(HandshakeMode.ONE_RTT) == 3
        assert one_way_delays_to_server_data(HandshakeMode.ZERO_RTT) == 1
