"""Connection-ID type invariants."""

import random

import pytest

from repro.quic.connection_id import (
    ConnectionID,
    MAX_CONNECTION_ID_BYTES,
    random_connection_id,
)


class TestConnectionID:
    def test_basic_properties(self):
        cid = ConnectionID(b"\x01\x02\x03")
        assert len(cid) == 3
        assert bytes(cid) == b"\x01\x02\x03"

    def test_immutability(self):
        cid = ConnectionID(b"abc")
        with pytest.raises(Exception):
            cid.value = b"xyz"

    def test_rejects_over_160_bits(self):
        with pytest.raises(ValueError, match="too long"):
            ConnectionID(bytes(21))

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            ConnectionID("abc")

    def test_accepts_bytearray(self):
        cid = ConnectionID(bytearray(b"xy"))
        assert isinstance(cid.value, bytes)

    def test_equality_by_value(self):
        assert ConnectionID(b"ab") == ConnectionID(b"ab")
        assert ConnectionID(b"ab") != ConnectionID(b"ac")

    def test_empty_is_a_valid_id(self):
        """RFC 9000 allows a zero-length connection ID."""
        assert len(ConnectionID(b"")) == 0
        assert bytes(ConnectionID(b"")) == b""

    def test_accepts_exactly_160_bits(self):
        raw = bytes(range(MAX_CONNECTION_ID_BYTES))
        assert bytes(ConnectionID(raw)) == raw

    def test_hashes_by_value(self):
        """Frozen IDs key dicts and sets (a server's session table)."""
        ids = {ConnectionID(b"ab"), ConnectionID(bytearray(b"ab"))}
        assert ids == {ConnectionID(b"ab")}


class TestRandomConnectionID:
    def test_default_length(self):
        assert len(random_connection_id()) == MAX_CONNECTION_ID_BYTES

    def test_custom_length(self):
        assert len(random_connection_id(8)) == 8

    def test_zero_length(self):
        assert random_connection_id(0) == ConnectionID(b"")

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            random_connection_id(21)
        with pytest.raises(ValueError):
            random_connection_id(-1)

    def test_deterministic_with_seeded_rng(self):
        a = random_connection_id(20, random.Random(7))
        b = random_connection_id(20, random.Random(7))
        assert a == b

    def test_no_rng_leaves_global_random_untouched(self):
        """The bugfix regression: the no-rng path draws from a seeded
        module generator, never from the process-global ``random``."""
        random.seed(123)
        expected = random.random()
        random.seed(123)
        random_connection_id()
        assert random.random() == expected
