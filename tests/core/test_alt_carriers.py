"""Alternative transport carriers (Appendix B.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alt_carriers import (
    Ipv6Carrier,
    QUIC_CARRIER_PROFILE,
    TcpTimestampCarrier,
    carrier_comparison,
)
from repro.core.schema import CookieSchema, Feature, FeatureValueError

KEY = bytes(range(16))


def _small_schema():
    return CookieSchema(
        "x",
        (
            Feature.categorical("g", ["a", "b", "c"]),
            Feature.number("n", 0, 100),
        ),
    )


class TestComparison:
    def test_only_quic_is_suitable(self):
        profiles = carrier_comparison()
        suitable = [p for p in profiles if p.suitable_for_snatch]
        assert [p.name for p in suitable] == ["quic-connection-id"]

    def test_bit_budgets_match_appendix(self):
        budgets = {p.name: p.cookie_bits for p in carrier_comparison()}
        assert budgets == {
            "ipv6-lsb": 64,
            "tcp-timestamp": 32,
            "quic-connection-id": 160,
        }

    def test_quic_needs_only_userspace_change(self):
        assert QUIC_CARRIER_PROFILE.client_modification == "userspace"
        assert all(
            p.client_modification == "root"
            for p in carrier_comparison()
            if p.name != "quic-connection-id"
        )


class TestIpv6Carrier:
    def test_roundtrip(self):
        carrier = Ipv6Carrier(_small_schema(), KEY, rng=random.Random(1))
        address = carrier.encode({"g": "b", "n": 42})
        assert carrier.decode(address) == {"g": "b", "n": 42}

    def test_prefix_preserved(self):
        carrier = Ipv6Carrier(
            _small_schema(), KEY, prefix=0xFD00 << 48, rng=random.Random(2)
        )
        address = carrier.encode({"g": "a"})
        assert address >> 64 == 0xFD00 << 48

    def test_values_masked_on_the_wire(self):
        """The low 64 bits must not expose the plaintext bit packing."""
        carrier = Ipv6Carrier(_small_schema(), KEY, rng=random.Random(3))
        address = carrier.encode({"g": "a", "n": 0})
        low = address & ((1 << 64) - 1)
        # Plaintext would start with bitmap 11 then zeros.
        assert low >> 56 != 0b11000000

    def test_capacity_enforced(self):
        wide = CookieSchema(
            "wide", tuple(Feature.number("f%d" % i, 0, 2**30) for i in range(3))
        )
        with pytest.raises(ValueError, match="64"):
            Ipv6Carrier(wide, KEY)

    def test_partial_values(self):
        carrier = Ipv6Carrier(_small_schema(), KEY, rng=random.Random(4))
        assert carrier.decode(carrier.encode({"n": 7})) == {"n": 7}

    @given(st.sampled_from(["a", "b", "c"]), st.integers(0, 100))
    @settings(max_examples=25)
    def test_roundtrip_property(self, g, n):
        carrier = Ipv6Carrier(_small_schema(), KEY, rng=random.Random(5))
        assert carrier.decode(carrier.encode({"g": g, "n": n})) == {
            "g": g, "n": n
        }


class TestTcpTimestampCarrier:
    def test_roundtrip_within_connection(self):
        carrier = TcpTimestampCarrier(_small_schema(), KEY,
                                      rng=random.Random(6))
        carrier.open_connection()
        tsval = carrier.encode({"g": "c", "n": 99})
        assert 0 <= tsval < (1 << 32)
        assert carrier.decode(tsval) == {"g": "c", "n": 99}

    def test_no_cookie_without_an_open_connection(self):
        """The disqualifying property: no reuse across connections."""
        carrier = TcpTimestampCarrier(_small_schema(), KEY,
                                      rng=random.Random(7))
        with pytest.raises(RuntimeError, match="connection"):
            carrier.encode({"g": "a"})
        with pytest.raises(RuntimeError):
            carrier.decode(12345)

    def test_capacity_enforced(self):
        wide = CookieSchema(
            "wide", (Feature.number("big", 0, 2**40),)
        )
        with pytest.raises(ValueError, match="32"):
            TcpTimestampCarrier(wide, KEY)

    def test_unknown_feature_rejected(self):
        carrier = TcpTimestampCarrier(_small_schema(), KEY,
                                      rng=random.Random(8))
        carrier.open_connection()
        with pytest.raises(FeatureValueError):
            carrier.encode({"ghost": 1})
