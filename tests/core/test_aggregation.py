"""Custom aggregation packets (Appendix B.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
    SNATCH_SID,
)
from repro.switch import columns

KEY = bytes(range(16))


def _codec(app_id=0x42, seed=1):
    return AggregationCodec(app_id, KEY, random.Random(seed))


def _packet(items, mode=ForwardingMode.PER_PACKET, app_id=0x42):
    return AggregationPacket(app_id=app_id, mode=mode, items=items)


class TestRoundtrip:
    def test_per_packet(self):
        codec = _codec()
        packet = _packet([(0, 1), (3, 99)])
        decoded = codec.decode(codec.encode(packet))
        assert decoded.items == [(0, 1), (3, 99)]
        assert decoded.mode == ForwardingMode.PER_PACKET
        assert decoded.app_id == 0x42

    def test_periodical(self):
        codec = _codec()
        packet = _packet([(1024, 7)], mode=ForwardingMode.PERIODICAL)
        decoded = codec.decode(codec.encode(packet))
        assert decoded.mode == ForwardingMode.PERIODICAL

    def test_empty_items(self):
        codec = _codec()
        decoded = codec.decode(codec.encode(_packet([])))
        assert decoded.items == []
        assert decoded.item_count == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**48 - 1)),
            max_size=50,
        )
    )
    @settings(max_examples=25)
    def test_roundtrip_property(self, items):
        codec = _codec(seed=9)
        decoded = codec.decode(codec.encode(_packet(items)))
        assert decoded.items == items


class TestWireFormat:
    def test_sid_leads_the_packet(self):
        wire = _codec().encode(_packet([(0, 1)]))
        assert int.from_bytes(wire[0:2], "big") == SNATCH_SID
        assert AggregationCodec.is_aggregation_packet(wire)

    def test_regular_udp_not_matched(self):
        assert not AggregationCodec.is_aggregation_packet(b"\x00\x01hello")
        assert not AggregationCodec.is_aggregation_packet(b"")

    def test_payload_is_encrypted(self):
        wire = _codec().encode(_packet([(0xBEEF, 0xCAFE)]))
        assert b"\xbe\xef" not in wire[4:]

    def test_item_limits(self):
        with pytest.raises(ValueError, match="7 bits"):
            _codec().encode(_packet([(i, 0) for i in range(128)]))
        with pytest.raises(ValueError, match="16 bits"):
            _codec().encode(_packet([(0x10000, 0)]))
        with pytest.raises(ValueError, match="48 bits"):
            _codec().encode(_packet([(0, 2**48)]))


class TestValidation:
    def test_app_id_mismatch_on_encode(self):
        with pytest.raises(ValueError, match="does not match"):
            _codec(app_id=0x42).encode(_packet([], app_id=0x43))

    def test_app_id_mismatch_on_decode(self):
        wire = _codec(app_id=0x42).encode(_packet([(0, 1)]))
        with pytest.raises(ValueError, match="mismatch"):
            _codec(app_id=0x43).decode(wire)

    def test_sid_mismatch(self):
        wire = bytearray(_codec().encode(_packet([(0, 1)])))
        wire[0] ^= 0xFF
        with pytest.raises(ValueError, match="SID"):
            _codec().decode(bytes(wire))

    def test_truncated(self):
        with pytest.raises(ValueError, match="short"):
            _codec().decode(SNATCH_SID.to_bytes(2, "big") + b"\x42\x01")

    def test_tampered_ciphertext_rejected(self):
        wire = bytearray(_codec().encode(_packet([(0, 1), (1, 2)])))
        wire[-1] ^= 0xFF
        with pytest.raises(ValueError):
            _codec().decode(bytes(wire))

    def test_wrong_key_rejected(self):
        wire = _codec().encode(_packet([(0, 1)]))
        stranger = AggregationCodec(0x42, bytes(16), random.Random(2))
        with pytest.raises(ValueError):
            stranger.decode(wire)

    def test_invalid_app_id(self):
        with pytest.raises(ValueError):
            AggregationCodec(999, KEY)


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield
    finally:
        columns._FORCED = previous


class TestEncodeMany:
    def _packets(self):
        shared = _packet([(0, 1), (1, 2), (2, 3)])
        return [
            shared,
            _packet([]),
            _packet([(7, 2**48 - 1)], mode=ForwardingMode.PERIODICAL),
            shared,  # the same object again: serialised once, fresh IV
            _packet([(i, i * i) for i in range(40)]),
        ]

    def test_equals_encode_per_packet_and_rng_state(self, kernel_form):
        one, many = _codec(seed=5), _codec(seed=5)
        packets = self._packets()
        assert many.encode_many(packets) == [one.encode(p) for p in packets]
        assert many._rng.getstate() == one._rng.getstate()
        assert many.encode_many([]) == []

    def test_supplied_ivs_are_used_and_rng_untouched(self, kernel_form):
        drawer, codec = _codec(seed=5), _codec(seed=6)
        packets = self._packets()
        ivs = [drawer.draw_iv() for _ in packets]
        before = codec._rng.getstate()
        wires = codec.encode_many(packets, ivs)
        assert codec._rng.getstate() == before
        assert wires == _codec(seed=5).encode_many(packets)
        assert [w[4:20] for w in wires] == ivs
        with pytest.raises(ValueError):
            codec.encode_many(packets, ivs[:-1])

    @pytest.mark.parametrize("position", (0, 2, 4))
    def test_invalid_packet_raises_before_any_iv_is_drawn(self, position):
        codec = _codec(seed=5)
        before = codec._rng.getstate()
        packets = self._packets()
        packets[position] = _packet([(0, 2**48)])
        with pytest.raises(ValueError, match="48 bits"):
            codec.encode_many(packets)
        assert codec._rng.getstate() == before


def _old_stack(items):
    """The data-stack as built before items were packed as one integer."""
    return b"".join(
        tag.to_bytes(2, "big") + value.to_bytes(6, "big")
        for tag, value in items
    )


class TestItemsAsOneInteger:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0, 1, 0x7FFF, 0xFFFF)) | st.integers(0, 0xFFFF),
                st.sampled_from((0, 1, 2**47, 2**48 - 1))
                | st.integers(0, 2**48 - 1),
            ),
            max_size=127,
        ),
        st.sampled_from((ForwardingMode.PER_PACKET, ForwardingMode.PERIODICAL)),
    )
    @settings(max_examples=60)
    def test_stack_bytes_and_round_trip(self, items, mode):
        codec = _codec()
        header, stack = codec._serialise(_packet(items, mode=mode))
        assert stack == _old_stack(items)
        decoded = codec.packet_from_body(stack, header[3])
        assert decoded.items == items
        assert decoded.mode == mode

    def test_extremes_at_127_items(self):
        items = [(0xFFFF, 2**48 - 1)] * 127
        codec = _codec()
        header, stack = codec._serialise(_packet(items))
        assert stack == b"\xff" * (127 * 8) and header[3] == 127
        assert codec.packet_from_body(stack, 127).items == items
        # Leading zero items must survive the integer packing too.
        zeros = [(0, 0)] * 3 + [(0, 1)]
        assert codec._serialise(_packet(zeros))[1] == _old_stack(zeros)
        assert codec.packet_from_body(_old_stack(zeros), 4).items == zeros

    @pytest.mark.parametrize(
        "item, match",
        (
            ((0x10000, 0), "16 bits"),
            ((-1, 0), "16 bits"),
            ((0, 2**48), "48 bits"),
            ((0, -1), "48 bits"),
        ),
    )
    def test_range_errors_unchanged(self, item, match):
        with pytest.raises(ValueError, match=match):
            _codec()._serialise(_packet([(1, 1), item]))

    def test_body_errors_unchanged(self):
        codec = _codec()
        with pytest.raises(ValueError, match="corrupt data-stack length 12"):
            codec.packet_from_body(bytes(12), 1)
        with pytest.raises(ValueError, match="declared 3, decoded 2"):
            codec.packet_from_body(bytes(16), 3)


class TestDrawIv:
    @pytest.mark.parametrize("seed", (0, 1, 5, 2**40 + 3))
    def test_equals_sixteen_byte_draws_and_rng_state(self, seed):
        codec = _codec(seed=seed)
        reference = random.Random(seed)
        for _ in range(250):
            assert codec.draw_iv() == bytes(
                reference.getrandbits(8) for _ in range(16)
            )
            assert codec._rng.getstate() == reference.getstate()


class TestDrawIvs:
    """The batch draw is the same stream: ``m`` IVs in one
    ``getrandbits`` are the bytes, and leave the generator where, ``m``
    ``draw_iv()`` calls do."""

    @pytest.mark.parametrize("count", (1, 2, 1000))
    def test_equals_repeated_draw_iv_and_rng_state(self, count):
        one, many = _codec(seed=9), _codec(seed=9)
        one.draw_iv(), many.draw_iv()  # mid-stream, not from the seed
        assert many.draw_ivs(count) == b"".join(
            one.draw_iv() for _ in range(count)
        )
        assert many._rng.getstate() == one._rng.getstate()

    def test_no_ivs_leave_the_rng_alone(self):
        codec = _codec(seed=9)
        before = codec._rng.getstate()
        assert codec.draw_ivs(0) == b""
        assert codec._rng.getstate() == before


class TestSealRows:
    """``seal_rows`` is ``encode`` of the packet a wire row stands for,
    byte for byte, in both kernel forms."""

    WIDTH = 5

    def _rows(self):
        rng = random.Random(77)
        rows = [
            tuple(rng.randrange(2**20) for _ in range(self.WIDTH)),  # full
            (-1,) * self.WIDTH,  # zero items
            (2**48 - 1, -1, 0, -1, 2**48 - 1),
            (-1, -1, -1, -1, 7),
            (3, -1, -1, -1, -1),
        ]
        for _ in range(20):  # every item count, hence 3 payload lengths
            rows.append(tuple(
                rng.choice((-1, rng.randrange(2**48)))
                for _ in range(self.WIDTH)
            ))
        return rows

    @staticmethod
    def _expected(codec, rows, groups):
        return [
            codec.encode(_packet(
                [(i, w) for i, w in enumerate(rows[group]) if w >= 0]
            ))
            for group in groups
        ]

    @pytest.mark.parametrize("count", (0, 1, 7, 15, 16, 40, 1024))
    def test_equals_encode_per_packet_and_rng_state(self, kernel_form, count):
        rows = self._rows()
        rng = random.Random(count)
        groups = [rng.randrange(len(rows)) for _ in range(count)]
        one, many = _codec(seed=5), _codec(seed=5)
        sealed = many.seal_rows(rows, groups, many.draw_ivs(count))
        assert sealed == self._expected(one, rows, groups)
        assert many._rng.getstate() == one._rng.getstate()
        assert {len(p) for p in sealed} <= {36, 52, 68}

    @pytest.mark.parametrize("rows", (
        [(4, 5, 6)], [(-1, -1, -1)], [(1, -1, 2), (-1, -1, -1), (0, 0, 0)],
    ), ids=("full", "absent", "mixed"))
    def test_uniform_and_ragged_batches(self, kernel_form, rows):
        groups = [k % len(rows) for k in range(33)]
        one, many = _codec(seed=8), _codec(seed=8)
        assert many.seal_rows(
            rows, groups, many.draw_ivs(33)
        ) == self._expected(one, rows, groups)

    def test_the_widest_schema_a_packet_can_count(self, kernel_form):
        rows = [tuple(range(127)), (-1,) * 126 + (2**48 - 1,)]
        groups = [0, 1] * 10
        one, many = _codec(seed=2), _codec(seed=2)
        sealed = many.seal_rows(rows, groups, many.draw_ivs(20))
        assert sealed == self._expected(one, rows, groups)
        assert one.decode(sealed[0]).items[-1] == (126, 126)
        with pytest.raises(ValueError, match="too many items"):
            many.seal_rows([tuple(range(128))], [0], many.draw_ivs(1))

    def test_one_iv_per_payload(self, kernel_form):
        codec = _codec()
        for count in (1, 20):
            with pytest.raises(ValueError, match="one 16-byte IV"):
                codec.seal_rows([(1, 2)], [0] * count, bytes(16 * count + 1))
