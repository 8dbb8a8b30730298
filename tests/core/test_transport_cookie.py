"""Transport-layer semantic cookies in the QUIC connection ID."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import CookieSchema, Feature, FeatureValueError
from repro.core.transport_cookie import (
    APP_ID_BYTE_INDEX,
    COOKIE_BYTE_END,
    COOKIE_BYTE_START,
    ROW_KERNEL_MIN_ROWS,
    TransportCookieCodec,
)
from repro.switch import columns
from repro.quic.connection_id import ConnectionID, random_connection_id
from repro.quic.connection import SnatchConnectionIdPolicy

KEY = bytes(range(16))


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.categorical("age", ["18-24", "25-34", "35+"]),
            Feature.number("score", 0, 100),
        ),
    )


def _codec(app_id=0x42, seed=1):
    return TransportCookieCodec(
        app_id, _schema(), KEY, random.Random(seed)
    )


class TestEncode:
    def test_layout(self):
        cid = _codec().encode({"gender": "f"})
        raw = bytes(cid)
        assert len(raw) == 20
        assert raw[APP_ID_BYTE_INDEX] == 0x42

    def test_full_values_roundtrip(self):
        codec = _codec()
        values = {"gender": "m", "age": "35+", "score": 77}
        assert codec.decode(codec.encode(values)).values == values

    def test_partial_values_roundtrip(self):
        codec = _codec()
        decoded = codec.decode(codec.encode({"score": 5}))
        assert decoded.values == {"score": 5}
        assert not decoded.present("gender")

    def test_empty_values(self):
        codec = _codec()
        assert codec.decode(codec.encode({})).values == {}

    def test_unknown_feature_rejected(self):
        with pytest.raises(FeatureValueError, match="outside the schema"):
            _codec().encode({"ghost": 1})

    def test_out_of_range_aborted(self):
        with pytest.raises(FeatureValueError):
            _codec().encode({"score": 101})

    def test_cookie_bits_encrypted(self):
        """The same values encrypt to the same block (padding is random
        only beyond the used bits when the bit count is a multiple of 8
        -- so compare against the plaintext serialization instead)."""
        codec = _codec()
        cid = codec.encode({"gender": "f", "age": "18-24", "score": 0})
        block = bytes(cid)[2:18]
        # A plaintext encoding would start with bitmap 111 and zeros.
        assert block[0] != 0b11100000

    def test_schema_too_big_rejected(self):
        big = CookieSchema(
            "big", tuple(Feature.number("f%d" % i, 0, 2**30) for i in range(5))
        )
        with pytest.raises(ValueError, match="128"):
            TransportCookieCodec(0x1, big, KEY)

    def test_app_id_must_fit_byte(self):
        with pytest.raises(ValueError):
            TransportCookieCodec(256, _schema(), KEY)

    @given(
        st.sampled_from(["f", "m", "x"]),
        st.sampled_from(["18-24", "25-34", "35+"]),
        st.integers(0, 100),
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, gender, age, score):
        codec = _codec(seed=7)
        values = {"gender": gender, "age": age, "score": score}
        assert codec.decode(codec.encode(values)).values == values


class TestDecode:
    def test_matches_by_app_id(self):
        codec = _codec(app_id=0x42)
        cid = codec.encode({"gender": "f"})
        assert codec.matches(cid)
        other = _codec(app_id=0x43)
        assert not other.matches(cid)

    def test_decode_wrong_app_id_raises(self):
        codec = _codec(app_id=0x42)
        other = _codec(app_id=0x43, seed=2)
        cid = other.encode({"gender": "f"})
        with pytest.raises(ValueError, match="mismatch"):
            codec.decode(cid)

    def test_try_decode_returns_none_for_foreign_traffic(self):
        codec = _codec()
        assert codec.try_decode(random_connection_id(8)) is None

    def test_try_decode_wrong_key_aborts(self):
        """Stale or rotated keys produce garbage that fails feature
        range checks most of the time; try_decode must not raise."""
        codec = _codec()
        wrong = TransportCookieCodec(
            0x42, _schema(), bytes(16), random.Random(3)
        )
        aborted = 0
        for i in range(20):
            cid = codec.encode({"gender": "f", "age": "35+", "score": 50})
            if wrong.try_decode(cid) is None:
                aborted += 1
        assert aborted > 0

    def test_decode_wrong_length(self):
        with pytest.raises(ValueError, match="20 bytes"):
            _codec().decode(ConnectionID(b"\x00\x42" + bytes(6)))


def _block(bits: str) -> bytes:
    """A 16-byte plaintext block from a bit string, zero-padded."""
    return int(bits.ljust(128, "0"), 2).to_bytes(16, "big")


class TestRowsFromBlocks:
    """The batch parse: the wire row per decrypted block, ``None``
    exactly where ``values_from_block`` raises; values render from the
    row on demand."""

    def test_row_is_the_wire_encoding_of_the_values(self):
        codec = _codec()
        features = _schema().features
        cookies = [
            {"gender": "m", "age": "35+", "score": 77},
            {"score": 5},
            {"gender": "x", "score": 0},
            {},
        ]
        blocks = codec.pack_rows(codec.rows_from_values(cookies))
        decoded = codec.rows_from_blocks(blocks)
        assert [codec.values_from_row(row) for row in decoded] == cookies
        for values, block, row in zip(cookies, blocks, decoded):
            assert codec.values_from_block(block) == values
            assert row == tuple(
                f.encode_value(values[f.name]) if f.name in values else -1
                for f in features
            )
        assert decoded[1] == (-1, -1, 5)
        assert decoded[3] == (-1, -1, -1)

    def test_accepts_any_bytes_like_block(self):
        codec = _codec()
        block = codec.pack_rows(codec.rows_from_values([{"gender": "f"}]))[0]
        assert codec.rows_from_blocks(
            [bytearray(block), memoryview(block)]
        ) == codec.rows_from_blocks([block, block])

    @pytest.mark.parametrize(
        "bad",
        (
            # gender's 2-bit field holds 3: wire >= cardinality.
            _block("100" + "11"),
            # score's 7-bit field holds 101: first value out of range.
            _block("001" + "1100101"),
            # every bit set: all three fields out of range.
            b"\xff" * 16,
            # bitmap cut short: fewer bits than the schema has features.
            b"",
            # all features present, stack truncated mid-field.
            b"\xe0",
        ),
        ids=("class-out-of-range", "number-out-of-range", "all-ones",
             "partial-bitmap", "truncated-stack"),
    )
    def test_none_exactly_where_the_scalar_parse_raises(self, bad):
        codec = _codec()
        good = codec.pack_rows(
            codec.rows_from_values([{"gender": "f", "score": 100}])
        )[0]
        with pytest.raises(ValueError):
            codec.values_from_block(bad)
        decoded = codec.rows_from_blocks([good, bad, good])
        assert decoded[1] is None
        assert decoded[0] == decoded[2] == (0, -1, 100)

    def test_empty_batch(self):
        assert _codec().rows_from_blocks([]) == []


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield request.param
    finally:
        columns._FORCED = previous


# Row counts on both sides of the kernel cut: the numpy leg takes the
# Python forms below it, the numpy forms from it up.
ROW_COUNTS = (1, ROW_KERNEL_MIN_ROWS - 1, ROW_KERNEL_MIN_ROWS, 300)


def _rows(n, seed=4):
    rng = random.Random(seed)
    return [
        tuple(
            -1 if rng.random() < 0.3 else rng.randrange(f.cardinality)
            for f in _schema().features
        )
        for _ in range(n)
    ]


class TestRowKernelGuards:
    """What the row kernels must refuse rather than misread, in both
    forms: nothing is drawn, nothing is returned."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize(
        "bad,error",
        (
            ((0, -2, 5), FeatureValueError),      # below "absent"
            ((3, 0, 5), FeatureValueError),       # == cardinality
            ((0, 0, 1 << 70), FeatureValueError),  # past int64
            ((0, True, 5), FeatureValueError),    # a bool is not a wire
            ((0, 1.0, 5), FeatureValueError),
            ((0, 1), ValueError),                 # short row: no zip cut
            ((0, 1, 5, 0), ValueError),
        ),
        ids=("below-absent", "at-cardinality", "past-int64", "bool",
             "float", "short-row", "long-row"),
    )
    def test_pack_rejects_the_batch_and_draws_nothing(
        self, kernel_form, n, bad, error
    ):
        codec = _codec()
        rows = _rows(n)
        rows[n // 2] = bad
        state = codec.rng.getstate()
        with pytest.raises(error):
            codec.pack_rows(rows)
        assert codec.rng.getstate() == state

    def test_empty_batches_touch_nothing(self, kernel_form):
        codec = _codec()
        state = codec.rng.getstate()
        assert codec.pack_rows([]) == []
        assert codec.pack_rows(iter(())) == []
        assert codec.rows_from_blocks([]) == []
        assert codec.pack_rows(codec.rows_from_values([])) == []
        assert codec.rng.getstate() == state

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("size", (0, 1, 15, 17, 32))
    def test_a_block_of_another_size_is_none(self, kernel_form, n, size):
        codec = _codec()
        rows = _rows(n)
        blocks = codec.pack_rows(rows)
        blocks.insert(n // 2, bytes(size))
        expected = list(rows)
        expected.insert(n // 2, None)
        assert codec.rows_from_blocks(blocks) == expected

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_both_forms_pack_the_same_bytes(self, n):
        """Same rows, same RNG state: same blocks and the same RNG
        state afterwards, whichever form packed them."""
        outcomes = []
        for numpy_on in (True, False):
            codec = _codec(seed=9)
            columns.force_numpy(numpy_on)
            try:
                blocks = codec.pack_rows(_rows(n))
            finally:
                columns.force_numpy(None)
            outcomes.append((blocks, codec.rng.getstate()))
        assert outcomes[0] == outcomes[1]

    def test_rows_from_values_then_pack(self, kernel_form):
        cookies = [{"gender": "m", "score": 7}, {}, {"age": "35+"}]
        codec = _codec(seed=3)
        rows = codec.rows_from_values(cookies)
        assert rows == [(1, -1, 7), (-1, -1, -1), (-1, 2, -1)]
        blocks = codec.pack_rows(rows)
        assert [codec.values_from_block(b) for b in blocks] == cookies
        with pytest.raises(FeatureValueError, match="outside the schema"):
            codec.pack_rows(codec.rows_from_values([{"height": 3}]))
        with pytest.raises(FeatureValueError, match="not a class"):
            codec.pack_rows(codec.rows_from_values([{"gender": "q"}]))


class TestClientPolicyCompatibility:
    def test_regenerated_cid_still_decodes(self):
        """The Snatch 1-RTT client keeps bytes [1, 18); decoding must
        not depend on the regenerated DCID/DCID-R2 bytes."""
        codec = _codec()
        values = {"gender": "x", "age": "25-34", "score": 99}
        original = codec.encode(values)
        policy = SnatchConnectionIdPolicy(
            cookie_start=COOKIE_BYTE_START,
            cookie_end=COOKIE_BYTE_END,
            rng=random.Random(4),
        )
        regenerated = policy.next_initial_dcid(original)
        assert bytes(regenerated)[0:1] != bytes(original)[0:1] or True
        assert codec.decode(regenerated).values == values

    def test_preserved_range_covers_app_id_and_block(self):
        assert COOKIE_BYTE_START == 1
        assert COOKIE_BYTE_END == 18
