"""Schema-generative properties of the codec's row kernels.

``pack_rows`` and ``rows_from_blocks`` each have a Python form and a
numpy form (from ``ROW_KERNEL_MIN_ROWS`` rows up); the scalar
``encode_block`` / ``values_from_block`` pair is the reference for
both.  Hypothesis draws the schema — feature count, categorical
cardinalities around powers of two, signed / single-value / wide
numeric ranges, totals up to exactly 128 bits with fields that straddle
the two 64-bit words — and the rows (any presence bitmap, all-absent
included).  Every property runs once per kernel form whatever the
ambient gate; the numpy form is fed the drawn rows tiled past the cut.
The pack also takes its rows as one int64 matrix, which must give the
list's blocks, draws and rejections.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.schema import CookieSchema, Feature, FeatureValueError
from repro.core.transport_cookie import (
    ROW_KERNEL_MIN_ROWS,
    TransportCookieCodec,
)
from repro.switch import columns

KEY = bytes(range(16))
FORMS = pytest.mark.parametrize(
    "numpy_on",
    (
        pytest.param(
            True,
            id="numpy",
            marks=pytest.mark.skipif(
                not columns.HAVE_NUMPY, reason="numpy not installed"
            ),
        ),
        pytest.param(False, id="python"),
    ),
)
BUDGET = settings(max_examples=120, deadline=None)
NEEDS_NUMPY = pytest.mark.skipif(
    not columns.HAVE_NUMPY, reason="wire matrices are numpy arrays"
)


@contextmanager
def kernel_form(numpy_on):
    previous = columns._FORCED
    columns.force_numpy(numpy_on)
    try:
        yield
    finally:
        columns._FORCED = previous


def _codec(schema, seed=5):
    return TransportCookieCodec(0x42, schema, KEY, random.Random(seed))


def _encrypted_blocks(encrypted, numpy_on):
    """``encrypt_rows``' result as a list of 16-byte blocks: one
    ``(m, 16)`` uint8 matrix with the numpy gate open, a list with it
    closed."""
    if not numpy_on:
        assert isinstance(encrypted, list)
        return encrypted
    assert encrypted.dtype == "uint8" and encrypted.shape[1:] == (16,)
    flat = encrypted.tobytes()
    return [flat[i:i + 16] for i in range(0, len(flat), 16)]


def _fits_int64(rows):
    return all(-(1 << 63) <= wire < (1 << 63) for row in rows for wire in row)


def _matrix(rows, width):
    import numpy

    return numpy.array(rows, dtype=numpy.int64).reshape(len(rows), width)


def _tile(items, numpy_on):
    """The drawn items, repeated past the kernel cut for the numpy
    form (the Python form takes them as drawn)."""
    if not numpy_on:
        return list(items)
    repeats = -(-ROW_KERNEL_MIN_ROWS // len(items))
    return list(items) * repeats


# -- strategies ---------------------------------------------------------------

# 2, and 2**k - 1 / 2**k / 2**k + 1: the cardinalities where the wire
# width changes and where the top wire values are invalid.
_CLASS_CARDINALITIES = (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)


@st.composite
def _features(draw, index, max_bits):
    name = "f%d" % index
    if draw(st.booleans()):
        fits = [
            c for c in _CLASS_CARDINALITIES
            if (c - 1).bit_length() <= max_bits
        ]
        return Feature.categorical(
            name,
            ["%s-%d" % (name, j) for j in range(draw(st.sampled_from(fits)))],
        )
    # Single-value ranges (one wire bit, only wire 0 valid), then
    # cardinalities around each power of two; past 62 bits the field
    # no longer fits the numpy forms' int64.
    bits = draw(st.integers(0, max_bits))
    cardinality = 1 if bits == 0 else draw(st.sampled_from(sorted({
        (1 << bits) - 1 if bits > 1 else 2,
        1 << bits,
        (1 << (bits - 1)) + 1,
    })))
    low = draw(st.integers(-(1 << 40), 1 << 40))
    return Feature.number(name, low, low + cardinality - 1)


@st.composite
def schemas(draw):
    """1-12 features within the 128-bit budget; half the time topped
    up to exactly 128 bits with <= 62-bit numeric fields."""
    features = []
    left = 128
    # One schema in four may hold a field past the numpy forms' reach.
    wide = draw(st.integers(0, 3)) == 0
    for index in range(draw(st.integers(1, 12))):
        if left < 2:
            break
        limit = min(left - 1, 100 if wide else 62)
        feature = draw(_features(index, limit))
        features.append(feature)
        left -= 1 + feature.bits
    if draw(st.booleans()):
        while left >= 2 and len(features) < 12:
            bits = min(left - 1, 62)
            features.append(
                Feature.number("pad%d" % len(features), 0, (1 << bits) - 1)
            )
            left -= 1 + bits
    return CookieSchema("prop", tuple(features))


def _rows(schema):
    return st.lists(
        st.tuples(*[
            st.one_of(
                st.just(-1),
                st.sampled_from([0, f.cardinality - 1]),
                st.integers(0, f.cardinality - 1),
            )
            for f in schema.features
        ]),
        min_size=1, max_size=6,
    )


@st.composite
def schema_and_rows(draw):
    schema = draw(schemas())
    return schema, draw(_rows(schema))


# Exactly 128 bits: 2 features x (1 + 63); the second field starts at
# bit 65 from the top, the first straddles the word boundary.  63-bit
# fields take the Python forms at every batch size.
_FULL_63 = CookieSchema(
    "full", (Feature.number("a", 0, (1 << 63) - 1),
             Feature.number("b", -5, (1 << 63) - 6)),
)
# Exactly 128 bits within the numpy forms' reach: 62 + 62 + 1 stack
# bits, 3 bitmap bits; "b" straddles bit 64.
_FULL_62 = CookieSchema(
    "full", (Feature.number("a", 0, (1 << 62) - 1),
             Feature.number("b", -9, (1 << 62) - 10),
             Feature.categorical("c", ("x", "y"))),
)


# -- properties ---------------------------------------------------------------

@FORMS
@BUDGET
@given(schema_and_rows())
@example((_FULL_63, [((1 << 63) - 1, 0), (-1, (1 << 63) - 1), (-1, -1)]))
@example((_FULL_62, [((1 << 62) - 1, (1 << 62) - 1, 1), (-1, 5, -1),
                     (0, -1, 0)]))
def test_pack_agrees_with_scalar_encode_and_round_trips(numpy_on, case):
    schema, drawn = case
    codec = _codec(schema)
    reference = _codec(schema, seed=6)
    rows = _tile(drawn, numpy_on)
    with kernel_form(numpy_on):
        blocks = codec.pack_rows(rows)
        assert codec.rows_from_blocks(blocks) == rows
    assert [len(block) for block in blocks] == [16] * len(rows)
    scalar = {}
    for row in drawn:
        values = codec.values_from_row(row)
        used = len(row) + sum(
            f.bits for f, wire in zip(schema.features, row) if wire >= 0
        )
        scalar[row] = (values, used, reference.encode_block(values))
    for row, block in zip(rows, blocks):
        values, used, expected = scalar[row]
        # Everything above the random padding is the scalar encoder's.
        assert (
            int.from_bytes(block, "big") >> (128 - used)
            == int.from_bytes(expected, "big") >> (128 - used)
        )
        assert codec.values_from_block(block) == values


@FORMS
@BUDGET
@given(st.data())
def test_parse_is_none_exactly_where_the_scalar_parse_raises(numpy_on, data):
    """Arbitrary 16-byte blocks: any bitmap, any field contents."""
    schema = data.draw(schemas())
    codec = _codec(schema)
    drawn = data.draw(
        st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=6)
    )
    blocks = _tile(drawn, numpy_on)
    with kernel_form(numpy_on):
        rows = codec.rows_from_blocks(blocks)
    for block, row in zip(blocks, rows):
        try:
            values = codec.values_from_block(block)
        except FeatureValueError:
            assert row is None
        else:
            assert codec.values_from_row(row) == values


@st.composite
def out_of_range_cases(draw):
    """(schema, rows, column, wire, position, tile): ``wire`` is out of
    range for ``schema.features[column]`` and replaces that column of
    ``rows[position]`` (in copy ``tile`` of the rows, where the numpy
    form tiles them)."""
    schema, drawn = draw(schema_and_rows())
    column = draw(st.integers(0, len(schema.features) - 1))
    feature = schema.features[column]
    # 1 << 70 is a legal wire of a 71-bit field (_WIDE_71 below).
    wire = draw(st.sampled_from([
        wire for wire in (
            -2, -(1 << 70), feature.cardinality, feature.cardinality + 1,
            (1 << feature.bits), 1 << 70,
        )
        if wire < -1 or wire >= feature.cardinality
    ]))
    position = draw(st.integers(0, len(drawn) - 1))
    return schema, drawn, column, wire, position, draw(st.integers(0, 63))


# The schema on which Hypothesis found 1 << 70 to be a *valid* wire
# (seven features, column 1 a 71-bit range): its cardinality is
# 2**70 + 1, so that is the first wire out of range.
_WIDE_71 = CookieSchema(
    "wide71",
    (Feature.categorical("f0", ("a", "b", "c")),
     Feature.number("f1", 0, 1 << 70))
    + tuple(Feature.number("f%d" % i, -3, 4) for i in range(2, 7)),
)


def test_the_top_wire_of_a_71_bit_field_is_legal():
    codec = _codec(_WIDE_71)
    row = (1, 1 << 70, 0, -1, 7, -1, 3)
    assert codec.rows_from_blocks(codec.pack_rows([row])) == [row]


@FORMS
@BUDGET
@given(out_of_range_cases())
@example((_WIDE_71, [(1, 0, 0, -1, 7, -1, 3)], 1, (1 << 70) + 1, 0, 0))
def test_out_of_range_wires_are_rejected_before_any_draw(numpy_on, case):
    schema, drawn, column, wire, position, tile = case
    codec = _codec(schema)
    feature = schema.features[column]
    assert wire < -1 or wire >= feature.cardinality
    rows = _tile(drawn, numpy_on)
    position += tile % (len(rows) // len(drawn)) * len(drawn)
    bad = list(rows[position])
    bad[column] = wire
    rows[position] = tuple(bad)
    state = codec.rng.getstate()
    with kernel_form(numpy_on):
        with pytest.raises(FeatureValueError, match=feature.name):
            codec.pack_rows(rows)
    assert codec.rng.getstate() == state
    if columns.HAVE_NUMPY and _fits_int64(rows):
        # The same rows as one int64 matrix: the same rejection.
        matrix = _matrix(rows, len(schema.features))
        with kernel_form(numpy_on):
            for pack in (codec.pack_rows, codec.encrypt_rows):
                with pytest.raises(FeatureValueError, match=feature.name):
                    pack(matrix)
        assert codec.rng.getstate() == state
    if feature.cardinality <= wire < (1 << feature.bits):
        # The wire fits its field, so a block can carry it: pack it
        # under the same layout with the range opened up, then parse.
        opened = list(schema.features)
        opened[column] = Feature.number(
            feature.name, 0, (1 << feature.bits) - 1
        )
        wide = _codec(CookieSchema("wide", tuple(opened)))
        with kernel_form(numpy_on):
            parsed = codec.rows_from_blocks(wide.pack_rows(rows))
        assert parsed[position] is None
        with pytest.raises(FeatureValueError):
            codec.values_from_block(wide.pack_rows([rows[position]])[0])


@NEEDS_NUMPY
@FORMS
@BUDGET
@given(schema_and_rows())
@example((_FULL_62, [((1 << 62) - 1, (1 << 62) - 1, 1), (-1, 5, -1),
                     (0, -1, 0)]))
def test_a_wire_matrix_packs_like_its_rows(numpy_on, case):
    """A list of rows and the same rows as an int64 matrix: the same
    plaintext blocks, the same encrypted blocks, the same draws."""
    schema, drawn = case
    assume(_fits_int64(drawn))
    rows = _tile(drawn, numpy_on)
    matrix = _matrix(rows, len(schema.features))
    listed, stacked = _codec(schema), _codec(schema)
    with kernel_form(numpy_on):
        blocks = listed.pack_rows(rows)
        assert stacked.pack_rows(matrix) == blocks
        assert stacked.rng.getstate() == listed.rng.getstate()
        encrypted = _encrypted_blocks(listed.encrypt_rows(rows), numpy_on)
        assert _encrypted_blocks(
            stacked.encrypt_rows(matrix), numpy_on
        ) == encrypted
        assert stacked.rng.getstate() == listed.rng.getstate()
    # encrypt_rows is the pack, then AES block by block: a fresh codec
    # replays ``listed``'s two packs.
    reference = _codec(schema)
    assert reference.pack_rows(rows) == blocks
    assert [
        reference.aes.encrypt_block(block)
        for block in reference.pack_rows(rows)
    ] == encrypted


@NEEDS_NUMPY
@FORMS
@pytest.mark.parametrize("rows", (1, ROW_KERNEL_MIN_ROWS, 300))
def test_a_malformed_wire_matrix_is_rejected_before_any_draw(numpy_on, rows):
    import numpy

    codec = _codec(_FULL_62)
    good = numpy.zeros((rows, 3), dtype=numpy.int64)
    cases = [
        (good.astype(numpy.int32), FeatureValueError),
        (good.astype(numpy.uint64), FeatureValueError),
        (good.astype(numpy.float64), FeatureValueError),
        (good.astype(bool), FeatureValueError),
        (good.astype(">i8"), FeatureValueError),
        (good[:, :2], ValueError),
        (numpy.zeros((rows, 4), dtype=numpy.int64), ValueError),
        (good.ravel(), ValueError),
        (good.reshape(rows, 3, 1), ValueError),
    ]
    state = codec.rng.getstate()
    with kernel_form(numpy_on):
        for matrix, error in cases:
            for pack in (codec.pack_rows, codec.encrypt_rows):
                with pytest.raises(error):
                    pack(matrix)
        assert codec.rng.getstate() == state
        # The well-formed matrix draws, and packs like its rows.
        assert codec.pack_rows(good) == _codec(_FULL_62).pack_rows(
            [(0, 0, 0)] * rows
        )
