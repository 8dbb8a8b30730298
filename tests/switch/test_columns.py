"""Kernel-level parity tests for the columnar substrate.

The differential suite proves end-to-end bit-identity; these unit tests
pin the individual kernels — :class:`PacketColumns` layout (including
the uniform-length fast path), byte/be16 column extraction,
:func:`group_rows` duplicate grouping, :func:`crc32_many` and Bloom
``add_many`` — against their scalar counterparts, with numpy on and
force-disabled.
"""

import random

import pytest

from repro.switch.bloom import BloomFilter
from repro.switch.columns import (
    PacketColumns,
    force_numpy,
    group_rows,
    numpy_enabled,
)
from repro.switch.hashing import crc32, crc32_many


@pytest.fixture
def no_numpy():
    force_numpy(False)
    try:
        yield
    finally:
        force_numpy(None)


def _rows_uniform(n=40, width=20, seed=5):
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(width)) for _ in range(n)]


def _rows_ragged(n=40, seed=6):
    rng = random.Random(seed)
    return [
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 25)))
        for _ in range(n)
    ]


# -- PacketColumns -----------------------------------------------------------


@pytest.mark.parametrize("make_rows", (_rows_uniform, _rows_ragged))
def test_packet_columns_layout(make_rows):
    """Rows round-trip through the padded matrix, both the uniform
    join+reshape fast path and the per-row ragged fill."""
    rows = make_rows()
    columns = PacketColumns(rows)
    assert columns.n == len(rows)
    assert columns.raw == rows
    assert list(columns.lengths) == [len(r) for r in rows]
    assert columns.max_len == max(len(r) for r in rows)
    if columns.vectorized:
        for i, row in enumerate(rows):
            assert bytes(columns.data[i, : len(row)]) == row
            assert not columns.data[i, len(row):].any(), "padding not zero"


def test_packet_columns_empty_and_no_numpy(no_numpy):
    empty = PacketColumns([])
    assert empty.n == 0 and empty.max_len == 0
    columns = PacketColumns(_rows_ragged())
    assert not columns.vectorized
    assert columns.data is None
    assert columns.lengths == [len(r) for r in columns.raw]


@pytest.mark.parametrize("make_rows", (_rows_uniform, _rows_ragged))
@pytest.mark.parametrize("index", (0, 2, 19, 24, 40))
def test_byte_column_matches_scalar(make_rows, index):
    rows = make_rows()
    got = list(PacketColumns(rows).byte_column(index, default=-1))
    assert got == [
        row[index] if len(row) > index else -1 for row in rows
    ]


@pytest.mark.parametrize("make_rows", (_rows_uniform, _rows_ragged))
@pytest.mark.parametrize("index", (0, 3, 18, 23, 40))
def test_be16_column_matches_scalar(make_rows, index):
    rows = make_rows()
    got = list(PacketColumns(rows).be16_column(index, default=0))
    assert got == [
        int.from_bytes(row[index:index + 2], "big")
        if len(row) >= index + 2 else 0
        for row in rows
    ]


def test_columns_match_without_numpy(no_numpy):
    rows = _rows_ragged()
    columns = PacketColumns(rows)
    assert list(columns.byte_column(2)) == [
        row[2] if len(row) > 2 else -1 for row in rows
    ]
    assert list(columns.be16_column(0)) == [
        int.from_bytes(row[0:2], "big") if len(row) >= 2 else 0
        for row in rows
    ]


# -- group_rows --------------------------------------------------------------


def _reference_grouping(rows, start, end, indexes=None):
    """Length-disambiguated dict scan: (keys, lengths, inverse) with
    groups numbered by first occurrence."""
    seen, keys, lengths, inverse = {}, [], [], []
    for i in range(len(rows)) if indexes is None else indexes:
        row = rows[i]
        sliced = row[start:end] if end is not None else row[start:]
        k = (len(row), sliced)
        if k not in seen:
            seen[k] = len(keys)
            keys.append(sliced)
            lengths.append(len(row))
        inverse.append(seen[k])
    return keys, lengths, inverse


def _pool_rows(n, seed, width=20, pool=6):
    rng = random.Random(seed)
    cookies = [
        bytes(rng.getrandbits(8) for _ in range(width)) for _ in range(pool)
    ]
    return [cookies[rng.randrange(pool)] for _ in range(n)]


@pytest.mark.parametrize("start,end", ((0, None), (1, 18), (2, 10), (5, 5)))
def test_group_rows_matches_scalar_scan(start, end):
    # duplicates, truncations (same prefix, different length), and
    # rows shorter than the slice
    rows = _pool_rows(60, seed=9)
    rows += [row[:7] for row in rows[:5]] + [b"", b"\x00"]
    assert group_rows(rows, start, end) == _reference_grouping(
        rows, start, end
    )


def test_group_rows_length_disambiguates():
    """A truncated row whose slice matches a full row's must not share
    its group (a short cookie aliasing a full one would poison the
    decode memo)."""
    full = bytes(range(20))
    rows = [full, full[:10], full]
    keys, lengths, inverse = group_rows(rows, 0, 8)
    assert inverse == [0, 1, 0]
    assert keys == [full[:8], full[:8]]
    assert lengths == [20, 10]


def test_group_rows_no_numpy_identical(no_numpy):
    rows = _pool_rows(30, seed=11, pool=4)
    assert group_rows(rows, 1, 18) == _reference_grouping(rows, 1, 18)
    assert group_rows(PacketColumns(rows), 1, 18) == _reference_grouping(
        rows, 1, 18
    )


def _matrix(rows):
    """A matrix-built batch (no per-row bytes held), zero-padded."""
    import numpy as np

    width = max(map(len, rows))
    data = np.frombuffer(
        b"".join(row.ljust(width, b"\0") for row in rows), dtype=np.uint8
    ).reshape(len(rows), width)
    return PacketColumns.from_matrix(data, [len(row) for row in rows])


@pytest.mark.parametrize("n", (1, 7, 15, 16, 40, 1024))
@pytest.mark.parametrize("start,end", ((1, 18), (0, None), (19, 30), (25, 30)))
def test_group_rows_one_grouping_whatever_the_batch_is_built_from(
    n, start, end
):
    """Row list, rows-built columns (below and above VECTOR_MIN_ROWS),
    uniform matrix and ragged matrix: the same (keys, lengths,
    inverse), for the whole batch and for an index subset."""
    uniform = _pool_rows(n, seed=n)
    ragged = list(uniform)
    for i in range(0, n, 3):
        ragged[i] = ragged[i][:10 + i % 4]
    subset = list(range(0, n, 2))
    for rows in (uniform, ragged):
        forms = [rows, PacketColumns(rows)]
        if numpy_enabled():
            forms.append(_matrix(rows))
        for indexes in (None, subset):
            want = _reference_grouping(rows, start, end, indexes)
            for form in forms:
                assert group_rows(form, start, end, indexes) == want


def test_group_rows_uniform_matrix_never_materialises_raw():
    if not numpy_enabled():
        pytest.skip("matrix-built batches need numpy")
    rows = _pool_rows(64, seed=3)
    columns = _matrix(rows)
    want = _reference_grouping(rows, 1, 18)
    assert group_rows(columns, 1, 18) == want
    assert group_rows(columns, 1, 18, list(range(5, 60))) == (
        _reference_grouping(rows, 1, 18, list(range(5, 60)))
    )
    assert columns._raw is None
    # A ragged matrix has to: its rows' lengths are part of the key.
    ragged = [row[:12] if i % 5 == 0 else row for i, row in enumerate(rows)]
    columns = _matrix(ragged)
    assert group_rows(columns, 1, 18) == _reference_grouping(ragged, 1, 18)
    assert columns._raw is not None


def test_group_rows_takes_bytes_likes():
    rows = [bytearray(b"abcdef"), memoryview(b"abcdef"), b"abcdeX"]
    assert group_rows(rows, 0, 5) == ([b"abcde"], [6], [0, 0, 0])


# -- hashing / bloom / sketch kernels ---------------------------------------


def test_crc32_many_matches_scalar():
    rows = _rows_ragged(n=50, seed=13)
    assert [int(v) for v in crc32_many(rows)] == [crc32(r) for r in rows]
    columns = PacketColumns(rows)
    assert [int(v) for v in crc32_many(columns)] == [crc32(r) for r in rows]


def test_bloom_add_many_matches_sequential_add():
    rng = random.Random(17)
    keys = [
        bytes(rng.getrandbits(8) for _ in range(12)) for _ in range(80)
    ]
    keys += keys[:20]  # duplicates within the batch
    seq = BloomFilter(size_bits=4096, num_hashes=3, name="seq")
    vec = BloomFilter(size_bits=4096, num_hashes=3, name="vec")
    expected = [seq.add(k) for k in keys]
    assert vec.add_many(keys) == expected


def test_kernels_match_without_numpy(no_numpy):
    assert not numpy_enabled()
    rows = _rows_ragged(n=30, seed=23)
    assert list(crc32_many(rows)) == [crc32(r) for r in rows]
