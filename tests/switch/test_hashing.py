"""Hash units: CRC check values, range discipline."""

import random
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.switch import columns
from repro.switch.columns import (
    VECTOR_MIN_ROWS, PacketColumns, force_numpy, get_numpy,
)
from repro.switch.hashing import HashUnit, crc32, crc32_many

# CRC-32/ISO-HDLC catalogue values.
CRC32_VECTORS = [
    (b"", 0x00000000),
    (b"a", 0xE8B7BE43),
    (b"abc", 0x352441C2),
    (b"123456789", 0xCBF43926),
    (b"The quick brown fox jumps over the lazy dog", 0x414FA339),
]


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield request.param
    finally:
        columns._FORCED = previous


class TestCrc32:
    def test_check_value(self):
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0

    @given(st.binary(max_size=128))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    @pytest.mark.parametrize("data,expected", CRC32_VECTORS)
    def test_catalogue_value(self, data, expected):
        assert crc32(data) == expected

    def test_many_matches_catalogue(self, kernel_form):
        """The vectors repeated past the row count at which the batch
        kernel takes its matrix form, ragged lengths included."""
        rows = [data for data, _ in CRC32_VECTORS] * 4
        assert len(rows) >= VECTOR_MIN_ROWS
        expected = [crc for _, crc in CRC32_VECTORS] * 4
        assert [int(v) for v in crc32_many(rows)] == expected
        assert [int(v) for v in crc32_many(PacketColumns(rows))] == expected


@st.composite
def ragged_batches(draw):
    """Rows of 0..width bytes, width 0..200: empty rows, all-empty
    batches, and keys wider than the 64 position tables built first."""
    width = draw(st.integers(0, 200))
    return draw(st.lists(st.binary(max_size=width), max_size=40))


def _padded_matrix(np, rows, fill):
    """The rows as a from_matrix batch whose bytes past each row's
    length are ``fill``, not zero."""
    width = max(map(len, rows), default=0)
    flat = b"".join(row.ljust(width, bytes([fill])) for row in rows)
    matrix = np.frombuffer(flat, dtype=np.uint8).reshape(len(rows), width)
    return PacketColumns.from_matrix(matrix, [len(row) for row in rows])


class TestCrc32ManyProperties:
    """``crc32_many`` == ``zlib.crc32`` row by row, whatever the batch
    shape, under both kernel forms."""

    @pytest.mark.parametrize("numpy_on", (True, False),
                             ids=("numpy", "python"))
    @given(rows=ragged_batches(), fill=st.integers(1, 255))
    @example(rows=[], fill=1)
    @example(rows=[b""] * (VECTOR_MIN_ROWS + 3), fill=7)
    @example(rows=[b"\x00" * 200, b"", b"\xff" * 65], fill=255)
    @settings(max_examples=60, deadline=None)
    def test_matches_zlib_per_row(self, numpy_on, rows, fill):
        expected = [zlib.crc32(row) for row in rows]
        force_numpy(numpy_on)
        try:
            assert [int(v) for v in crc32_many(rows)] == expected
            np = get_numpy()
            if np is not None:
                # Matrix form at any row count, garbage past lengths.
                batch = _padded_matrix(np, rows, fill)
                assert [int(v) for v in crc32_many(batch)] == expected
        finally:
            force_numpy(None)

    @pytest.mark.parametrize("numpy_on", (True, False),
                             ids=("numpy", "python"))
    @given(
        rows=ragged_batches(),
        start=st.integers(0, 30),
        stop=st.one_of(st.none(), st.integers(0, 210)),
    )
    @settings(max_examples=60, deadline=None)
    def test_region_hashes_as_the_sliced_rows(
        self, numpy_on, rows, start, stop
    ):
        expected = [zlib.crc32(row[start:stop]) for row in rows]
        force_numpy(numpy_on)
        try:
            got = crc32_many(PacketColumns(rows), start, stop)
            assert [int(v) for v in got] == expected
            np = get_numpy()
            if np is not None:
                batch = _padded_matrix(np, rows, 0xA5)
                got = crc32_many(batch, start, stop)
                assert [int(v) for v in got] == expected
        finally:
            force_numpy(None)


class TestHashUnit:
    def test_range_respected(self):
        unit = HashUnit(100)
        for i in range(200):
            assert 0 <= unit.hash(i.to_bytes(4, "big")) < 100

    def test_seeds_give_independent_functions(self):
        a = HashUnit(1 << 16, seed=1)
        b = HashUnit(1 << 16, seed=2)
        same = sum(
            a.hash(i.to_bytes(4, "big")) == b.hash(i.to_bytes(4, "big"))
            for i in range(256)
        )
        assert same < 16  # collisions should be rare

    def test_deterministic(self):
        unit = HashUnit(1000, seed=3)
        assert unit.hash(b"key") == unit.hash(b"key")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HashUnit(0)

    def test_large_seed_accepted(self):
        unit = HashUnit(10, seed=3 * 0x9E3779B9)
        assert 0 <= unit.hash(b"x") < 10


def _ragged_rows(n, seed):
    rng = random.Random(seed)
    return [
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 24)))
        for _ in range(n)
    ]


class TestHashMany:
    """``mix_many`` over one ``crc32_many`` pass (what Bloom
    ``add_many`` runs) against :meth:`HashUnit.hash` row by row, in
    both kernel forms."""

    # The largest seed makes the finalizer's multiplier 34 bits wide,
    # so the uint64 products wrap: the low 32 bits must survive that.
    @pytest.mark.parametrize("seed", (0, 1, 3 * 0x9E3779B9, 0xFFFFFFFF))
    def test_matches_scalar_hash(self, kernel_form, seed):
        rows = _ragged_rows(64, seed)
        unit = HashUnit(4093, seed=seed)
        assert [int(v) for v in unit.mix_many(crc32_many(rows))] == [
            unit.hash(r) for r in rows
        ]

    @pytest.mark.parametrize("output_range", (1, 1000, 1 << 32))
    def test_output_range_respected(self, kernel_form, output_range):
        rows = _ragged_rows(48, output_range % 97)
        unit = HashUnit(output_range, seed=7)
        hashed = [int(v) for v in unit.mix_many(crc32_many(rows))]
        assert all(0 <= h < output_range for h in hashed)
        assert hashed == [unit.hash(r) for r in rows]

    @pytest.mark.parametrize("n", (0, 1, VECTOR_MIN_ROWS - 1))
    def test_batches_below_the_matrix_form(self, kernel_form, n):
        rows = _ragged_rows(n, n + 11)
        unit = HashUnit(1 << 12, seed=5)
        assert [int(v) for v in unit.mix_many(crc32_many(rows))] == [
            unit.hash(r) for r in rows
        ]


class TestRowIndependence:
    def test_colliding_pairs_do_not_collide_in_every_row(self):
        """Regression: CRC is linear, so naive seed-prefixing makes a
        pair that collides under one seed collide under *all* seeds,
        collapsing multi-hash structures (Bloom filters) to one hash.
        The finalizer must break that correlation."""
        m = 1 << 12
        units = [HashUnit(m, seed=i * 0x9E3779B9 + 1) for i in range(3)]
        keys = [i.to_bytes(8, "big") for i in range(3000)]
        hashes = [[u.hash(k) for u in units] for k in keys]
        joint = 0
        single = 0
        for i in range(0, len(keys) - 1, 2):
            a, b = hashes[i], hashes[i + 1]
            if a[0] == b[0]:
                single += 1
                if a[1] == b[1] and a[2] == b[2]:
                    joint += 1
        # Some single-row collisions happen by chance; full-row joint
        # collisions must be (essentially) absent.
        assert joint == 0
