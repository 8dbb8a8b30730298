"""Batched AES: the numpy round kernel and the ``*_many`` entry points
against the scalar cipher, under both kernel forms."""

import random

import pytest

from repro.crypto import aes
from repro.crypto.aes import (
    AES,
    decrypt_blocks_many,
    decrypt_cbc,
    decrypt_cbc_many,
    encrypt_blocks_many,
    encrypt_cbc,
    encrypt_cbc_many,
)
from repro.switch import columns

from tests.crypto.test_aes import (
    FIPS_VECTORS,
    SP800_IV,
    SP800_PLAIN,
    SP800_VECTORS,
)

SIZES = (1, 2, 15, 16, 17, 1024)


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield request.param
    finally:
        columns._FORCED = previous


def _bytes(rng, n):
    return bytes(rng.getrandbits(8) for _ in range(n))


class TestRoundKernel:
    """``_rounds`` itself (numpy only): FIPS-197 appendix C vectors and
    the scalar cipher as the differential reference."""

    @pytest.fixture(autouse=True)
    def numpy_on(self):
        if not columns.HAVE_NUMPY:
            pytest.skip("numpy not installed")
        previous = columns._FORCED
        columns.force_numpy(True)
        try:
            yield
        finally:
            columns._FORCED = previous

    @staticmethod
    def _run(cipher, blocks, decrypt):
        np = columns.get_numpy()
        state = np.frombuffer(b"".join(blocks), dtype=np.uint8)
        flat = aes._rounds(cipher, state.reshape(len(blocks), 16), decrypt)
        assert flat.dtype == np.uint8 and flat.shape == (len(blocks), 16)
        flat = flat.tobytes()
        return [flat[i:i + 16] for i in range(0, len(flat), 16)]

    @pytest.mark.parametrize("key,plain,cipher", FIPS_VECTORS)
    def test_fips_vectors_both_directions(self, key, plain, cipher):
        c = AES(bytes.fromhex(key))
        plain, cipher = bytes.fromhex(plain), bytes.fromhex(cipher)
        assert self._run(c, [plain, plain], False) == [cipher, cipher]
        assert self._run(c, [cipher, cipher], True) == [plain, plain]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("key_bytes", (16, 24, 32))
    def test_matches_scalar_cipher(self, key_bytes, n):
        rng = random.Random(key_bytes * 10007 + n)
        c = AES(_bytes(rng, key_bytes))
        blocks = [_bytes(rng, 16) for _ in range(n)]
        assert self._run(c, blocks, False) == [
            c.encrypt_block(b) for b in blocks
        ]
        assert self._run(c, blocks, True) == [
            c.decrypt_block(b) for b in blocks
        ]

    def test_input_matrix_is_not_modified(self):
        np = columns.get_numpy()
        state = np.arange(32, dtype=np.uint8).reshape(2, 16)
        before = state.copy()
        aes._rounds(AES(bytes(16)), state, False)
        assert (state == before).all()


# sha256 over the outputs of 1 000 seeded blocks per key size, and of
# one 640-byte CBC payload (a period close's size), recorded from the
# byte-wise scalar cipher (SubBytes / ShiftRows / MixColumns on a
# bytearray) before the word-table round replaced it.
RECORDED_BLOCKS = {
    16: ("857450e06fed970017b452c99bcc5e9aa2757c9f1832217a8def59c5af7d1205",
         "0d2f6d54234ddd9c57d4cb0a89019016039cacf8bfd12adb90eb2bc0c7e667db"),
    24: ("54ea64cd7134466e54bf759c33a604015db3bdacea5025ba6959935187a134ea",
         "7431287d8d9a37ab9eab6a547f24f4516ee73caa2dd988977ea10469a3b40959"),
    32: ("5eb44f96e80e6e5d28b3a57044b4d0ac930f8b97ac5c57d8eb971582afea8d82",
         "2e47c464c168b20cd6be71dda31a402e136f051e124137e77afb03cb3d85a1f0"),
}
RECORDED_CBC_640 = (
    "082cb1da10a8eb8d30d5616a84f60977195b7e4b65e2f5dc453364035019f477"
)


class TestScalarCipherPins:
    """The scalar word-table cipher against recorded outputs, the numpy
    round kernel and the batched CBC pass."""

    @pytest.mark.parametrize("key_bytes", (16, 24, 32))
    def test_thousand_blocks_equal_recorded_and_numpy(self, key_bytes):
        import hashlib

        rng = random.Random(key_bytes)
        cipher = AES(_bytes(rng, key_bytes))
        blocks = [_bytes(rng, 16) for _ in range(1000)]
        encrypted = [cipher.encrypt_block(b) for b in blocks]
        decrypted = [cipher.decrypt_block(b) for b in blocks]
        assert (
            hashlib.sha256(b"".join(encrypted)).hexdigest(),
            hashlib.sha256(b"".join(decrypted)).hexdigest(),
        ) == RECORDED_BLOCKS[key_bytes]
        assert [cipher.decrypt_block(b) for b in encrypted] == blocks
        if columns.HAVE_NUMPY:
            previous = columns._FORCED
            columns.force_numpy(True)
            try:
                assert TestRoundKernel._run(cipher, blocks, False) == encrypted
                assert TestRoundKernel._run(cipher, blocks, True) == decrypted
            finally:
                columns._FORCED = previous

    def test_period_sized_cbc_payload(self, kernel_form):
        import hashlib

        rng = random.Random(640)
        key, iv, payload = _bytes(rng, 16), _bytes(rng, 16), _bytes(rng, 640)
        sealed = encrypt_cbc(key, iv, payload)
        assert len(sealed) == 656
        assert hashlib.sha256(sealed).hexdigest() == RECORDED_CBC_640
        assert decrypt_cbc(key, iv, sealed) == payload
        # Two payloads, so that the numpy form takes its matrix pass.
        assert encrypt_cbc_many(key, [iv, iv], [payload, payload]) == [
            sealed, sealed,
        ]
        assert decrypt_cbc_many(key, [iv], [sealed]) == [payload]


class TestBlocksMany:
    @pytest.mark.parametrize("n", (0,) + SIZES[:-1])
    def test_matches_scalar(self, kernel_form, n):
        rng = random.Random(n)
        c = AES(_bytes(rng, 16))
        blocks = [_bytes(rng, 16) for _ in range(n)]
        encrypted = encrypt_blocks_many(c, blocks)
        assert encrypted == [c.encrypt_block(b) for b in blocks]
        assert decrypt_blocks_many(c, encrypted) == blocks

    @pytest.mark.parametrize(
        "many", (encrypt_blocks_many, decrypt_blocks_many)
    )
    def test_every_block_length_is_checked(self, kernel_form, many):
        """15 + 17 bytes add up to two blocks; the total-length check
        the kernel used to make let that through as two wrong blocks."""
        c = AES(bytes(16))
        with pytest.raises(ValueError):
            many(c, [b"a" * 15, b"b" * 17])
        with pytest.raises(ValueError):
            many(c, [b"a" * 16, b"b" * 16, b""])


class TestSp80038aVectors:
    """The SP 800-38A examples through the batch entry points."""

    @pytest.mark.parametrize("key_bytes", sorted(SP800_VECTORS))
    def test_blocks_many(self, kernel_form, key_bytes):
        key, ecb, _cbc = SP800_VECTORS[key_bytes]
        cipher = AES(bytes.fromhex(key))
        plain = [bytes.fromhex(b) for b in SP800_PLAIN]
        encrypted = encrypt_blocks_many(cipher, plain)
        assert [b.hex() for b in encrypted] == ecb
        assert decrypt_blocks_many(cipher, encrypted) == plain

    @pytest.mark.parametrize("key_bytes", sorted(SP800_VECTORS))
    def test_cbc_many(self, kernel_form, key_bytes):
        """Four and three blocks of the example side by side: each
        payload's CBC prefix is the published chain, whatever the
        length of the payload next to it."""
        key, _ecb, cbc = SP800_VECTORS[key_bytes]
        cipher = AES(bytes.fromhex(key))
        iv = bytes.fromhex(SP800_IV)
        plain = bytes.fromhex("".join(SP800_PLAIN))
        payloads = [plain, plain[:48]]
        sealed = encrypt_cbc_many(cipher, [iv, iv], payloads)
        assert sealed[0][:64].hex() == "".join(cbc)
        assert sealed[1][:48].hex() == "".join(cbc[:3])
        assert [len(s) for s in sealed] == [80, 64]
        assert decrypt_cbc_many(cipher, [iv, iv], sealed) == payloads


class TestCbcMany:
    LENGTHS = (0, 1, 15, 16, 17, 31, 32, 33, 100)

    def _ragged(self, seed, n):
        rng = random.Random(seed)
        ivs = [_bytes(rng, 16) for _ in range(n)]
        plaintexts = [
            _bytes(rng, self.LENGTHS[(i * 7 + seed) % len(self.LENGTHS)])
            for i in range(n)
        ]
        return ivs, plaintexts

    @pytest.mark.parametrize("n", (0, 1, 2, 17, 64))
    @pytest.mark.parametrize("key_bytes", (16, 32))
    def test_ragged_lengths_match_scalar(self, kernel_form, key_bytes, n):
        c = AES(_bytes(random.Random(key_bytes), key_bytes))
        ivs, plaintexts = self._ragged(n + 1, n)
        if n > 1:
            plaintexts[1] = b""  # the empty plaintext: one pad block
        encrypted = encrypt_cbc_many(c, ivs, plaintexts)
        assert encrypted == [
            encrypt_cbc(c, iv, pt) for iv, pt in zip(ivs, plaintexts)
        ]
        assert decrypt_cbc_many(c, ivs, encrypted) == plaintexts
        assert [
            decrypt_cbc(c, iv, ct) for iv, ct in zip(ivs, encrypted)
        ] == plaintexts

    def test_malformed_elements_decrypt_to_none(self, kernel_form):
        c = AES(bytes(16))
        ivs, plaintexts = self._ragged(3, 4)
        encrypted = encrypt_cbc_many(c, ivs, plaintexts)
        encrypted[1] = encrypted[1][:-1]   # not a block multiple
        encrypted[2] = b""                 # empty ciphertext
        ivs[3] = ivs[3][:8]                # short IV
        assert decrypt_cbc_many(c, ivs, encrypted) == [
            plaintexts[0], None, None, None
        ]

    @pytest.mark.parametrize("extra_ivs", (-1, 1))
    def test_iv_count_mismatch_raises(self, kernel_form, extra_ivs):
        """Used to be IndexError (numpy form) or silent truncation
        through ``zip`` (Python form) on the decrypt side."""
        c = AES(bytes(16))
        ivs, plaintexts = self._ragged(5, 3)
        encrypted = encrypt_cbc_many(c, ivs, plaintexts)
        bad_ivs = ivs + [bytes(16)] if extra_ivs > 0 else ivs[:-1]
        with pytest.raises(ValueError):
            decrypt_cbc_many(c, bad_ivs, encrypted)
        with pytest.raises(ValueError):
            encrypt_cbc_many(c, bad_ivs, plaintexts)
