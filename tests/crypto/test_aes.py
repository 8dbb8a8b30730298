"""AES correctness: FIPS-197 vectors, CBC roundtrips, padding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AES,
    BLOCK_SIZE,
    decrypt_cbc,
    encrypt_cbc,
    pkcs7_pad,
    pkcs7_unpad,
)

# FIPS-197 appendix C vectors: (key, plaintext, ciphertext).
FIPS_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]

# NIST SP 800-38A appendix F: one four-block plaintext, per key size the
# key, the ECB ciphertext (F.1) and the CBC ciphertext under SP800_IV
# (F.2), one hex string per block.
SP800_PLAIN = [
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
]
SP800_IV = "000102030405060708090a0b0c0d0e0f"
SP800_VECTORS = {
    16: (
        "2b7e151628aed2a6abf7158809cf4f3c",
        [
            "3ad77bb40d7a3660a89ecaf32466ef97",
            "f5d3d58503b9699de785895a96fdbaaf",
            "43b1cd7f598ece23881b00e3ed030688",
            "7b0c785e27e8ad3f8223207104725dd4",
        ],
        [
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ],
    ),
    24: (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        [
            "bd334f1d6e45f25ff712a214571fa5cc",
            "974104846d0ad3ad7734ecb3ecee4eef",
            "ef7afd2270e2e60adce0ba2face6444e",
            "9a4b41ba738d6c72fb16691603c18e0e",
        ],
        [
            "4f021db243bc633d7178183a9fa071e8",
            "b4d9ada9ad7dedf4e5e738763f69145a",
            "571b242012fb7ae07fa9baac3df102e0",
            "08b0e27988598881d920a9e64f5615cd",
        ],
    ),
    32: (
        "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4",
        [
            "f3eed1bdb5d2a03c064b5a7e3db181f8",
            "591ccb10d410ed26dc5ba74a31362870",
            "b6ed21b99ca6f4f9f153e7b1beafed1d",
            "23304b7a39f9f3ff067d8d8f9e24ecc7",
        ],
        [
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
            "9cfc4e967edb808d679f777bc6702c7d",
            "39f23369a9d9bacfa530e26304231461",
            "b2eb05e2c39be9fcda6c19078c6a9d1b",
        ],
    ),
}


class TestBlockCipher:
    @pytest.mark.parametrize("key,plain,cipher", FIPS_VECTORS)
    def test_fips_encrypt(self, key, plain, cipher):
        aes = AES(bytes.fromhex(key))
        assert aes.encrypt_block(bytes.fromhex(plain)).hex() == cipher

    @pytest.mark.parametrize("key,plain,cipher", FIPS_VECTORS)
    def test_fips_decrypt(self, key, plain, cipher):
        aes = AES(bytes.fromhex(key))
        assert aes.decrypt_block(bytes.fromhex(cipher)).hex() == plain

    def test_sp800_38a_ecb_vector(self):
        # NIST SP 800-38A F.1.1 (AES-128-ECB, first block).
        aes = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        out = aes.encrypt_block(
            bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        )
        assert out.hex() == "3ad77bb40d7a3660a89ecaf32466ef97"

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError, match="16, 24 or 32"):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        aes = AES(bytes(16))
        with pytest.raises(ValueError, match="16 bytes"):
            aes.encrypt_block(b"tiny")
        with pytest.raises(ValueError, match="16 bytes"):
            aes.decrypt_block(b"x" * 17)

    def test_rounds_by_key_size(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_block_roundtrip(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_diffusion(self):
        """One flipped plaintext bit flips many ciphertext bits."""
        aes = AES(bytes(range(16)))
        a = aes.encrypt_block(bytes(16))
        b = aes.encrypt_block(bytes([1]) + bytes(15))
        distance = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert distance > 30

    @pytest.mark.parametrize("block", range(4))
    @pytest.mark.parametrize("key_bytes", sorted(SP800_VECTORS))
    def test_sp800_38a_block_vectors(self, key_bytes, block):
        """SP 800-38A F.1: every block of the ECB example, which is the
        bare block cipher, in both directions."""
        key, ecb, _cbc = SP800_VECTORS[key_bytes]
        aes = AES(bytes.fromhex(key))
        plain = bytes.fromhex(SP800_PLAIN[block])
        assert aes.encrypt_block(plain).hex() == ecb[block]
        assert aes.decrypt_block(bytes.fromhex(ecb[block])) == plain


class TestPadding:
    @given(st.binary(max_size=100))
    def test_roundtrip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_always_adds_padding(self):
        assert len(pkcs7_pad(bytes(16))) == 32

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"")

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"x" * 15)

    def test_rejects_corrupt_padding(self):
        padded = pkcs7_pad(b"hello")
        corrupted = padded[:-2] + bytes([padded[-2] ^ 1]) + padded[-1:]
        with pytest.raises(ValueError, match="corrupt"):
            pkcs7_unpad(corrupted)

    def test_rejects_zero_pad_byte(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(b"x" * 15 + b"\x00")

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", block_size=0)


class TestModes:
    KEY = bytes(range(16))
    IV = bytes(range(16, 32))

    @given(st.binary(max_size=200))
    @settings(max_examples=30)
    def test_cbc_roundtrip(self, data):
        ct = encrypt_cbc(self.KEY, self.IV, data)
        assert decrypt_cbc(self.KEY, self.IV, ct) == data

    def test_cbc_differs_from_ecb(self):
        padded = pkcs7_pad(bytes(32))
        aes = AES(self.KEY)
        ecb = b"".join(
            aes.encrypt_block(padded[i:i + BLOCK_SIZE])
            for i in range(0, len(padded), BLOCK_SIZE)
        )
        assert encrypt_cbc(self.KEY, self.IV, bytes(32)) != ecb

    def test_cbc_iv_matters(self):
        other_iv = bytes(16)
        a = encrypt_cbc(self.KEY, self.IV, b"data")
        b = encrypt_cbc(self.KEY, other_iv, b"data")
        assert a != b

    @pytest.mark.parametrize("key_bytes", sorted(SP800_VECTORS))
    def test_cbc_sp800_38a_encrypt(self, key_bytes):
        """SP 800-38A F.2 leaves padding out: its four blocks are the
        first 64 bytes here, followed by PKCS#7's full pad block chained
        off the last of them."""
        key, _ecb, cbc = SP800_VECTORS[key_bytes]
        key = bytes.fromhex(key)
        plain = bytes.fromhex("".join(SP800_PLAIN))
        sealed = encrypt_cbc(key, bytes.fromhex(SP800_IV), plain)
        assert sealed[:64].hex() == "".join(cbc)
        pad_block = bytes(b ^ 16 for b in sealed[48:64])
        assert sealed[64:] == AES(key).encrypt_block(pad_block)

    @pytest.mark.parametrize("key_bytes", sorted(SP800_VECTORS))
    def test_cbc_sp800_38a_decrypt(self, key_bytes):
        key, _ecb, cbc = SP800_VECTORS[key_bytes]
        aes = AES(bytes.fromhex(key))
        ciphertext = bytes.fromhex("".join(cbc))
        pad_block = bytes(b ^ 16 for b in ciphertext[-16:])
        assert decrypt_cbc(
            aes, bytes.fromhex(SP800_IV),
            ciphertext + aes.encrypt_block(pad_block),
        ).hex() == "".join(SP800_PLAIN)

    def test_cbc_rejects_bad_iv(self):
        with pytest.raises(ValueError, match="IV"):
            encrypt_cbc(self.KEY, b"short", b"data")
        with pytest.raises(ValueError, match="IV"):
            decrypt_cbc(self.KEY, b"short", bytes(16))

    def test_cbc_rejects_empty_ciphertext(self):
        with pytest.raises(ValueError):
            decrypt_cbc(self.KEY, self.IV, b"")

    def test_wrong_key_fails_or_garbles(self):
        ct = encrypt_cbc(self.KEY, self.IV, b"secret semantic data")
        wrong = bytes(16)
        try:
            out = decrypt_cbc(wrong, self.IV, ct)
        except ValueError:
            return  # padding check caught it
        assert out != b"secret semantic data"

