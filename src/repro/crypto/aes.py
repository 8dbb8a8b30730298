"""AES-128 block cipher, implemented from scratch.

Snatch encrypts everything after the application-ID byte of a
transport-layer semantic cookie with AES-128 (paper section 4.1), and the
data-stack of custom aggregation packets likewise (Appendix B.3).  The
paper cites Chen [45] for an AES implementation on Tofino switches via
scrambled lookup tables; the cost there is ~0.1 ms per 160-bit cookie.

This module provides a self-contained, test-vector-verified AES-128
(and 192/256, which fall out of the same key schedule) with ECB, CBC and
CTR modes plus PKCS#7 padding.  No third-party crypto library is used,
per the offline constraint of this reproduction.

The scalar cipher favours clarity over raw throughput: one 16-byte
block costs 60-130 us of pure Python (measured on the 2-vCPU recorded
host, which drifts by that factor), about the paper's per-cookie switch
cost and far too slow for a batch.  The batched ``*_many`` kernels at the
bottom of this module run the same cipher as numpy table lookups:
40-80 us fixed per call plus 0.3-0.6 us per block (1024 blocks in
0.3-0.7 ms), 2-4x the per-pass numpy kernel they replaced.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = [
    "AES",
    "encrypt_ecb",
    "decrypt_ecb",
    "encrypt_cbc",
    "decrypt_cbc",
    "encrypt_ctr",
    "decrypt_ctr",
    "pkcs7_pad",
    "pkcs7_unpad",
    "encrypt_blocks_many",
    "decrypt_blocks_many",
    "encrypt_cbc_many",
    "decrypt_cbc_many",
    "BLOCK_SIZE",
]

BLOCK_SIZE = 16

# Forward S-box (FIPS-197 figure 7).
SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)

_inv = bytearray(256)
for _i, _v in enumerate(SBOX):
    _inv[_v] = _i
INV_SBOX = bytes(_inv)
del _inv, _i, _v

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8)


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication (Russian peasant method)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed GF multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gmul(i, 2) for i in range(256))
_MUL3 = bytes(_gmul(i, 3) for i in range(256))
_MUL9 = bytes(_gmul(i, 9) for i in range(256))
_MUL11 = bytes(_gmul(i, 11) for i in range(256))
_MUL13 = bytes(_gmul(i, 13) for i in range(256))
_MUL14 = bytes(_gmul(i, 14) for i in range(256))


class AES:
    """AES block cipher for 128/192/256-bit keys.

    The state is kept as a flat 16-byte ``bytearray`` in column-major
    (FIPS-197) order: byte ``r + 4*c`` is state row ``r``, column ``c``.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(
                "AES key must be 16, 24 or 32 bytes, got %d" % len(key)
            )
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)
        self._key_matrices = None  # numpy forms, built by the batch kernel

    # -- key schedule -------------------------------------------------

    def _expand_key(self, key: bytes) -> List[bytes]:
        nk = len(key) // 4
        words: List[bytes] = [key[4 * i:4 * i + 4] for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = bytearray(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = bytearray(SBOX[b] for b in temp)  # SubWord
                temp[0] ^= RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = bytearray(SBOX[b] for b in temp)
            prev = words[i - nk]
            words.append(bytes(t ^ p for t, p in zip(temp, prev)))
        return [
            b"".join(words[4 * r:4 * r + 4]) for r in range(self.rounds + 1)
        ]

    # -- round primitives ---------------------------------------------

    @staticmethod
    def _add_round_key(state: bytearray, round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: bytearray) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: bytearray) -> None:
        for i in range(16):
            state[i] = INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: bytearray) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        s = bytes(state)
        for r in range(1, 4):
            for c in range(4):
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)]

    @staticmethod
    def _inv_shift_rows(state: bytearray) -> None:
        s = bytes(state)
        for r in range(1, 4):
            for c in range(4):
                state[r + 4 * c] = s[r + 4 * ((c - r) % 4)]

    @staticmethod
    def _mix_columns(state: bytearray) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i:i + 4]
            state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: bytearray) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i:i + 4]
            state[i] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[i + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[i + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[i + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- block operations ----------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes, got %d" % len(block))
        state = bytearray(block)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, self.rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes, got %d" % len(block))
        state = bytearray(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        for rnd in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)


# -- padding -----------------------------------------------------------


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` (always adds >= 1 byte)."""
    if not 1 <= block_size <= 255:
        raise ValueError("block_size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip PKCS#7 padding, validating its structure."""
    if not data or len(data) % block_size != 0:
        raise ValueError("invalid padded data length %d" % len(data))
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise ValueError("invalid padding byte %d" % pad_len)
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("corrupt PKCS#7 padding")
    return data[:-pad_len]


# -- modes of operation --------------------------------------------------


def _as_cipher(key) -> "AES":
    """Every mode helper accepts either raw key bytes or a
    pre-scheduled :class:`AES` instance; hot paths (the per-packet
    aggregation codecs) pass an instance so the key schedule is not
    recomputed on every call."""
    return key if isinstance(key, AES) else AES(key)


def encrypt_ecb(key, plaintext: bytes) -> bytes:
    """ECB with PKCS#7 padding.  Used for fixed-format cookie payloads."""
    cipher = _as_cipher(key)
    padded = pkcs7_pad(plaintext)
    return b"".join(
        cipher.encrypt_block(padded[i:i + BLOCK_SIZE])
        for i in range(0, len(padded), BLOCK_SIZE)
    )


def decrypt_ecb(key, ciphertext: bytes) -> bytes:
    cipher = _as_cipher(key)
    if len(ciphertext) % BLOCK_SIZE != 0:
        raise ValueError("ECB ciphertext must be a multiple of 16 bytes")
    padded = b"".join(
        cipher.decrypt_block(ciphertext[i:i + BLOCK_SIZE])
        for i in range(0, len(ciphertext), BLOCK_SIZE)
    )
    return pkcs7_unpad(padded)


def encrypt_cbc(key, iv: bytes, plaintext: bytes) -> bytes:
    """CBC with PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be 16 bytes")
    cipher = _as_cipher(key)
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        block = bytes(
            p ^ c for p, c in zip(padded[i:i + BLOCK_SIZE], prev)
        )
        prev = cipher.encrypt_block(block)
        out.extend(prev)
    return bytes(out)


def decrypt_cbc(key, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be 16 bytes")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE != 0:
        raise ValueError("CBC ciphertext must be a non-empty multiple of 16")
    cipher = _as_cipher(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i:i + BLOCK_SIZE]
        plain = cipher.decrypt_block(block)
        out.extend(p ^ c for p, c in zip(plain, prev))
        prev = block
    return pkcs7_unpad(bytes(out))


def _ctr_keystream(cipher: AES, nonce: bytes, nblocks: int) -> bytes:
    stream = bytearray()
    counter = int.from_bytes(nonce, "big")
    for _ in range(nblocks):
        stream.extend(
            cipher.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        )
        counter = (counter + 1) % (1 << 128)
    return bytes(stream)


def encrypt_ctr(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """CTR mode: length-preserving, so suitable for the fixed-width
    transport-layer cookie bits that must fit inside the QUIC
    connection-ID field without expansion."""
    if len(nonce) != BLOCK_SIZE:
        raise ValueError("CTR nonce must be 16 bytes")
    cipher = _as_cipher(key)
    nblocks = (len(plaintext) + BLOCK_SIZE - 1) // BLOCK_SIZE
    stream = _ctr_keystream(cipher, nonce, nblocks)
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def decrypt_ctr(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return encrypt_ctr(key, nonce, ciphertext)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes operands must have equal length")
    return bytes(x ^ y for x, y in zip(a, b))


# -- columnar (batched) block kernels -------------------------------------
#
# The columnar data plane runs AES over whole batches: the state is an
# (n, 16) uint8 matrix (one row per block, FIPS column-major order
# within the row) and every round is the table-lookup form [45] puts on
# the switch.  Four 256-entry uint32 T-tables hold SubBytes fused with
# MixColumns, ShiftRows is folded into the gather index, and the four
# lookups of a column XOR into its output word.  Decryption is the
# equivalent inverse cipher (FIPS-197 section 5.3.5): the same round
# shape over inverse tables, with InvMixColumns applied to the middle
# round keys.  Outputs are bit-identical to the scalar per-block
# methods; when numpy is unavailable the *_many entry points loop over
# the scalar implementation.

_NP_TABLES = None


def _numpy():
    from repro.switch.columns import get_numpy

    return get_numpy()


def _np_tables(np):
    """Lazily-built round tables, indexed by ``decrypt``: each entry is
    ``(T-tables (4, 256) uint32, ShiftRows gather (16,), S-box)``."""
    global _NP_TABLES
    if _NP_TABLES is None:
        built = []
        for sbox, coeffs, sign in (
            (SBOX, (2, 1, 1, 3), 1), (INV_SBOX, (14, 9, 13, 11), -1)
        ):
            # Table r is what a byte in state row r contributes to the
            # four output rows of its column: the (Inv)MixColumns
            # coefficient column rotated down by r.  Words are formed by
            # viewing byte quadruples, the same byte <-> word mapping
            # the state goes through, so host endianness cancels out.
            base = np.array(
                [[_gmul(s, c) for c in coeffs] for s in sbox], dtype=np.uint8
            )
            tables = np.stack([np.roll(base, r, axis=1) for r in range(4)])
            # Flat position r + 4c takes its byte from position
            # r + 4*((c +- r) % 4), exactly the scalar _shift_rows /
            # _inv_shift_rows loops.
            shift = [
                r + 4 * ((c + sign * r) % 4)
                for c in range(4) for r in range(4)
            ]
            built.append((
                tables.view(np.uint32).reshape(4, 256),
                np.array(shift, dtype=np.intp),
                np.frombuffer(sbox, dtype=np.uint8),
            ))
        _NP_TABLES = tuple(built)
    return _NP_TABLES


def _key_matrices(np, cipher: "AES"):
    """``(encrypt, decrypt)`` round keys as (rounds + 1, 16) uint8
    matrices in the order the rounds apply them, cached on the cipher."""
    if cipher._key_matrices is None:
        keys = cipher._round_keys
        middle = []
        for key in keys[-2:0:-1]:
            mixed = bytearray(key)
            AES._inv_mix_columns(mixed)
            middle.append(bytes(mixed))
        cipher._key_matrices = tuple(
            np.frombuffer(b"".join(ks), dtype=np.uint8).reshape(len(ks), 16)
            for ks in (keys, [keys[-1]] + middle + [keys[0]])
        )
    return cipher._key_matrices


def _rounds(cipher: "AES", state, decrypt: bool):
    """All AES rounds over an (n, 16) uint8 ``state`` matrix: the one
    numpy round loop, behind every ``*_many`` entry point."""
    np = _numpy()
    (t0, t1, t2, t3), shift, sbox = _np_tables(np)[decrypt]
    keys = _key_matrices(np, cipher)[decrypt]
    state = state ^ keys[0]
    for round_key in keys.view(np.uint32)[1:-1]:
        s = state.take(shift, axis=1)
        words = t0.take(s[:, 0::4])
        words ^= t1.take(s[:, 1::4])
        words ^= t2.take(s[:, 2::4])
        words ^= t3.take(s[:, 3::4])
        words ^= round_key
        state = words.view(np.uint8)
    return sbox.take(state.take(shift, axis=1)) ^ keys[-1]


def _blocks_many(cipher: "AES", blocks, decrypt: bool) -> List[bytes]:
    cipher = _as_cipher(cipher)
    np = _numpy()
    if np is None or len(blocks) <= 1:
        one = cipher.decrypt_block if decrypt else cipher.encrypt_block
        return [one(b) for b in blocks]
    if set(map(len, blocks)) != {BLOCK_SIZE}:
        raise ValueError("every block must be 16 bytes")
    state = np.frombuffer(b"".join(blocks), dtype=np.uint8)
    flat = _rounds(cipher, state.reshape(len(blocks), 16), decrypt).tobytes()
    return [flat[i:i + 16] for i in range(0, len(flat), 16)]


def encrypt_blocks_many(cipher: "AES", blocks) -> List[bytes]:
    """Encrypt many independent 16-byte blocks (ECB-style) at once."""
    return _blocks_many(cipher, blocks, False)


def decrypt_blocks_many(cipher: "AES", blocks) -> List[bytes]:
    """Decrypt many independent 16-byte blocks at once."""
    return _blocks_many(cipher, blocks, True)


def encrypt_cbc_many(key, ivs, plaintexts) -> List[bytes]:
    """CBC-encrypt many (iv, plaintext) pairs at once.

    CBC chains sequentially *within* a payload but payloads are
    independent, so the batch runs one matrix AES pass per chain
    position: step ``j`` encrypts block ``j`` of every payload long
    enough to have one.  Per-element output is bit-identical to
    :func:`encrypt_cbc`.
    """
    cipher = _as_cipher(key)
    if len(ivs) != len(plaintexts):
        raise ValueError("need one IV per plaintext")
    for iv in ivs:
        if len(iv) != BLOCK_SIZE:
            raise ValueError("IV must be 16 bytes")
    np = _numpy()
    if np is None or len(plaintexts) <= 1:
        return [
            encrypt_cbc(cipher, iv, pt) for iv, pt in zip(ivs, plaintexts)
        ]
    padded = [pkcs7_pad(pt) for pt in plaintexts]
    sizes = [len(p) for p in padded]
    n, width = len(padded), max(sizes)
    # Rows zero-filled to the longest payload; the fill is never
    # encrypted (a row leaves the active set after its last block).
    plain = np.frombuffer(
        b"".join(p.ljust(width, b"\0") for p in padded), dtype=np.uint8
    ).reshape(n, width // BLOCK_SIZE, BLOCK_SIZE)
    out = np.zeros_like(plain)
    counts = np.array(sizes) // BLOCK_SIZE
    prev = np.frombuffer(b"".join(ivs), dtype=np.uint8).reshape(n, BLOCK_SIZE)
    for j in range(width // BLOCK_SIZE):
        active = np.flatnonzero(counts > j)
        out[active, j] = _rounds(
            cipher, plain[active, j] ^ prev[active], False
        )
        prev = out[:, j]
    flat = out.tobytes()
    return [flat[i * width:i * width + sizes[i]] for i in range(n)]


def decrypt_cbc_many(key, ivs, ciphertexts) -> List[Optional[bytes]]:
    """CBC-decrypt many (iv, ciphertext) pairs with one batched AES
    pass over every block of every payload.

    Per-element semantics mirror :func:`decrypt_cbc` exactly, except
    that a malformed element yields ``None`` instead of raising (the
    batch must keep going; callers map ``None`` to their scalar-path
    error handling).
    """
    cipher = _as_cipher(key)
    if len(ivs) != len(ciphertexts):
        raise ValueError("need one IV per ciphertext")
    np = _numpy()
    if np is None:
        out = []
        for iv, ct in zip(ivs, ciphertexts):
            try:
                out.append(decrypt_cbc(cipher, iv, ct))
            except ValueError:
                out.append(None)
        return out
    n = len(ciphertexts)
    valid = [
        i for i in range(n)
        if len(ivs[i]) == BLOCK_SIZE
        and ciphertexts[i]
        and len(ciphertexts[i]) % BLOCK_SIZE == 0
    ]
    out: List = [None] * n
    if not valid:
        return out
    cipher_cat = b"".join(ciphertexts[i] for i in valid)
    prev_cat = b"".join(
        ivs[i] + ciphertexts[i][:-BLOCK_SIZE] for i in valid
    )
    state = np.frombuffer(cipher_cat, dtype=np.uint8).reshape(-1, 16)
    prev = np.frombuffer(prev_cat, dtype=np.uint8).reshape(-1, 16)
    plain = (_rounds(cipher, state, True) ^ prev).tobytes()
    offset = 0
    for i in valid:
        size = len(ciphertexts[i])
        padded = plain[offset:offset + size]
        offset += size
        try:
            out[i] = pkcs7_unpad(padded)
        except ValueError:
            out[i] = None
    return out
