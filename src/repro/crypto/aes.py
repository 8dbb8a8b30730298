"""AES-128 block cipher, implemented from scratch.

Snatch encrypts everything after the application-ID byte of a
transport-layer semantic cookie with AES-128 (paper section 4.1), and the
data-stack of custom aggregation packets likewise (Appendix B.3).  The
paper cites Chen [45] for an AES implementation on Tofino switches via
scrambled lookup tables; the cost there is ~0.1 ms per 160-bit cookie.

This module provides a self-contained, test-vector-verified AES-128
(and 192/256, which fall out of the same key schedule): the single
block the transport cookie encrypts, and CBC with PKCS#7 padding for
application cookies and aggregation payloads.  No third-party crypto
library is used, per the offline constraint of this reproduction.

Both forms of the cipher are the table-lookup round: the scalar one
over four 32-bit words and 256-entry integer tables (13-25 us per block
of pure Python on the 2-vCPU recorded host, which drifts by that
factor; the byte-wise SubBytes / ShiftRows / MixColumns rounds it
replaced cost 80-115), the batched ``*_many`` kernels at the bottom of
this module over the same tables as numpy arrays: 40-80 us fixed per
call plus 0.3-0.6 us per block (1024 blocks in 0.3-0.7 ms).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = [
    "AES",
    "encrypt_cbc",
    "decrypt_cbc",
    "pkcs7_pad",
    "pkcs7_unpad",
    "encrypt_blocks_many",
    "decrypt_blocks_many",
    "encrypt_cbc_many",
    "decrypt_cbc_many",
    "encrypt_cbc_matrix",
    "decrypt_cbc_matrix",
    "pkcs7_pad_matrix",
    "pkcs7_sizes",
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

INV_SBOX = bytes(SBOX.index(i) for i in range(256))

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


def _round_tables(sbox: bytes, coeffs: Sequence[int]) -> List[List[int]]:
    """Four 256-entry word tables: entry ``x`` of table ``r`` is what a
    state byte ``x`` in row ``r`` contributes to its column after
    (Inv)SubBytes and (Inv)MixColumns — the coefficient column rotated
    down by ``r``, packed big-endian (row 0 in the top byte)."""
    base = [[_gmul(s, c) for c in coeffs] for s in sbox]
    return [
        [int.from_bytes(bytes(col[-r:] + col[:-r]), "big") for col in base]
        for r in range(4)
    ]


def _sub_word(word: int) -> int:
    return (
        SBOX[word >> 24] << 24 | SBOX[word >> 16 & 255] << 16
        | SBOX[word >> 8 & 255] << 8 | SBOX[word & 255]
    )


_ENC_TABLES = _round_tables(SBOX, (2, 1, 1, 3))
_DEC_TABLES = _round_tables(INV_SBOX, (14, 9, 13, 11))


class AES:
    """AES block cipher for 128/192/256-bit keys.

    A block is four big-endian 32-bit words, one per FIPS-197 state
    column (byte ``r + 4*c`` is state row ``r``, column ``c``), and a
    round is the table-lookup form [45] puts on the switch: SubBytes
    fused with MixColumns in four 256-entry word tables, ShiftRows
    folded into which word each lookup reads.  Decryption is the
    equivalent inverse cipher (FIPS-197 section 5.3.5): the same round
    shape over the inverse tables, with InvMixColumns applied to the
    middle round keys.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(
                "AES key must be 16, 24 or 32 bytes, got %d" % len(key)
            )
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        enc = self._expand_key(self.key)
        d0, d1, d2, d3 = _DEC_TABLES
        # A decrypt table undoes the S-box before it mixes, so looking
        # up SBOX[b] leaves InvMixColumns of b alone.
        mixed = enc[:4] + [
            d0[SBOX[w >> 24]] ^ d1[SBOX[w >> 16 & 255]]
            ^ d2[SBOX[w >> 8 & 255]] ^ d3[SBOX[w & 255]]
            for w in enc[4:-4]
        ] + enc[-4:]
        # Round-key words in the order the rounds apply them, indexed
        # by ``decrypt``: the schedule as it is for encryption; for
        # decryption reversed round by round, the middle rounds through
        # InvMixColumns, every round's words in the mirrored column
        # order (0, 3, 2, 1) _crypt_block keeps a decrypting state in.
        self._key_words = (enc, [
            mixed[4 * r + c]
            for r in range(self.rounds, -1, -1) for c in (0, 3, 2, 1)
        ])
        self._key_matrices = None  # numpy forms, built by the batch kernel

    # -- key schedule -------------------------------------------------

    def _expand_key(self, key: bytes) -> List[int]:
        nk = len(key) // 4
        words = [
            int.from_bytes(key[i:i + 4], "big") for i in range(0, 4 * nk, 4)
        ]
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = (temp << 8 | temp >> 24) & 0xFFFFFFFF  # RotWord
                temp = _sub_word(temp) ^ RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return words

    # -- block operations ----------------------------------------------

    def _crypt_block(self, block: bytes, decrypt: bool) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes, got %d" % len(block))
        keys = self._key_words[decrypt]
        (t0, t1, t2, t3), sbox = (
            (_DEC_TABLES, INV_SBOX) if decrypt else (_ENC_TABLES, SBOX)
        )
        state = int.from_bytes(block, "big")
        s0 = state >> 96
        s1 = state >> 64 & 0xFFFFFFFF
        s2 = state >> 32 & 0xFFFFFFFF
        s3 = state & 0xFFFFFFFF
        # ShiftRows has output column c read row r from column c + r;
        # InvShiftRows from column c - r.  With the columns mirrored
        # (0, 3, 2, 1) the second is the first, so one round body
        # serves both directions.
        if decrypt:
            s1, s3 = s3, s1
        s0 ^= keys[0]
        s1 ^= keys[1]
        s2 ^= keys[2]
        s3 ^= keys[3]
        for i in range(4, 4 * self.rounds, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s1 >> 16 & 255]
                ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ keys[i],
                t0[s1 >> 24] ^ t1[s2 >> 16 & 255]
                ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ keys[i + 1],
                t0[s2 >> 24] ^ t1[s3 >> 16 & 255]
                ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ keys[i + 2],
                t0[s3 >> 24] ^ t1[s0 >> 16 & 255]
                ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ keys[i + 3],
            )
        # Last round: no MixColumns, so the plain S-box.
        s0, s1, s2, s3 = (
            (sbox[s0 >> 24] << 24 | sbox[s1 >> 16 & 255] << 16
             | sbox[s2 >> 8 & 255] << 8 | sbox[s3 & 255]) ^ keys[-4],
            (sbox[s1 >> 24] << 24 | sbox[s2 >> 16 & 255] << 16
             | sbox[s3 >> 8 & 255] << 8 | sbox[s0 & 255]) ^ keys[-3],
            (sbox[s2 >> 24] << 24 | sbox[s3 >> 16 & 255] << 16
             | sbox[s0 >> 8 & 255] << 8 | sbox[s1 & 255]) ^ keys[-2],
            (sbox[s3 >> 24] << 24 | sbox[s0 >> 16 & 255] << 16
             | sbox[s1 >> 8 & 255] << 8 | sbox[s2 & 255]) ^ keys[-1],
        )
        if decrypt:
            s1, s3 = s3, s1
        return (s0 << 96 | s1 << 64 | s2 << 32 | s3).to_bytes(16, "big")

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        return self._crypt_block(block, False)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        return self._crypt_block(block, True)


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
    """The CBC helpers accept either raw key bytes or a
    pre-scheduled :class:`AES` instance; hot paths (the per-packet
    aggregation codecs) pass an instance so the key schedule is not
    recomputed on every call."""
    return key if isinstance(key, AES) else AES(key)


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


# -- columnar (batched) block kernels -------------------------------------
#
# The columnar data plane runs AES over whole batches: the state is an
# (n, 16) uint8 matrix (one row per block, FIPS column-major order
# within the row) and every round is the scalar cipher's table-lookup
# round over the same four word tables, ShiftRows folded into the
# gather index.  Outputs are bit-identical to the scalar per-block
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
        _NP_TABLES = tuple(
            (
                # The scalar cipher's word tables, laid out big-endian
                # and read back as native words: the same byte <-> word
                # mapping the state goes through, so host endianness
                # cancels out.
                np.array(tables, dtype=">u4").view(np.uint32),
                # Flat position r + 4c takes its byte from position
                # r + 4*((c +- r) % 4): (Inv)ShiftRows.
                np.array(
                    [
                        r + 4 * ((c + sign * r) % 4)
                        for c in range(4) for r in range(4)
                    ],
                    dtype=np.intp,
                ),
                np.frombuffer(sbox, dtype=np.uint8),
            )
            for tables, sign, sbox in (
                (_ENC_TABLES, 1, SBOX), (_DEC_TABLES, -1, INV_SBOX)
            )
        )
    return _NP_TABLES


def _key_matrices(np, cipher: "AES"):
    """``(encrypt, decrypt)`` round keys as (rounds + 1, 16) uint8
    matrices in the order the rounds apply them, cached on the cipher."""
    if cipher._key_matrices is None:
        enc, dec = (
            np.array(words, dtype=">u4").reshape(-1, 4)
            for words in cipher._key_words
        )
        # The decrypt words are stored with their columns mirrored.
        cipher._key_matrices = tuple(
            np.ascontiguousarray(words).view(np.uint8)
            for words in (enc, dec[:, [0, 3, 2, 1]])
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


def pkcs7_pad_matrix(data, sizes):
    """Matrix form of :func:`pkcs7_pad`: row ``i`` of the uint8 matrix
    ``data`` cut to ``sizes[i]`` bytes and padded, the pad bytes filled
    from one column grid.  Returns the padded rows, as wide as the
    longest (what lies past a row's own padded size is never
    encrypted), and their padded sizes."""
    np = _numpy()
    padded = sizes + BLOCK_SIZE - sizes % BLOCK_SIZE
    width = int(padded.max())
    out = np.zeros((len(data), width), dtype=np.uint8)
    kept = min(width, data.shape[1])
    out[:, :kept] = data[:, :kept]
    pad = (padded - sizes).astype(np.uint8)
    return np.where(
        np.arange(width) < sizes[:, None], out, pad[:, None]
    ), padded


def pkcs7_sizes(padded):
    """Matrix form of :func:`pkcs7_unpad`: the unpadded byte count of
    every row of a uint8 matrix (a whole number of blocks wide), ``-1``
    where the scalar form raises — the last block checked as columns."""
    np = _numpy()
    last = padded[:, -1:]
    pad = last[:, 0].astype(np.int64)
    # A tail byte either lies before the padding or equals its length.
    before = np.arange(BLOCK_SIZE, 0, -1) > pad[:, None]
    intact = ((padded[:, -BLOCK_SIZE:] == last) | before).all(axis=1)
    valid = (pad >= 1) & (pad <= BLOCK_SIZE) & intact
    return np.where(valid, padded.shape[1] - pad, -1)


def encrypt_cbc_matrix(cipher: "AES", ivs, plain, blocks):
    """CBC over padded rows: ``plain`` is an (n, 16 * B) uint8 matrix
    of which row ``i`` holds ``blocks[i]`` blocks, ``ivs`` (n, 16).

    CBC chains sequentially *within* a payload but payloads are
    independent, so the batch runs one matrix AES pass per chain
    position: step ``j`` encrypts block ``j`` of every payload long
    enough to have one.  Past its last block a row comes back zero.
    """
    np = _numpy()
    n, width = plain.shape
    plain = plain.reshape(n, -1, BLOCK_SIZE)
    out = np.zeros_like(plain)
    prev = ivs
    for j in range(width // BLOCK_SIZE):
        active = np.flatnonzero(blocks > j)
        out[active, j] = _rounds(
            cipher, plain[active, j] ^ prev[active], False
        )
        prev = out[:, j]
    return out.reshape(n, width)


def decrypt_cbc_matrix(cipher: "AES", framed):
    """CBC-decrypt equal-length payloads in one AES pass: every row of
    the uint8 matrix ``framed`` is ``IV | ciphertext`` (16 + 16 * B
    bytes), so block ``j``'s chaining value is the 16 bytes before it
    in the same row.  Returns the still-padded plaintext rows."""
    n, width = framed.shape
    state = framed[:, BLOCK_SIZE:].reshape(-1, BLOCK_SIZE)
    prev = framed[:, :-BLOCK_SIZE].reshape(-1, BLOCK_SIZE)
    return (_rounds(cipher, state, True) ^ prev).reshape(
        n, width - BLOCK_SIZE
    )


def encrypt_cbc_many(key, ivs, plaintexts) -> List[bytes]:
    """CBC-encrypt many (iv, plaintext) pairs at once through
    :func:`encrypt_cbc_matrix`.  Per-element output is bit-identical
    to :func:`encrypt_cbc`.
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
    plain = np.frombuffer(
        b"".join(p.ljust(width, b"\0") for p in padded), dtype=np.uint8
    ).reshape(n, width)
    flat = encrypt_cbc_matrix(
        cipher,
        np.frombuffer(b"".join(ivs), dtype=np.uint8).reshape(n, BLOCK_SIZE),
        plain,
        np.array(sizes) // BLOCK_SIZE,
    ).tobytes()
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
