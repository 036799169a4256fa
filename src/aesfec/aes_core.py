"""AES-128 block cipher used as the inner bijection of the code.

Two evaluation paths:

* an authored table-driven numpy implementation operating on batches of
  16-byte blocks (the reference; also the source of the key schedule), and
* an OpenSSL-backed ECB path (via ``cryptography``) for the decode hot loop,
  where a single candidate query costs one block decryption.

Both paths are cross-checked against each other at construction time and in
the test suite. Nothing here is constant-time and none of it is meant to
protect secrets; the cipher is used purely as a keyed bijection with
diffusion, and a wrong or absent key simply yields garbage plaintext.
"""

from __future__ import annotations

import string

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .bitblock import BitVec

__all__ = [
    "DEFAULT_KEY_HEX",
    "KeySchedule",
    "key_from_hex",
    "expand_key",
    "encrypt_batch",
    "decrypt_batch",
    "encrypt_block",
    "decrypt_block",
    "Aes128",
]

DEFAULT_KEY_HEX = "000102030405060708090a0b0c0d0e0f"

BLOCK_BYTES = 16
BLOCK_BITS = 128
N_ROUNDS = 10


def _xtime(a):
    a <<= 1
    return (a ^ 0x11B) & 0xFF if a & 0x100 else a


def _build_tables():
    # GF(2^8) log/antilog tables over the AES polynomial, generator 0x03.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)
    exp[255] = exp[0]

    def gf_inv(a):
        return exp[255 - log[a]] if a else 0

    sbox = np.zeros(256, dtype=np.uint8)
    for a in range(256):
        b = gf_inv(a)
        s = b
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        sbox[a] = s ^ 0x63
    inv_sbox = np.argsort(sbox).astype(np.uint8)

    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_tables()
_AR = np.arange(256, dtype=np.uint8)
_MUL2 = np.array([_xtime(a) for a in range(256)], dtype=np.uint8)
_MUL3 = _MUL2 ^ _AR
_X4 = _MUL2[_MUL2]
_X8 = _MUL2[_X4]
_MUL9 = _X8 ^ _AR
_MUL11 = _X8 ^ _MUL2 ^ _AR
_MUL13 = _X8 ^ _X4 ^ _AR
_MUL14 = _X8 ^ _X4 ^ _MUL2

# Flat-index permutations for ShiftRows on a 16-byte block laid out in
# FIPS order (byte i sits at state row i % 4, column i // 4).
_SHIFT_IDX = np.array([0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11])
_INV_SHIFT_IDX = np.argsort(_SHIFT_IDX)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def key_from_hex(s):
    """Parse an AES-128 key given as exactly 32 hex digits."""
    # bytes.fromhex skips whitespace, so a 32-character string with spaces
    # would decode to fewer than 16 bytes; only hex digits are accepted.
    if len(s) != 32 or not set(s) <= set(string.hexdigits):
        raise ValueError(f"AES-128 key must be 32 hex digits, got {s!r}")
    return bytes.fromhex(s)


class KeySchedule:
    """Expanded AES-128 key: 11 round keys of 16 bytes each."""

    __slots__ = ("key", "round_keys")

    def __init__(self, key, round_keys):
        self.key = key
        self.round_keys = round_keys

    def __repr__(self):
        return f"KeySchedule(key={self.key.hex()})"


def expand_key(key):
    """FIPS-197 key expansion. Returns a KeySchedule with an (11, 16) array."""
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    for i in range(4, 4 * (N_ROUNDS + 1)):
        t = words[i - 1]
        if i % 4 == 0:
            t = ((t << 8) | (t >> 24)) & 0xFFFFFFFF  # RotWord
            t = int.from_bytes(bytes(int(_SBOX[b]) for b in t.to_bytes(4, "big")), "big")
            t ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ t)
    flat = b"".join(w.to_bytes(4, "big") for w in words)
    round_keys = np.frombuffer(flat, dtype=np.uint8).reshape(N_ROUNDS + 1, 16).copy()
    round_keys.setflags(write=False)
    return KeySchedule(key, round_keys)


def _mix_columns(state):
    a = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = a[:, :, 0], a[:, :, 1], a[:, :, 2], a[:, :, 3]
    out = np.empty_like(a)
    out[:, :, 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
    out[:, :, 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
    return out.reshape(-1, 16)


def _inv_mix_columns(state):
    a = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = a[:, :, 0], a[:, :, 1], a[:, :, 2], a[:, :, 3]
    out = np.empty_like(a)
    out[:, :, 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
    out[:, :, 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
    out[:, :, 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
    out[:, :, 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
    return out.reshape(-1, 16)


def _as_block_batch(blocks):
    b = np.asarray(blocks, dtype=np.uint8)
    if b.ndim != 2 or b.shape[1] != BLOCK_BYTES:
        raise ValueError(f"expected (B, 16) block batch, got shape {b.shape}")
    return b


def encrypt_batch(ks, blocks):
    """Encrypt a (B, 16) uint8 batch with the numpy reference path."""
    state = _as_block_batch(blocks) ^ ks.round_keys[0]
    for r in range(1, N_ROUNDS):
        state = _SBOX[state[:, _SHIFT_IDX]]
        state = _mix_columns(state) ^ ks.round_keys[r]
    return _SBOX[state[:, _SHIFT_IDX]] ^ ks.round_keys[N_ROUNDS]


def decrypt_batch(ks, blocks):
    """Decrypt a (B, 16) uint8 batch with the numpy reference path."""
    state = _as_block_batch(blocks) ^ ks.round_keys[N_ROUNDS]
    for r in range(N_ROUNDS - 1, 0, -1):
        state = _INV_SBOX[state[:, _INV_SHIFT_IDX]] ^ ks.round_keys[r]
        state = _inv_mix_columns(state)
    return _INV_SBOX[state[:, _INV_SHIFT_IDX]] ^ ks.round_keys[0]


def _block_to_batch(block):
    if len(block) != BLOCK_BITS:
        raise ValueError(f"expected a {BLOCK_BITS}-bit block, got {len(block)}")
    return np.frombuffer(block.to_bytes(), dtype=np.uint8).reshape(1, 16)


def encrypt_block(ks, pt):
    """Encrypt one 128-bit BitVec."""
    return BitVec.from_bytes(encrypt_batch(ks, _block_to_batch(pt)).tobytes(), BLOCK_BITS)


def decrypt_block(ks, ct):
    """Decrypt one 128-bit BitVec."""
    return BitVec.from_bytes(decrypt_batch(ks, _block_to_batch(ct)).tobytes(), BLOCK_BITS)


# Fixed probe blocks used to cross-check the two evaluation paths whenever
# an Aes128 is constructed.
_PROBE = np.array(
    [[0] * 16, [0xFF] * 16, list(range(16))],
    dtype=np.uint8,
)


class Aes128:
    """AES-128 in ECB, batches through OpenSSL (cross-checked against the
    numpy reference path on construction)."""

    def __init__(self, key):
        if isinstance(key, str):
            key = key_from_hex(key)
        self.schedule = expand_key(key)
        cipher = Cipher(algorithms.AES(key), modes.ECB())
        self._enc = cipher.encryptor()
        self._dec = cipher.decryptor()
        ok = np.array_equal(encrypt_batch(self.schedule, _PROBE), self._openssl(self._enc, _PROBE)) and np.array_equal(
            decrypt_batch(self.schedule, _PROBE), self._openssl(self._dec, _PROBE)
        )
        if not ok:
            raise RuntimeError("OpenSSL disagrees with reference AES")

    @property
    def key(self):
        return self.schedule.key

    @staticmethod
    def _openssl(ctx, blocks):
        blocks = np.ascontiguousarray(_as_block_batch(blocks))
        # OpenSSL writes straight into a numpy array: update() returns bytes
        # whose allocation slows sharply past about 2^14 blocks per call.
        # update_into wants room for one block more than it writes, and the
        # array is fresh on every call, so no result aliases a later one.
        out = np.empty((len(blocks) + 1, BLOCK_BYTES), dtype=np.uint8)
        ctx.update_into(blocks, out)
        return out[: len(blocks)]

    def encrypt_batch(self, blocks):
        return self._openssl(self._enc, blocks)

    def decrypt_batch(self, blocks):
        return self._openssl(self._dec, blocks)

    def encrypt(self, pt):
        return BitVec.from_bytes(self.encrypt_batch(_block_to_batch(pt)).tobytes(), BLOCK_BITS)

    def decrypt(self, ct):
        return BitVec.from_bytes(self.decrypt_batch(_block_to_batch(ct)).tobytes(), BLOCK_BITS)

    def __reduce__(self):
        # OpenSSL cipher contexts do not pickle; rebuild from the key.
        return (Aes128, (self.key,))
