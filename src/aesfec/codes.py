"""Code constructions and codebook-membership oracles.

The AES code encrypts a k-bit message padded with n-k zero bits; membership
of a 128-bit word is tested by decrypting it and checking that the padding
positions come back zero. A uniformly random non-codeword passes that check
with probability exactly 2^-(n-k) because decryption is a bijection, so the
oracle has a known, small false-acceptance rate rather than none.

The baseline is a systematic random linear code G = [I_k | P] whose oracle
checks the syndrome H y^T = 0 with H = [P^T | I_{n-k}]. The syndrome is
linear, so the code precomputes, for every byte position j and byte value v,
the syndrome of the word that is v at byte j and zero elsewhere; a word's
syndrome is then the XOR of one table lookup per byte. The same tables
encode: the syndrome of the zero-padded message [m | 0] is the parity m P.

Oracles work on batches of packed words, one row of ceil(n/8) bytes per
word, bit position p at byte p >> 3, mask 0x80 >> (p & 7). That layout is
what np.packbits produces.

The guessing decoders do not hand an oracle ready-made candidate words.
They work on images: an oracle maps words to rows of bytes by a map that
is linear over GF(2), image(y ^ e) = image(y) ^ image(e), and accepts or
rejects an image. A candidate's image is then the received word's image
XORed with the images of the positions its pattern flips, and the oracle
tests it without the candidate word ever being built. By default the image
of a word is the word itself and acceptance is decode_batch, so an oracle
that defines only decode_batch (the AES oracle among them) is asked about
exactly the words it was always asked about. The RLC oracle's image is the
syndrome, n - k bits packed into lanes, and it accepts an image iff it is
zero: the same answer decode_batch gives for the word, because the
syndrome of y ^ e is s(y) ^ s(e) exactly. Candidate tests thus cost a
2-byte XOR and compare at [128, 116] instead of one table lookup per byte.
"""

from __future__ import annotations

import functools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .aes_core import BLOCK_BITS
from .bitblock import BitVec, concat

__all__ = [
    "CodeParams",
    "MembershipOracle",
    "AesPadOracle",
    "RlcCode",
    "RlcOracle",
    "aes_encode",
    "rlc_generate",
    "message_bit_mask",
    "pad_bit_mask",
    "one_bit_masks",
]


def integer(name, value, low, high=None):
    """value as a plain int in [low, high) (high None: no upper bound), or
    a ValueError that names it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or high is not None and value >= high:
        raise ValueError(f"{name} must be >= {low}" + ("" if high is None else f" and <= {high - 1}") + f", got {value}")
    return value


@dataclass(frozen=True)
class CodeParams:
    """Block length n and message length k of an (n, k) code."""

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", integer("n", self.n, 1))
        object.__setattr__(self, "k", integer("k", self.k, 1, self.n + 1))

    @property
    def rate(self):
        return self.k / self.n

    @property
    def pad_bits(self):
        return self.n - self.k

    @property
    def nbytes(self):
        return (self.n + 7) // 8


def _position_mask(params, positions):
    bits = np.zeros(8 * params.nbytes, dtype=np.uint8)
    bits[positions] = 1
    return np.packbits(bits)


def message_bit_mask(params):
    """Packed mask selecting the first k bit positions of an n-bit word."""
    return _position_mask(params, np.arange(params.k))


def pad_bit_mask(params):
    """Packed mask selecting the last n-k bit positions of an n-bit word."""
    return _position_mask(params, np.arange(params.k, params.n))


_BUFFERS = {}  # role -> uint8 buffer, grown to the largest array asked of it


def scratch(role, shape, dtype):
    """An uninitialised array in role's buffer, valid until role's next use.

    One buffer per role serves the whole process (the search core's step
    arrays, the AES oracle's plaintexts, a campaign's hard bits):
    transients their size would each be mapped and unmapped by the
    allocator, a page fault per 4 KiB touched.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = _BUFFERS.get(role, bytearray())  # writable, for a 0-byte array too
    if len(buf) < nbytes:
        buf = _BUFFERS[role] = np.empty(max(nbytes, 2 * len(buf)), dtype=np.uint8)
    return np.ndarray(shape, dtype, buf)


@functools.cache
def one_bit_masks(n):
    """(n, ceil(n/8)) packed words, read-only; row p flips position p."""
    masks = np.packbits(np.eye(n, dtype=np.uint8), axis=1)
    masks.setflags(write=False)
    return masks


class MembershipOracle(ABC):
    """Answers whether a hard-decision word is a codeword, and for which message.

    decode_batch is the vectorized core; everything else is sugar on top of
    it. Decoded blocks are returned for every row but are only meaningful
    where the acceptance mask is True.

    image_columns, images and accept_images are what the guessing decoders
    test candidates through (see the module docstring). The defaults make
    the image of a word the word itself; a subclass that overrides them must
    keep the image map linear and accept_images(images(w)) equal to
    decode_batch(w)[0].
    """

    def __init__(self, params):
        self.params = params

    @abstractmethod
    def decode_batch(self, words):
        """(B, nbytes) packed words -> (accept mask (B,), decoded blocks (B, nbytes))."""

    def image_columns(self):
        """(n, w) uint8: row p is the image of the word that flips only position p."""
        return one_bit_masks(self.params.n)

    def images(self, words):
        """(B, nbytes) packed words -> (B, w) uint8 images."""
        return words

    def accept_images(self, images):
        """(B, w) images -> (B,) bool, True where the word imaged is a codeword."""
        return self.decode_batch(images)[0]

    def accept_mask(self, words):
        return self.decode_batch(words)[0]


class AesPadOracle(MembershipOracle):
    """Membership test for the AES code: decrypt, accept iff padding is zero.

    One oracle query costs exactly one AES decryption; the plaintext from
    that same decryption is the decoded block. The pad check reads each
    plaintext as two uint64 lanes and ANDs only the lanes the pad mask
    touches (lane 0 holds positions 0-63, lane 1 positions 64-127), which is
    exact for every k because both sides are viewed the same way.

    accept_images decrypts into the process's "plaintexts" scratch buffer
    and masks the pad there; decode_batch's fresh results never alias it or
    one another.
    """

    def __init__(self, params, cipher):
        if params.n != BLOCK_BITS:
            raise ValueError(f"AES code needs n = {BLOCK_BITS}, got n = {params.n}")
        super().__init__(params)
        self.cipher = cipher
        # The pad is positions k..127, so it touches the lanes from k // 64 on.
        self._pad_lanes = slice(params.k // 64, 2)
        self._pad_mask = pad_bit_mask(params).view(np.uint64)[self._pad_lanes]

    def decode_batch(self, words):
        pt = self.cipher.decrypt_batch(words)
        ok = ~np.any(pt.view(np.uint64)[:, self._pad_lanes] & self._pad_mask, axis=1)
        return ok, pt

    def accept_images(self, images):
        plain = scratch("plaintexts", (len(images) + 1, 16), np.uint8)
        pad = self.cipher.decrypt_batch(images, out=plain).view(np.uint64)[:, self._pad_lanes]
        return ~np.any(np.bitwise_and(pad, self._pad_mask, out=pad), axis=1)


def aes_encode(m, params, cipher):
    """Zero-pad a k-bit message to 128 bits and encrypt it."""
    if len(m) != params.k:
        raise ValueError(f"expected {params.k}-bit message, got {len(m)}")
    if params.n != BLOCK_BITS:
        raise ValueError(f"AES code needs n = {BLOCK_BITS}, got n = {params.n}")
    return cipher.encrypt(concat(m, BitVec.zeros(params.pad_bits)))


class RlcCode:
    """Systematic random linear code defined by its parity block P."""

    def __init__(self, params, p_matrix):
        p = np.array(p_matrix, dtype=np.uint8)
        if p.shape != (params.k, params.pad_bits):
            raise ValueError(f"P must be {(params.k, params.pad_bits)}, got {p.shape}")
        if p.size and p.max() > 1:
            raise ValueError("P must be binary")
        self.params = params
        # The syndrome tables are derived from P once, so P is frozen.
        p.setflags(write=False)
        self.P = p
        self._tables, self._offsets = _syndrome_tables(self.parity_check_matrix, params.nbytes)

    @property
    def parity_check_matrix(self):
        return np.hstack([self.P.T, np.eye(self.params.pad_bits, dtype=np.uint8)])

    def syndromes(self, words):
        """(B, m) packed words, m <= nbytes -> (B, lanes) syndromes, zero iff H y^T = 0.

        A word shorter than nbytes is read as zero-extended to n bits.
        """
        idx = words.T + self._offsets[: words.shape[1]]
        syn = np.empty((words.shape[0], len(self._tables)), self._tables[0].dtype)
        for lane, table in enumerate(self._tables):
            np.bitwise_xor.reduce(table.take(idx), axis=0, out=syn[:, lane])
        return syn

    def encode_bits(self, msgs):
        """(B, k) message bits -> (B, n) codeword bits."""
        msgs = np.asarray(msgs, dtype=np.uint8)
        if msgs.ndim != 2 or msgs.shape[1] != self.params.k:
            raise ValueError(f"expected (B, {self.params.k}) message bits, got shape {msgs.shape}")
        return np.unpackbits(self.encode(np.packbits(msgs, axis=1)), axis=1, count=self.params.n)

    def encode(self, words):
        """(B, m) packed messages, m <= nbytes, zero from bit k -> (B, nbytes) packed codewords."""
        k = self.params.k
        # The parity, the word's syndrome, from bit k: each byte spans two.
        parity = self.syndromes(words).view(np.uint8)[:, : -(-self.params.pad_bits // 8)] << np.uint16(8 - k % 8)
        out = np.zeros((len(words), k // 8 + parity.shape[1] + 1), np.uint8)
        out[:, : words.shape[1]] = words
        out[:, k // 8 : -1] |= parity >> 8
        out[:, k // 8 + 1 :] |= parity  # the low bytes
        return out[:, : self.params.nbytes]


def _syndrome_tables(h, nbytes):
    """Per-byte syndrome tables of an (r, n) parity-check matrix h.

    Syndromes are packed like words (row i at byte i >> 3, mask 0x80 >> (i & 7))
    into lanes of the smallest unsigned integer that holds min(r, 64) bits,
    one lane per 64 rows. XOR acts bytewise, so byte order never matters.
    Returns one flat table per lane, entry 256 j + v being the syndrome of
    byte value v at byte j, and the per-byte index offsets 256 j as a column.
    """
    r, n = h.shape
    sbytes = max(1, -(-r // 8))
    lane = np.dtype(f"u{min(8, 1 << (sbytes - 1).bit_length())}")
    lanes = -(-sbytes // lane.itemsize)
    # Column syndromes; positions past n (the unused bits of the last byte)
    # keep a zero column, so they never affect a syndrome.
    cols = np.zeros((8 * nbytes, 8 * lane.itemsize * lanes), dtype=np.uint8)
    cols[:n, :r] = h.T
    cols = np.packbits(cols, axis=1).reshape(nbytes, 8, -1)
    # Double the table once per bit, least significant (position 8j + 7) first.
    table = np.zeros((nbytes, 1, cols.shape[2]), dtype=np.uint8)
    for b in range(7, -1, -1):
        table = np.concatenate([table, table ^ cols[:, b : b + 1]], axis=1)
    flat = table.reshape(256 * nbytes, -1).view(lane)
    offsets = (256 * np.arange(nbytes)).astype(np.min_scalar_type(256 * nbytes - 1))
    return [np.ascontiguousarray(flat[:, i]) for i in range(lanes)], offsets[:, None]


def rlc_generate(params, seed):
    """Draw a systematic RLC with i.i.d. uniform parity block from a seed."""
    rng = np.random.default_rng(seed)
    p = rng.integers(0, 2, size=(params.k, params.pad_bits), dtype=np.uint8)
    return RlcCode(params, p)


class RlcOracle(MembershipOracle):
    """Syndrome check H y^T = 0 on packed words via the code's byte tables.

    A word's image is its syndrome as bytes (RlcCode.syndromes viewed as
    uint8), and an image is accepted iff it is zero.
    """

    def __init__(self, code):
        super().__init__(code.params)
        self.code = code
        tail = 8 * self.params.nbytes - self.params.n
        self._word_mask = None
        if tail:
            # Decoded blocks carry zeros in the unused trailing bits of the
            # last byte; the syndrome ignores those bits anyway.
            self._word_mask = _position_mask(self.params, np.arange(self.params.n))
        # Images are tested a lane at a time, not a byte at a time.
        self._lane = code._tables[0].dtype
        self._columns = self.images(one_bit_masks(self.params.n))
        self._columns.setflags(write=False)

    def decode_batch(self, words):
        words = np.asarray(words, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != self.params.nbytes:
            raise ValueError(f"expected (B, {self.params.nbytes}) packed words, got shape {words.shape}")
        ok = self.accept_images(self.images(words))
        if self._word_mask is not None:
            words = words & self._word_mask
        return ok, words

    def image_columns(self):
        return self._columns

    def images(self, words):
        return self.code.syndromes(words).view(np.uint8)

    def accept_images(self, images):
        return ~np.ascontiguousarray(images).view(self._lane).any(axis=1)
