"""Fixed-length bit vectors plus message framing helpers.

Bit position 0 is the first transmitted bit and maps to the most significant
bit of the backing integer, so the hex form of a vector reads left to right
in transmission order. Packed-byte form puts position p at byte p >> 3,
mask 0x80 >> (p & 7); when the length is not a byte multiple the trailing
bits of the last byte are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitVec",
    "concat",
    "split",
]


@dataclass(frozen=True)
class BitVec:
    """Immutable bit vector of fixed length backed by a Python int."""

    _value: int
    _length: int

    def __post_init__(self):
        if self._length < 0:
            raise ValueError(f"length must be nonnegative, got {self._length}")
        if self._value < 0 or self._value >> self._length:
            raise ValueError(f"value {self._value:#x} does not fit in {self._length} bits")

    # construction

    @classmethod
    def zeros(cls, length):
        return cls(0, length)

    @classmethod
    def from_bits(cls, bits):
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            length += 1
        return cls(value, length)

    @classmethod
    def from_bytes(cls, data, length):
        nbytes = (length + 7) // 8
        if len(data) != nbytes:
            raise ValueError(f"expected {nbytes} bytes for {length} bits, got {len(data)}")
        packed = int.from_bytes(data, "big")
        pad = 8 * nbytes - length
        if packed & ((1 << pad) - 1):
            raise ValueError("nonzero trailing pad bits")
        return cls(packed >> pad, length)

    @classmethod
    def from_array(cls, arr):
        """Build from a 1-D numpy array of 0/1 values."""
        a = np.asarray(arr)
        if a.ndim != 1:
            raise ValueError(f"expected 1-D array, got shape {a.shape}")
        return cls.from_bits(int(b) for b in a)

    @classmethod
    def random(cls, length, rng):
        if length == 0:
            return cls(0, 0)
        nbytes = (length + 7) // 8
        packed = int.from_bytes(rng.bytes(nbytes), "big")
        return cls(packed >> (8 * nbytes - length), length)

    # views

    def to_int(self):
        return self._value

    def to_hex(self):
        digits = (self._length + 3) // 4
        return format(self._value, f"0{digits}x")

    def to_bytes(self):
        nbytes = (self._length + 7) // 8
        return (self._value << (8 * nbytes - self._length)).to_bytes(nbytes, "big")

    def to_array(self):
        return np.unpackbits(np.frombuffer(self.to_bytes(), dtype=np.uint8), count=self._length)

    # protocol

    def __len__(self):
        return self._length

    def __repr__(self):
        return f"BitVec(0x{self.to_hex()}, len={self._length})"


def concat(head, tail):
    """Concatenate: head occupies positions 0 .. len(head)-1 of the result."""
    return BitVec(
        (head.to_int() << len(tail)) | tail.to_int(),
        len(head) + len(tail),
    )


def split(vec, k):
    """Split into (first k bits, remaining bits). Inverse of concat."""
    n = len(vec)
    if not 0 <= k <= n:
        raise ValueError(f"split point {k} out of range for length {n}")
    tail_len = n - k
    v = vec.to_int()
    return BitVec(v >> tail_len, k), BitVec(v & ((1 << tail_len) - 1), tail_len)
