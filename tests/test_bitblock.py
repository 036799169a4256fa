"""Bit-vector container: ordering conventions and round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aesfec.bitblock import (
    BitVec,
    concat,
    split,
)

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=200)


def test_position_zero_is_first_transmitted_bit():
    # "80" hex = 10000000: bit 0 set, the rest clear
    v = BitVec.from_hex("80", 8)
    assert v[0] == 1
    assert all(v[i] == 0 for i in range(1, 8))
    assert list(BitVec.from_bits([1, 0, 1, 1])) == [1, 0, 1, 1]


def test_hex_and_bytes_views():
    v = BitVec.from_hex("00112233445566778899aabbccddeeff", 128)
    assert v.to_hex() == "00112233445566778899aabbccddeeff"
    assert v.to_bytes() == bytes.fromhex("00112233445566778899aabbccddeeff")
    assert BitVec.from_bytes(v.to_bytes(), 128) == v


def test_partial_byte_padding():
    # 12-bit vector: to_bytes pads on the right within the last byte
    v = BitVec.from_bits([1] + [0] * 10 + [1])
    assert len(v) == 12
    assert v.to_bytes() == bytes([0b10000000, 0b00010000])
    assert BitVec.from_bytes(v.to_bytes(), 12) == v


def test_array_round_trip():
    arr = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1], dtype=np.uint8)
    v = BitVec.from_array(arr)
    assert np.array_equal(v.to_array(), arr)
    assert v.weight() == int(arr.sum())


def test_immutability_and_hash():
    v = BitVec.from_bits([1, 0, 1])
    with pytest.raises(AttributeError):
        v._value = 0
    assert hash(v) == hash(BitVec.from_bits([1, 0, 1]))
    assert v != BitVec.from_bits([1, 0, 1, 0])


def test_xor_requires_equal_length():
    with pytest.raises(ValueError):
        BitVec.zeros(4) ^ BitVec.zeros(5)


def test_zero_padding_and_random_message():
    pad = BitVec.zeros(12)
    assert len(pad) == 12 and pad.to_int() == 0
    rng = np.random.default_rng(7)
    m1 = BitVec.random(116, rng)
    assert len(m1) == 116
    m2 = BitVec.random(116, np.random.default_rng(7))
    assert m1 == m2


@given(bits_lists)
def test_bits_round_trip(bits):
    v = BitVec.from_bits(bits)
    assert list(v) == bits
    assert len(v) == len(bits)
    assert v.weight() == sum(bits)
    assert BitVec.from_array(v.to_array()) == v
    assert int(v.to_int()) == int("".join(map(str, bits)), 2)


@given(bits_lists)
def test_xor_involution(bits):
    v = BitVec.from_bits(bits)
    w = BitVec.random(len(bits), np.random.default_rng(0))
    assert (v ^ w) ^ w == v
    assert v ^ v == BitVec.zeros(len(bits))


@given(bits_lists, st.data())
def test_concat_split_inverse(bits, data):
    v = BitVec.from_bits(bits)
    k = data.draw(st.integers(0, len(bits)))
    head, tail = split(v, k)
    assert len(head) == k and len(tail) == len(bits) - k
    assert concat(head, tail) == v
