"""Cipher exactness against the published AES-128 test vectors.

Key/plaintext/ciphertext triples and the key-expansion walkthrough values
are transcribed from the standard's appendices; the numpy reference and the
OpenSSL backend must both reproduce them bit for bit.
"""

import pickle

import numpy as np
import pytest

from aesfec.aes_core import (
    Aes128,
    DEFAULT_KEY_HEX,
    KeySchedule,
    decrypt_batch,
    decrypt_block,
    encrypt_batch,
    encrypt_block,
    expand_key,
    key_from_hex,
)
from aesfec.bitblock import BitVec

KAT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KAT_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

WALKTHROUGH_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
WALKTHROUGH_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
WALKTHROUGH_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")


def test_known_answer_encrypt_decrypt():
    ks = expand_key(KAT_KEY)
    ct = encrypt_batch(ks, np.frombuffer(KAT_PT, np.uint8).reshape(1, 16))
    assert ct.tobytes() == KAT_CT
    pt = decrypt_batch(ks, np.frombuffer(KAT_CT, np.uint8).reshape(1, 16))
    assert pt.tobytes() == KAT_PT


def test_cipher_walkthrough_vector():
    ks = expand_key(WALKTHROUGH_KEY)
    ct = encrypt_batch(ks, np.frombuffer(WALKTHROUGH_PT, np.uint8).reshape(1, 16))
    assert ct.tobytes() == WALKTHROUGH_CT


def test_key_expansion_walkthrough():
    ks = expand_key(WALKTHROUGH_KEY)
    assert ks.round_keys.shape == (11, 16)
    assert ks.round_keys[0].tobytes() == WALKTHROUGH_KEY
    assert ks.round_keys[10].tobytes() == bytes.fromhex(
        "d014f9a8c9ee2589e13f0cc8b6630ca6"
    )
    # all-zero key: first expanded word is SubWord(0) repeated
    zero = expand_key(bytes(16))
    assert zero.round_keys[1][:4].tobytes() == bytes.fromhex("62636363")


def test_round_keys_read_only():
    ks = expand_key(KAT_KEY)
    with pytest.raises(ValueError):
        ks.round_keys[0, 0] = 0


def test_key_from_hex_validation():
    assert key_from_hex(DEFAULT_KEY_HEX) == KAT_KEY
    # bytes.fromhex would skip the spaces and return 15 bytes.
    for bad in ("00", "zz" * 16, "0" * 31, "00 0102030405060708090a0b0c0d0e "):
        with pytest.raises(ValueError):
            key_from_hex(bad)


def test_numpy_reference_round_trip():
    rng = np.random.default_rng(6)
    ks = expand_key(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
    blocks = rng.integers(0, 256, size=(256, 16), dtype=np.uint8)
    assert np.array_equal(decrypt_batch(ks, encrypt_batch(ks, blocks)), blocks)


def test_block_bitvec_interface():
    ks = expand_key(KAT_KEY)
    pt = BitVec.from_bytes(KAT_PT, 128)
    ct = encrypt_block(ks, pt)
    assert ct.to_bytes() == KAT_CT
    assert decrypt_block(ks, ct) == pt


def test_cipher_object_accepts_hex_and_pickles():
    c = Aes128(DEFAULT_KEY_HEX)
    assert c.encrypt(BitVec.from_bytes(KAT_PT, 128)).to_bytes() == KAT_CT
    clone = pickle.loads(pickle.dumps(c))
    assert clone.decrypt(BitVec.from_bytes(KAT_CT, 128)).to_bytes() == KAT_PT


def test_single_byte_batches_and_empty():
    c = Aes128(KAT_KEY)
    out = c.encrypt_batch(np.zeros((0, 16), dtype=np.uint8))
    assert out.shape == (0, 16)


def _layouts(blocks):
    """The same rows as a C array, a strided row view, a Fortran array and a column slice."""
    spaced = np.repeat(blocks, 2, axis=0)[::2]
    wide = np.zeros((len(blocks), 19), dtype=np.uint8)
    wide[:, 1:17] = blocks
    return [blocks, spaced, np.asfortranarray(blocks), wide[:, 1:17]]


@pytest.mark.parametrize("size", [0, 1, 4096, 16385])
def test_openssl_batches_match_reference_at_every_size(size):
    # 16385 blocks crosses the size at which bytes-returning OpenSSL calls
    # slowed down; the numpy reference is the ground truth at every size.
    rng = np.random.default_rng(size)
    blocks = rng.integers(0, 256, size=(size, 16), dtype=np.uint8)
    ks = expand_key(KAT_KEY)
    fast = Aes128(KAT_KEY)
    want_ct, want_pt = encrypt_batch(ks, blocks), decrypt_batch(ks, blocks)
    for layout in _layouts(blocks):
        ct, pt = fast.encrypt_batch(layout), fast.decrypt_batch(layout)
        assert ct.shape == pt.shape == (size, 16)
        assert np.array_equal(ct, want_ct) and np.array_equal(pt, want_pt)


def test_openssl_results_are_fresh_arrays():
    c = Aes128(KAT_KEY)
    blocks = np.random.default_rng(9).integers(0, 256, size=(64, 16), dtype=np.uint8)
    for fn in (c.encrypt_batch, c.decrypt_batch):
        first = fn(blocks)
        kept = first.copy()
        second = fn(blocks[::-1])
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
