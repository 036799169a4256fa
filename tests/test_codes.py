"""Encoders and membership oracles for both code families."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aesfec.aes_core import Aes128, expand_key, decrypt_block
from aesfec.bitblock import BitVec, concat, split
from aesfec.codes import (
    AesPadOracle,
    CodeParams,
    RlcOracle,
    aes_encode,
    message_bit_mask,
    pad_bit_mask,
    rlc_encode,
    rlc_generate,
)

PARAMS = CodeParams(n=128, k=116)


def decoded_message(oracle, word):
    """The k-bit message the oracle decodes one BitVec word to, or None if it rejects the word."""
    ok, blocks = oracle.decode_batch(np.frombuffer(word.to_bytes(), np.uint8).reshape(1, -1))
    if not ok[0]:
        return None
    return split(BitVec.from_bytes(blocks[0].tobytes(), oracle.params.n), oracle.params.k)[0]


def test_code_params_validation():
    assert PARAMS.rate == 116 / 128
    assert PARAMS.pad_bits == 12
    assert PARAMS.nbytes == 16
    for n, k in ((128, 0), (128, 129), (0, 0), (128, -1)):
        with pytest.raises(ValueError):
            CodeParams(n=n, k=k)


def test_bit_masks_partition_the_word():
    m = np.frombuffer(message_bit_mask(PARAMS), np.uint8)
    p = np.frombuffer(pad_bit_mask(PARAMS), np.uint8)
    assert np.array_equal(m ^ p, np.full(16, 0xFF, np.uint8))
    bits = np.unpackbits(m)
    assert bits[:116].all() and not bits[116:].any()


class TestAesCode:
    def setup_method(self):
        self.cipher = Aes128("000102030405060708090a0b0c0d0e0f")
        self.oracle = AesPadOracle(PARAMS, self.cipher)

    def test_encode_is_encrypt_of_zero_padded_message(self):
        rng = np.random.default_rng(3)
        m = BitVec.random(116, rng)
        cw = aes_encode(m, PARAMS, self.cipher)
        assert len(cw) == 128
        ks = expand_key(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        pt = decrypt_block(ks, cw)
        head, tail = split(pt, 116)
        assert head == m
        assert tail == BitVec.zeros(12)

    def test_oracle_accepts_codewords_and_returns_message(self):
        rng = np.random.default_rng(4)
        for _ in range(32):
            m = BitVec.random(116, rng)
            cw = aes_encode(m, PARAMS, self.cipher)
            assert decoded_message(self.oracle, cw) == m

    def test_oracle_rejects_noncodewords_mostly(self):
        # a wrong word passes with probability 2^-12; 64 tweaks all failing
        # is overwhelmingly likely for a correct oracle
        rng = np.random.default_rng(5)
        m = BitVec.random(116, rng)
        cw = aes_encode(m, PARAMS, self.cipher)
        rejected = 0
        for pos in range(64):
            flip = BitVec.from_array(
                np.eye(128, dtype=np.uint8)[pos]
            )
            if decoded_message(self.oracle, cw ^ flip) is None:
                rejected += 1
        assert rejected == 64

    def test_decode_batch_shapes_and_first_accept(self):
        rng = np.random.default_rng(6)
        m = BitVec.random(116, rng)
        cw = aes_encode(m, PARAMS, self.cipher)
        junk = rng.integers(0, 256, size=(3, 16), dtype=np.uint8)
        words = np.vstack([junk, np.frombuffer(cw.to_bytes(), np.uint8)])
        ok, decoded = self.oracle.decode_batch(words)
        assert ok.shape == (4,) and decoded.shape == (4, 16)
        assert ok.tolist() == [False, False, False, True]
        padded = concat(m, BitVec.zeros(12))
        assert bytes(decoded[3]) == padded.to_bytes()

    def test_oracle_key_forms(self):
        by_key = AesPadOracle(PARAMS, "000102030405060708090a0b0c0d0e0f")
        rng = np.random.default_rng(7)
        m = BitVec.random(116, rng)
        assert decoded_message(by_key, aes_encode(m, PARAMS, self.cipher)) == m

    def test_requires_full_block_length(self):
        with pytest.raises(ValueError):
            AesPadOracle(CodeParams(n=64, k=52), self.cipher)

    def test_successive_results_do_not_share_memory(self):
        words = np.random.default_rng(8).integers(0, 256, size=(32, 16), dtype=np.uint8)
        ok1, pt1 = self.oracle.decode_batch(words)
        ok2, pt2 = self.oracle.decode_batch(words[::-1])
        assert not np.shares_memory(pt1, pt2) and not np.shares_memory(ok1, ok2)
        assert np.array_equal(pt1, pt2[::-1])


@pytest.mark.parametrize("k", [1, 63, 64, 65, 116, 127, 128])
def test_aes_lane_pad_check_matches_bytewise_reference(k):
    params = CodeParams(n=128, k=k)
    cipher = Aes128("000102030405060708090a0b0c0d0e0f")
    oracle = AesPadOracle(params, cipher)
    rng = np.random.default_rng(k)
    mask = pad_bit_mask(params)
    pt = rng.integers(0, 256, size=(600, 16), dtype=np.uint8)
    # Rows 0-199 keep random pads, rows 200-399 get a zero pad and rows
    # 400-599 a zero pad but for one bit, which runs over every pad position.
    pt[200:] &= ~mask
    pad_positions = np.flatnonzero(np.unpackbits(mask))
    if pad_positions.size:
        for row, pos in zip(range(400, 600), np.resize(pad_positions, 200)):
            pt[row, pos >> 3] |= 0x80 >> (pos & 7)
    ok, got = oracle.decode_batch(cipher.encrypt_batch(pt))
    assert np.array_equal(got, pt)
    assert np.array_equal(ok, ~np.any(pt & mask, axis=1))
    assert ok[200:400].all()
    assert ok[400:].all() if k == 128 else not ok[400:].any()


class TestRlc:
    def setup_method(self):
        self.code = rlc_generate(PARAMS, seed=1)
        self.oracle = RlcOracle(self.code)

    def test_generator_is_systematic(self):
        g = self.code.generator_matrix
        assert g.shape == (116, 128)
        assert np.array_equal(g[:, :116], np.eye(116, dtype=np.uint8))
        assert np.array_equal(g[:, 116:], self.code.P)

    def test_parity_check_annihilates_generator(self):
        g = self.code.generator_matrix
        h = self.code.parity_check_matrix
        assert h.shape == (12, 128)
        assert not ((g @ h.T) & 1).any()

    def test_encode_matches_matmul_and_embeds_message(self):
        rng = np.random.default_rng(8)
        msgs = rng.integers(0, 2, size=(50, 116), dtype=np.uint8)
        cw = self.code.encode_bits(msgs)
        assert np.array_equal(cw, (msgs @ self.code.generator_matrix) & 1)
        assert np.array_equal(cw[:, :116], msgs)

    def test_rlc_encode_bitvec(self):
        rng = np.random.default_rng(9)
        m = BitVec.random(116, rng)
        cw = rlc_encode(m, self.code)
        head, _ = split(cw, 116)
        assert head == m
        assert decoded_message(self.oracle, cw) == m

    def test_oracle_rejects_single_flips(self):
        rng = np.random.default_rng(10)
        cw = rlc_encode(BitVec.random(116, rng), self.code)
        # single flips are never codewords: minimum distance exceeds 1
        # for this draw (no all-zero row in P)
        for pos in range(0, 128, 7):
            flip = BitVec.from_array(np.eye(128, dtype=np.uint8)[pos])
            assert decoded_message(self.oracle, cw ^ flip) is None

    def test_seeded_draw_is_reproducible(self):
        again = rlc_generate(PARAMS, seed=1)
        assert np.array_equal(again.P, self.code.P)
        other = rlc_generate(PARAMS, seed=2)
        assert not np.array_equal(other.P, self.code.P)


class TestSmallRlcExhaustive:
    """[12,8] code: short enough to check the oracle against the codebook."""

    def setup_method(self):
        self.params = CodeParams(n=12, k=8)
        self.code = rlc_generate(self.params, seed=2)
        self.oracle = RlcOracle(self.code)
        msgs = np.array(
            [[(m >> (7 - i)) & 1 for i in range(8)] for m in range(256)],
            dtype=np.uint8,
        )
        cw = self.code.encode_bits(msgs)
        self.codebook = {
            int.from_bytes(np.packbits(row).tobytes(), "big"): m
            for m, row in enumerate(cw)
        }

    def test_oracle_agrees_with_codebook_on_all_words(self):
        words = np.zeros((4096, 2), dtype=np.uint8)
        for w in range(4096):
            words[w] = np.frombuffer((w << 4).to_bytes(2, "big"), np.uint8)
        ok, decoded = self.oracle.decode_batch(words)
        for w in range(4096):
            assert bool(ok[w]) == ((w << 4) in self.codebook)


# One geometry per shape the syndrome tables must handle: the pinned code,
# a single (odd) byte, n not a multiple of 8, n - k = 0, n - k above 16,
# and n - k above 64 with an odd byte count.
GEOMETRIES = [(128, 116), (8, 4), (12, 8), (16, 16), (40, 20), (100, 30)]


def _word_layouts(words):
    """The same rows as a C array, a strided row view, a Fortran array and a column slice."""
    spaced = np.repeat(words, 2, axis=0)[::2]
    wide = np.zeros((words.shape[0], words.shape[1] + 3), dtype=np.uint8)
    wide[:, 1:-2] = words
    return [words, spaced, np.asfortranarray(words), wide[:, 1:-2]]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GEOMETRIES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.floats(0.0, 0.2),
)
def test_rlc_tables_match_matrix_reference(geometry, seed, batch, flip_rate):
    n, k = geometry
    code = rlc_generate(CodeParams(n=n, k=k), seed=seed)
    oracle = RlcOracle(code)
    g = code.generator_matrix.astype(np.int64)
    h = code.parity_check_matrix.astype(np.int64)
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, size=(batch, k), dtype=np.uint8)
    cw = code.encode_bits(msgs)
    assert np.array_equal(cw, (msgs @ g) & 1)
    # Codewords with sparse flips: some rows are codewords, some are not.
    bits = cw ^ (rng.random(cw.shape) < flip_rate).astype(np.uint8)
    words = np.packbits(bits, axis=1)
    # Unused trailing bits of the last byte must be ignored.
    words[:, -1] |= rng.integers(0, 256, batch, dtype=np.uint8) & ~np.packbits(np.ones(n, np.uint8))[-1]
    want = ((bits.astype(np.int64) @ h.T) % 2 == 0).all(axis=1)
    for layout in _word_layouts(words):
        ok, decoded = oracle.decode_batch(layout)
        assert np.array_equal(ok, want)
        assert np.array_equal(decoded, np.packbits(bits, axis=1))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GEOMETRIES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.floats(0.0, 0.5),
)
def test_rlc_images_are_the_linear_syndrome_map(geometry, seed, batch, flip_rate):
    n, k = geometry
    code = rlc_generate(CodeParams(n=n, k=k), seed=seed)
    oracle = RlcOracle(code)
    h = code.parity_check_matrix.astype(np.int64)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=(batch, n), dtype=np.uint8)
    e = (rng.random((batch, n)) < flip_rate).astype(np.uint8)

    def image(bits):
        return oracle.images(np.packbits(bits, axis=1))

    def syndrome_bytes(bits):
        # (bits @ H^T) % 2, packed like the image, zero bits past n - k.
        syn = (bits.astype(np.int64) @ h.T) % 2
        return np.packbits(syn.astype(np.uint8), axis=1) if n > k else np.zeros((len(bits), 0), np.uint8)

    columns = oracle.image_columns()
    width = columns.shape[1]
    assert columns.shape == (n, width) and columns.dtype == np.uint8
    # Codewords and the one-bit words too: a parity flip past row 64 leaves
    # the first lane of the syndrome zero.
    codewords = code.encode_bits(rng.integers(0, 2, size=(batch, k), dtype=np.uint8))
    for bits in (y, e, y ^ e, codewords, np.eye(n, dtype=np.uint8)):
        img = image(bits)
        assert img.shape == (len(bits), width) and img.dtype == np.uint8
        want = syndrome_bytes(bits)
        assert np.array_equal(img[:, : want.shape[1]], want)
        assert not img[:, want.shape[1] :].any()
        assert np.array_equal(oracle.accept_images(img), ~want.any(axis=1))
    # Linear: image(y ^ e) = image(y) ^ image(e), and image(e) is the XOR of
    # the column images of e's bits.
    assert np.array_equal(image(y ^ e), image(y) ^ image(e))
    xor_of_columns = np.zeros((batch, width), dtype=np.uint8)
    for r in range(batch):
        for p in np.flatnonzero(e[r]):
            xor_of_columns[r] ^= columns[p]
    assert np.array_equal(image(e), xor_of_columns)


def test_rlc_rejects_misshapen_inputs():
    code = rlc_generate(PARAMS, seed=1)
    with pytest.raises(ValueError):
        code.encode_bits(np.zeros((4, 115), np.uint8))
    with pytest.raises(ValueError):
        RlcOracle(code).decode_batch(np.zeros((4, 15), np.uint8))
    assert not code.P.flags.writeable


def test_rlc_table_build_is_cheap():
    # Every process pays this once per grid point, inside set-up time.
    t0 = time.perf_counter()
    for seed in range(20):
        code = rlc_generate(PARAMS, seed=seed)
    assert (time.perf_counter() - t0) / 20 < 0.02
    # One 16-bit entry per (byte position, byte value).
    assert sum(t.nbytes for t in code._tables) == 16 * 256 * 2


def test_campaign_worker_builds_tables_once_per_point(monkeypatch):
    from aesfec import campaign, codes

    calls = []
    build = codes._syndrome_tables

    def counting(h, nbytes):
        calls.append(nbytes)
        return build(h, nbytes)

    class Conn:
        def __init__(self):
            self.sent = []

        def send_bytes(self, buf):
            self.sent.append(campaign._HEADER.unpack_from(buf))

        def close(self):
            pass

    monkeypatch.setattr(codes, "_syndrome_tables", counting)
    config = campaign.CampaignConfig(code_kind="rlc", ebn0_grid_db=(7.0, 8.0), max_blocks=3 * campaign.TRIAL_BATCH)
    stop = [3, 3]  # no point stops early
    # Both workers of a two-worker campaign, run here one after the other.
    for rank in (0, 1):
        conn = Conn()
        campaign._worker(config, rank, 2, stop, conn)
        assert conn.sent == [(p, b) for p in (0, 1) for b in range(rank, 3, 2)]
    assert calls == [16, 16, 16, 16]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**116 - 1))
def test_aes_round_trip_any_message(m_int):
    cipher = Aes128("000102030405060708090a0b0c0d0e0f")
    m = BitVec(m_int, 116)
    cw = aes_encode(m, PARAMS, cipher)
    oracle = AesPadOracle(PARAMS, cipher)
    assert decoded_message(oracle, cw) == m
