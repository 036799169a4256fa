"""Noise-guessing decoders: pattern orders, query accounting, budgets."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aesfec import grand
from aesfec.aes_core import Aes128
from aesfec.bitblock import BitVec, split
from aesfec.channel import (
    SoftWord,
    add_awgn,
    awgn_samples,
    hard_bits,
    hard_decision,
    llr_from_samples,
    modulate,
    sigma_from_ebn0,
)
from aesfec.codes import AesPadOracle, CodeParams, MembershipOracle, RlcOracle, aes_encode, one_bit_masks, rlc_generate
from aesfec.grand import (
    DEFAULT_MAX_QUERIES,
    grand_decode,
    guess,
    hamming_order_patterns,
    logistic_order_patterns,
    orbgrand_decode,
)

PARAMS = CodeParams(n=128, k=116)
KEY = "000102030405060708090a0b0c0d0e0f"


def brute_hamming(n):
    return sorted(range(1 << n), key=lambda p: (bin(p).count("1"), p))


def brute_logistic(n):
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    return sorted(subsets, key=lambda s: (sum(s), len(s), s))


def test_hamming_order_small_exact():
    assert list(hamming_order_patterns(3)) == [0, 1, 2, 4, 3, 5, 6, 7]


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_hamming_order_matches_brute_force(n):
    assert list(hamming_order_patterns(n)) == brute_hamming(n)


def test_logistic_order_prefix():
    gen = logistic_order_patterns(4)
    first = [next(gen) for _ in range(7)]
    assert first == [(), (1,), (2,), (3,), (1, 2), (4,), (1, 3)]


@pytest.mark.parametrize("n", [1, 2, 4, 6, 9])
def test_logistic_order_matches_brute_force(n):
    assert list(logistic_order_patterns(n)) == brute_logistic(n)


def test_logistic_order_is_lazy():
    gen = logistic_order_patterns(128)
    head = [next(gen) for _ in range(4)]
    assert head == [(), (1,), (2,), (3,)]


class TestGrand:
    def setup_method(self):
        self.cipher = Aes128(KEY)
        self.oracle = AesPadOracle(PARAMS, self.cipher)
        self.m = BitVec.random(116, np.random.default_rng(21))
        self.cw = aes_encode(self.m, PARAMS, self.cipher)

    def test_noiseless_single_query(self):
        out = grand_decode(self.cw, self.oracle)
        assert out.decoded and not out.abandoned
        assert out.message == self.m
        assert out.queries == 1
        assert out.final_weight == 0

    @pytest.mark.parametrize("pos", [0, 5, 64, 127])
    def test_single_flip_query_count(self, pos):
        flip = BitVec.from_array(np.eye(128, dtype=np.uint8)[pos])
        out = grand_decode(self.cw ^ flip, self.oracle)
        assert out.message == self.m
        # weight-1 patterns are tried in increasing word value: pattern
        # for position p is the (p+1)-th, after the zero pattern
        assert out.queries == pos + 2
        assert out.final_weight == 1

    def test_double_flip_weight(self):
        # positions 0 and 1 form the first weight-2 pattern, so the true
        # pattern is reached at query 1 + 128 + 1
        flip = BitVec.from_array(
            (np.eye(128, dtype=np.uint8)[0] + np.eye(128, dtype=np.uint8)[1])
        )
        out = grand_decode(self.cw ^ flip, self.oracle, max_queries=DEFAULT_MAX_QUERIES)
        assert out.message == self.m
        assert out.final_weight == 2
        assert out.queries == 130

    def test_budget_abandonment(self):
        flip = BitVec.from_array(np.eye(128, dtype=np.uint8)[100])
        out = grand_decode(self.cw ^ flip, self.oracle, max_queries=50)
        assert out.abandoned and not out.decoded
        assert out.message is None
        assert out.queries == 50
        assert out.final_weight is None

    def test_budget_exactly_sufficient(self):
        flip = BitVec.from_array(np.eye(128, dtype=np.uint8)[100])
        out = grand_decode(self.cw ^ flip, self.oracle, max_queries=102)
        assert out.message == self.m
        assert out.queries == 102


class TestGrandIsMinimumDistance:
    """[8,4] code, every received word: first-in-order codeword wins."""

    def setup_method(self):
        params = CodeParams(n=8, k=4)
        self.code = rlc_generate(params, seed=3)
        self.oracle = RlcOracle(self.code)
        msgs = np.array(
            [[(m >> (3 - i)) & 1 for i in range(4)] for m in range(16)],
            dtype=np.uint8,
        )
        cw = self.code.encode_bits(msgs)
        self.codebook = {}
        for m, row in enumerate(cw):
            word = int("".join(map(str, row)), 2)
            self.codebook[word] = m

    def brute_decode(self, y_int):
        # first pattern in test order explaining y as a codeword; pattern
        # ints index transmitted positions from the LSB side, so mirror
        # them onto the 8-bit word before xoring
        for pat in brute_hamming(8):
            mirrored = int(f"{pat:08b}"[::-1], 2)
            cand = y_int ^ mirrored
            if cand in self.codebook:
                return self.codebook[cand], bin(pat).count("1")
        raise AssertionError("pattern space exhausted")

    def test_all_words_match_brute_force(self):
        for y_int in range(256):
            y = BitVec(y_int, 8)
            out = grand_decode(y, self.oracle, max_queries=300)
            want_msg, want_w = self.brute_decode(y_int)
            assert out.message == BitVec(want_msg, 4)
            assert out.final_weight == want_w
            dists = [
                bin(y_int ^ c).count("1") for c in self.codebook
            ]
            assert want_w == min(dists)


class TestOrbgrand:
    def setup_method(self):
        self.cipher = Aes128(KEY)
        self.oracle = AesPadOracle(PARAMS, self.cipher)
        self.m = BitVec.random(116, np.random.default_rng(22))
        self.cw = aes_encode(self.m, PARAMS, self.cipher)
        self.sigma = 0.3

    def soft_word(self, flips_with_magnitude):
        """Clean BPSK samples, then force given positions to flip with a
        chosen |sample| so their reliability rank is controlled."""
        x = modulate(self.cw)
        y = x.copy()
        for pos, mag in flips_with_magnitude:
            y[pos] = -x[pos] * mag
        return SoftWord(
            samples=y,
            llrs=2.0 * y / self.sigma**2,
            sigma=self.sigma,
        )

    def test_noiseless_single_query(self):
        word = self.soft_word([])
        out = orbgrand_decode(word, self.oracle)
        assert out.message == self.m
        assert out.queries == 1
        assert out.final_weight == 0

    def test_least_reliable_flip_found_second(self):
        word = self.soft_word([(77, 0.01)])
        out = orbgrand_decode(word, self.oracle)
        assert out.message == self.m
        assert out.queries == 2
        assert out.final_weight == 1

    def test_rank_two_flip_found_third(self):
        # position 12 flipped at magnitude 0.5: still below the clean
        # magnitude 1.0 of every other position, but position 3 is made
        # even less reliable without flipping it
        x = modulate(self.cw)
        y = x.copy()
        y[12] = -x[12] * 0.5
        y[3] = x[3] * 0.2
        word = SoftWord(samples=y, llrs=2.0 * y / self.sigma**2, sigma=self.sigma)
        out = orbgrand_decode(word, self.oracle)
        assert out.message == self.m
        # patterns: {} then rank {1} (position 3, wrong) then rank {2}
        assert out.queries == 3
        assert out.final_weight == 2

    def test_two_flips_rank_sum(self):
        word = self.soft_word([(40, 0.01), (90, 0.02)])
        out = orbgrand_decode(word, self.oracle)
        assert out.message == self.m
        # order is (rank sum, set size, lex): {} {1} {2} {3} {1,2}; the
        # query for {3} flips a clean position and is rejected
        assert out.final_weight == 3
        assert out.queries == 5

    def test_budget_abandonment(self):
        word = self.soft_word([(40, 0.01), (90, 0.02)])
        out = orbgrand_decode(word, self.oracle, max_queries=3)
        assert out.abandoned
        assert out.message is None
        assert out.queries == 3
        assert out.final_weight is None

    def test_agrees_with_hard_decision_on_clean_word(self):
        rng = np.random.default_rng(30)
        word = add_awgn(modulate(self.cw), 1e-6, rng)
        assert hard_decision(word.samples) == self.cw
        out = orbgrand_decode(word, self.oracle)
        assert out.message == self.m and out.queries == 1


# Reference conversions from the pattern generators to flips.


def hamming_masks_reference(words, n):
    """Packed masks of Hamming-order pattern words (bit i flips position i)."""
    nbytes = (n + 7) // 8
    buf = b"".join(v.to_bytes(nbytes, "little") for v in words)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes), axis=1, bitorder="little")
    return np.packbits(bits[:, :n], axis=1)


def rank_bits(rank_sets, n):
    """(P, n) bits, column r - 1 set where a rank set holds rank r."""
    bits = np.zeros((len(rank_sets), n), dtype=np.uint8)
    for j, ranks in enumerate(rank_sets):
        bits[j, np.array(ranks, dtype=int) - 1] = 1
    return bits


def logistic_flip_bits(ranked, perm):
    # rank r flips position perm[r - 1]
    flips = np.zeros_like(ranked)
    flips[:, perm] = ranked
    return flips


@pytest.mark.parametrize("cache_bytes", [8 << 20, 0])
@pytest.mark.parametrize("n", range(1, 13))
def test_hamming_masks_match_reference(n, cache_bytes, monkeypatch):
    # cache_bytes = 0 keeps no class whole, so every class is built
    # piecewise from the one below it.
    monkeypatch.setattr(grand, "_WEIGHT_CACHE_BYTES", cache_bytes)
    masks = grand._HammingMasks(one_bit_masks(n))
    want = hamming_masks_reference(hamming_order_patterns(n), n)
    cuts = sorted({0, 1 << n, *np.random.default_rng(n).integers(0, 1 << n, 6).tolist()})
    got = np.concatenate([masks.masks(a, b) for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(got, want)
    assert [masks.weight(j) for j in range(1 << n)] == [bin(v).count("1") for v in hamming_order_patterns(n)]


def test_hamming_masks_n128_cross_from_kept_to_built_classes():
    # Weights 0-3 are kept whole at n = 128; weight 4 is built piecewise.
    n = 128
    w3 = sum(comb(n, w) for w in range(4))
    count = w3 + (1 << 16)
    want = hamming_masks_reference(itertools.islice(hamming_order_patterns(n), count), n)
    masks = grand._HammingMasks(one_bit_masks(n))
    cuts = [0, 1, 129, 5000, w3 - 7, w3 + 9, w3 + 4000, count]
    got = np.concatenate([masks.masks(a, b) for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, count", [(1, 2), (4, 16), (9, 512), (12, 4096), (128, 3000)])
def test_logistic_store_matches_reference(n, count):
    # The store starts at 64 patterns and doubles, so n = 4 fits in its
    # first growth.
    store = grand._LogisticPatterns(n)
    want = list(itertools.islice(logistic_order_patterns(n), count))
    cuts = [c for c in (0, 1, 17, 100, 130, 700, 2500) if c < count] + [count]
    got = []
    lengths = []
    for a, b in zip(cuts, cuts[1:]):
        got += [tuple(int(r) for r in row if r) for row in store.ranks(a, b)]
        lengths.append(len(store._ranks))
    assert got == want
    if count > 128:
        assert len(set(lengths)) >= 3  # the store grew step by step
    assert [store.weight(j) for j in range(count)] == [sum(p) for p in want]


class SparseOracle(MembershipOracle):
    """Accepts words whose byte sum is modulus - 1 (mod modulus); a
    modulus above every byte sum accepts nothing. Defines only decode_batch."""

    def __init__(self, params, modulus):
        super().__init__(params)
        self.modulus = modulus

    def decode_batch(self, words):
        return words.sum(axis=1, dtype=np.int64) % self.modulus == self.modulus - 1, words


RLC_8_4 = CodeParams(8, 4)
RLC_12_8 = CodeParams(12, 8)
# n - k = 70: syndrome images of two 64-bit lanes, words of 17 bytes.
RLC_136_66 = CodeParams(136, 66)
# name -> (oracle, budgets); the small codes' budgets exceed 2^n, so a
# search that accepts nothing runs out of patterns. SparseOracle defines
# only decode_batch, so its images are its words.
CORE_CASES = {
    "aes": (AesPadOracle(PARAMS, Aes128(KEY)), (1, 2, 17, 300)),
    "rlc": (RlcOracle(rlc_generate(PARAMS, 1)), (1, 2, 17, 300)),
    "rlc136": (RlcOracle(rlc_generate(RLC_136_66, 2)), (1, 2, 17, 300)),
    "sparse": (SparseOracle(PARAMS, 61), (1, 2, 17, 300)),
    "rlc8": (RlcOracle(rlc_generate(RLC_8_4, 3)), (300, 10**6)),
    "rlc12": (RlcOracle(rlc_generate(RLC_12_8, 5)), (5000, 10**6)),
    "none8": (SparseOracle(RLC_8_4, 10**6), (257, 10**6)),
    "none12": (SparseOracle(RLC_12_8, 10**6), (4097, 10**6)),
}
# At rate 66/136 and 3-5 dB a word holds about 8 errors, out of reach of a
# 300-query search; 4 dB more leaves about 1, so searches end in hits.
EBN0_SHIFT_DB = {"rlc136": 4.0}


def transmitted_bits(oracle, rng, rows):
    params = oracle.params
    if isinstance(oracle, SparseOracle):
        return rng.integers(0, 2, size=(rows, params.n), dtype=np.uint8)
    msgs = rng.integers(0, 2, size=(rows, params.k), dtype=np.uint8)
    if isinstance(oracle, RlcOracle):
        return oracle.code.encode_bits(msgs)
    padded = np.zeros((rows, params.n), dtype=np.uint8)
    padded[:, : params.k] = msgs
    return np.unpackbits(oracle.cipher.encrypt_batch(np.packbits(padded, axis=1)), axis=1)


def reference_search(oracle, word, flips):
    """First accepted row of word ^ flips, by brute force: (found, block, queries)."""
    ok, blocks = oracle.decode_batch(np.packbits(np.unpackbits(word)[: oracle.params.n] ^ flips, axis=1))
    if not ok.any():
        return False, None, len(flips)
    idx = int(np.argmax(ok))
    return True, blocks[idx], idx + 1


@pytest.mark.parametrize("soft", [False, True], ids=["grand", "orbgrand"])
@pytest.mark.parametrize("case", sorted(CORE_CASES))
@settings(max_examples=12, deadline=None)
@given(
    ebn0=st.floats(3.0, 5.0),
    budget_pick=st.integers(0, 3),
    rows=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_guess_batch_matches_one_row_decoders_and_reference(case, soft, ebn0, budget_pick, rows, seed):
    oracle, budgets = CORE_CASES[case]
    budget = budgets[budget_pick % len(budgets)]
    params = oracle.params
    rng = np.random.default_rng(seed)
    sigma = sigma_from_ebn0(ebn0 + EBN0_SHIFT_DB.get(case, 0.0), params.rate)
    y = awgn_samples(modulate(transmitted_bits(oracle, rng, rows)), sigma, rng)
    llrs = llr_from_samples(y, sigma)
    words = np.packbits(hard_bits(y), axis=1)
    found, blocks, queries = guess(words, oracle, budget, np.abs(llrs) if soft else None)

    space = min(budget, 1 << params.n)
    if soft:
        ranked = rank_bits(list(itertools.islice(logistic_order_patterns(params.n), space)), params.n)
    else:
        ref_flips = np.unpackbits(
            hamming_masks_reference(itertools.islice(hamming_order_patterns(params.n), space), params.n), axis=1
        )[:, : params.n]
    for r in range(rows):
        if soft:
            out = orbgrand_decode(SoftWord(samples=y[r], llrs=llrs[r], sigma=sigma), oracle, budget)
            perm = np.argsort(np.abs(llrs[r]), kind="stable")
            ref = reference_search(oracle, words[r], logistic_flip_bits(ranked, perm))
        else:
            out = grand_decode(BitVec.from_bytes(words[r].tobytes(), params.n), oracle, budget)
            ref = reference_search(oracle, words[r], ref_flips)
        assert (bool(found[r]), int(queries[r])) == (ref[0], ref[2]) == (out.decoded, out.queries)
        if found[r]:
            assert np.array_equal(blocks[r], ref[1])
            assert split(BitVec.from_bytes(blocks[r].tobytes(), params.n), params.k)[0] == out.message


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 140),
    rows=st.integers(1, 12),
    decimals=st.sampled_from([None, 1, 0, -1]),
    pick=st.integers(1, 140),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_reliable_is_the_full_stable_argsort_prefix(n, rows, decimals, pick, seed):
    # Rounded |LLR| put equal values on both sides of the rank boundary;
    # decimals=-1 leaves a few distinct values per row.
    rel = np.abs(np.random.default_rng(seed).normal(0.0, 8.0, size=(rows, n)))
    if decimals is not None:
        rel = np.round(rel, decimals)
    want = np.argsort(np.abs(rel), kind="stable")
    for count in sorted({1, max(1, n // 2 - 1), max(1, n // 2), n, 1 + pick % n}):
        assert np.array_equal(grand._least_reliable(rel, count), want[:, :count])


def test_least_reliable_falls_back_on_boundary_ties():
    # Row 0 ties at the 2nd value (three 1.0s), row 1 all-equal, row 2 not
    # tied: only a stable sort puts positions 1, 2, 3 in order.
    rel = np.array(
        [
            [5.0, 1.0, 1.0, 1.0, 0.0, 9.0, 9.0, 9.0, 9.0, 9.0],
            [3.0] * 10,
            [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 1.0],
        ]
    )
    for count in range(1, 11):
        assert np.array_equal(grand._least_reliable(rel, count), np.argsort(np.abs(rel), kind="stable")[:, :count])
    assert grand._least_reliable(rel, 2).tolist() == [[4, 1], [0, 1], [1, 5]]


def test_guess_extends_the_ranking_mid_search():
    # A [128,64] code leaves no other codeword near these words, so each row
    # hits exactly the one-flip pattern (r,) that names its error, at query
    # 1 + (its index in the logistic order). Ranks 3, 12 and 40 need the
    # ranking at 8, 16 and 64 (the full sort) ranks; row 3's reliabilities
    # are all equal, so its ranks are its positions (rank 10 is position 9).
    params = CodeParams(128, 64)
    oracle = RlcOracle(rlc_generate(params, 7))
    rng = np.random.default_rng(3)
    bits = oracle.code.encode_bits(rng.integers(0, 2, size=(4, params.k), dtype=np.uint8))
    mags = np.vstack([rng.permutation(np.linspace(1.0, 9.0, params.n)) for _ in range(3)] + [np.full(params.n, 4.0)])
    samples = modulate(bits) * mags
    want_queries = []
    for row, rank in enumerate((3, 12, 40, 10)):
        pos = np.argsort(mags[row], kind="stable")[rank - 1]
        samples[row, pos] *= -1.0
        want_queries.append(1 + next(j for j, p in enumerate(logistic_order_patterns(params.n)) if p == (rank,)))
    words = np.packbits(hard_bits(samples), axis=1)
    found, blocks, queries = guess(words, oracle, 10**4, mags)
    assert found.all()
    assert queries.tolist() == want_queries
    assert np.array_equal(blocks, np.packbits(bits, axis=1))
    for row in range(4):
        out = orbgrand_decode(SoftWord(samples=samples[row], llrs=mags[row], sigma=1.0), oracle, 10**4)
        assert out.queries == want_queries[row]


TIED_CASES = ("aes", "rlc", "rlc12", "sparse")


@pytest.mark.parametrize("case", TIED_CASES)
@settings(max_examples=10, deadline=None)
@given(
    ebn0=st.floats(3.0, 5.0),
    levels=st.integers(1, 4),
    rows=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_guess_with_tied_reliabilities_matches_one_row_decoders_and_reference(case, ebn0, levels, rows, seed):
    # |LLR| quantised to a few levels: most ranks are ties, broken by
    # position, on both sides of every rank boundary the search crosses.
    oracle, budgets = CORE_CASES[case]
    budget = budgets[-1] if oracle.params.n <= 12 else 300
    params = oracle.params
    rng = np.random.default_rng(seed)
    sigma = sigma_from_ebn0(ebn0 + EBN0_SHIFT_DB.get(case, 0.0), params.rate)
    y = awgn_samples(modulate(transmitted_bits(oracle, rng, rows)), sigma, rng)
    llrs = llr_from_samples(y, sigma)
    rel = np.minimum(np.floor(np.abs(llrs) / 4.0), levels - 1)
    words = np.packbits(hard_bits(y), axis=1)
    found, blocks, queries = guess(words, oracle, budget, rel)

    ranked = rank_bits(list(itertools.islice(logistic_order_patterns(params.n), min(budget, 1 << params.n))), params.n)
    for r in range(rows):
        out = orbgrand_decode(SoftWord(samples=y[r], llrs=np.copysign(rel[r], llrs[r]), sigma=sigma), oracle, budget)
        ref = reference_search(oracle, words[r], logistic_flip_bits(ranked, np.argsort(np.abs(rel[r]), kind="stable")))
        assert (bool(found[r]), int(queries[r])) == (ref[0], ref[2]) == (out.decoded, out.queries)
        if found[r]:
            assert np.array_equal(blocks[r], ref[1])


def test_guess_rejects_bad_input():
    oracle = CORE_CASES["rlc"][0]
    words = np.zeros((3, PARAMS.nbytes), dtype=np.uint8)
    with pytest.raises(ValueError, match="max_queries"):
        guess(words, oracle, 0)
    with pytest.raises(ValueError, match="packed words"):
        guess(words[:, :-1], oracle, 10)
    with pytest.raises(ValueError, match="reliabilities"):
        guess(words, oracle, 10, np.ones((3, PARAMS.n - 1)))
    with pytest.raises(ValueError, match="max_queries"):
        grand_decode(BitVec(0, PARAMS.n), oracle, max_queries=0)
