"""Noise-guessing decoders: pattern orders, query accounting, budgets."""

import copy
import functools
import itertools
import pickle
from math import comb, gcd

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


@pytest.mark.parametrize("patterns", [hamming_order_patterns, logistic_order_patterns])
def test_pattern_orders_refuse_a_negative_length(patterns):
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        next(patterns(-1))


def test_logistic_order_is_lazy():
    gen = logistic_order_patterns(128)
    head = [next(gen) for _ in range(4)]
    assert head == [(), (1,), (2,), (3,)]


def flipped(word, *positions):
    """The BitVec word with the bits at positions flipped."""
    bits = word.to_array()
    bits[list(positions)] ^= 1
    return BitVec.from_array(bits)


class TestGrand:
    def setup_method(self):
        self.cipher = Aes128(KEY)
        self.oracle = AesPadOracle(PARAMS, self.cipher)
        self.m = BitVec.random(116, np.random.default_rng(21))
        self.cw = aes_encode(self.m, PARAMS, self.cipher)

    def test_noiseless_single_query(self):
        out = grand_decode(self.cw, self.oracle)
        assert not out.abandoned
        assert out.message == self.m
        assert out.queries == 1
        assert out.final_weight == 0

    @pytest.mark.parametrize("pos", [0, 5, 64, 127])
    def test_single_flip_query_count(self, pos):
        out = grand_decode(flipped(self.cw, pos), self.oracle)
        assert out.message == self.m
        # weight-1 patterns are tried in increasing word value: pattern
        # for position p is the (p+1)-th, after the zero pattern
        assert out.queries == pos + 2
        assert out.final_weight == 1

    def test_double_flip_weight(self):
        # positions 0 and 1 form the first weight-2 pattern, so the true
        # pattern is reached at query 1 + 128 + 1
        out = grand_decode(flipped(self.cw, 0, 1), self.oracle, max_queries=DEFAULT_MAX_QUERIES)
        assert out.message == self.m
        assert out.final_weight == 2
        assert out.queries == 130

    def test_budget_abandonment(self):
        out = grand_decode(flipped(self.cw, 100), self.oracle, max_queries=50)
        assert out.abandoned
        assert out.message is None
        assert out.queries == 50
        assert out.final_weight is None

    def test_budget_exactly_sufficient(self):
        out = grand_decode(flipped(self.cw, 100), self.oracle, max_queries=102)
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


def position_set(v):
    """A Hamming-order pattern word as the sorted tuple of 1 + each position it flips."""
    out = []
    while v:
        out.append((v & -v).bit_length())
        v &= v - 1
    return tuple(out)


def hamming_store_cuts(n):
    """(patterns checked, cuts between the store reads) for n."""
    if n <= 12:
        return 1 << n, sorted({0, 1 << n, *np.random.default_rng(n).integers(0, 1 << n, 6).tolist()})
    # n = 128 through weight 3, then the first 2^16 sets of weight 4, cut
    # inside classes and across the 3-to-4 boundary.
    w3 = sum(comb(n, w) for w in range(4))
    return w3 + (1 << 16), [0, 1, 129, 5000, w3 - 7, w3 + 9, w3 + 4000, w3 + (1 << 16)]


@pytest.mark.parametrize("n", [*range(1, 13), 128])
def test_hamming_store_matches_reference(n):
    count, cuts = hamming_store_cuts(n)
    store = grand._Patterns(grand._hamming_blocks(n))
    want = [position_set(v) for v in itertools.islice(hamming_order_patterns(n), count)]
    got = []
    lengths = []
    for a, b in zip(cuts, cuts[1:]):
        ranks = store.ranks(a, b)
        assert ranks.shape[1] == max(len(p) for p in want[a:b])  # no padding column
        got += [tuple(int(r) for r in row if r) for row in ranks]
        lengths.append(len(store._sets))
    assert got == want
    assert store.sizes[:count].tolist() == [len(p) for p in want]
    if count > 128:
        assert len(set(lengths)) >= 3  # the store grew step by step


@pytest.mark.parametrize("cache_bytes", [8 << 20, 0])
@pytest.mark.parametrize("n", range(1, 13))
def test_hamming_masks_match_reference(n, cache_bytes):
    # The pattern masks as guess builds them from the store: the one-bit
    # masks below a zero row, XORed by each row's position set in the
    # lanes guess XORs in. cache_bytes = 0 reads an empty store, which
    # grows at the reads; otherwise the store first takes as many rows as
    # cache_bytes holds (all 2^n here), and the reads only slice it.
    store = grand._Patterns(grand._hamming_blocks(n))
    if cache_bytes:
        store.ranks(0, min(1 << n, cache_bytes // (n * store._sets.itemsize)))
    grown = len(store._sets)
    table = grand._with_zero_row(one_bit_masks(n))
    table = table.view(f"u{gcd(table.shape[1], 8)}")
    _, cuts = hamming_store_cuts(n)
    weights = [bin(v).count("1") for v in hamming_order_patterns(n)]
    got = []
    for a, b in zip(cuts, cuts[1:]):
        ranks = store.ranks(a, b)
        assert ranks.shape[1] == max(weights[a:b])  # no padding column
        # A leading 0 names the zero row, so a read of only the empty
        # set still has a column to gather.
        index = np.hstack([np.zeros((len(ranks), 1), dtype=ranks.dtype), ranks])
        got.append(grand._xor_gather(table, index).view(np.uint8))
    assert np.array_equal(np.concatenate(got), hamming_masks_reference(hamming_order_patterns(n), n))
    assert store.sizes[: 1 << n].tolist() == weights
    assert (len(store._sets) == grown) == bool(cache_bytes)


def test_hamming_store_grows_only_as_far_as_the_search():
    # 9,000 queries end early in weight 3 (341,376 sets at n = 128).
    grand._patterns.cache_clear()
    oracle = SparseOracle(PARAMS, 10**6)
    found, _, queries = guess(np.zeros((2, PARAMS.nbytes), dtype=np.uint8), oracle, 9000)
    assert not found.any() and queries.tolist() == [9000, 9000]
    assert 9000 <= len(grand._patterns(PARAMS.n, grand._hamming_blocks)._sets) < 2 * 9000


def test_logistic_store_grows_only_as_far_as_the_search():
    # 3,000 queries end in rank sum 33 (the largest is 8,256 at n = 128).
    grand._patterns.cache_clear()
    oracle = SparseOracle(PARAMS, 10**6)
    rel = np.abs(np.random.default_rng(3).standard_normal((2, PARAMS.n)))
    found, _, queries = guess(np.zeros((2, PARAMS.nbytes), dtype=np.uint8), oracle, 3000, reliability=rel)
    assert not found.any() and queries.tolist() == [3000, 3000]
    assert 3000 <= len(grand._patterns(PARAMS.n, grand._logistic_blocks)._sets) < 2 * 3000


@pytest.mark.parametrize("n, count", [(1, 2), (4, 16), (9, 512), (12, 4096), (128, 3000)])
def test_logistic_store_matches_reference(n, count):
    # The store starts at 64 patterns and doubles, so n = 4 fits in its
    # first growth.
    store = grand._Patterns(grand._logistic_blocks(n))
    want = list(itertools.islice(logistic_order_patterns(n), count))
    cuts = [c for c in (0, 1, 17, 100, 130, 700, 2500) if c < count] + [count]
    got = []
    lengths = []
    for a, b in zip(cuts, cuts[1:]):
        ranks = store.ranks(a, b)
        assert ranks.shape[1] == max(len(p) for p in want[a:b])  # no padding column
        got += [tuple(int(r) for r in row if r) for row in ranks]
        lengths.append(len(store._sets))
    assert got == want
    if count > 128:
        assert len(set(lengths)) >= 3  # the store grew step by step
    assert store._sets[:count].sum(axis=1).tolist() == [sum(p) for p in want]
    assert store.sizes[:count].tolist() == [len(p) for p in want]


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
        assert (bool(found[r]), int(queries[r])) == (ref[0], ref[2]) == (not out.abandoned, out.queries)
        if found[r]:
            assert np.array_equal(blocks[r], ref[1])
            assert split(BitVec.from_bytes(blocks[r].tobytes(), params.n), params.k)[0] == out.message


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 140),
    rows=st.integers(1, 12),
    decimals=st.sampled_from([None, 1, 0, -1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranking_is_the_full_stable_argsort(n, rows, decimals, seed):
    # Rounded |LLR| make equal values, which only a stable sort orders by
    # position; decimals=-1 leaves a few distinct values per row.
    rel = np.abs(np.random.default_rng(seed).normal(0.0, 8.0, size=(rows, n)))
    if decimals is not None:
        rel = np.round(rel, decimals)
    ranking = grand._ranking(functools.partial(np.take, rel, axis=0), np.arange(rows), n)
    assert np.array_equal(ranking, np.argsort(rel, axis=1, kind="stable"))


def test_ranking_sorts_tied_rows_stably():
    # Row 0 ties at its 2nd value (three 1.0s), row 1 is all-equal, row 2
    # has no ties. Row 3 holds -0.0 before +0.0 and row 4 +inf twice: both
    # pairs are equal to the sort, so they keep their positions' order.
    rel = np.array(
        [
            [5.0, 1.0, 1.0, 1.0, 0.0, 9.0, 9.0, 9.0, 9.0, 9.0],
            [3.0] * 10,
            [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 1.0],
            [0.5, -0.0, 0.9, 0.3, 0.7, 0.2, 0.0, 0.4, 0.6, 1.0],
            [0.5, np.inf, 0.9, 0.3, 0.7, 0.2, np.inf, 0.4, 0.6, 1.0],
        ]
    )
    # Repeated side by side, so that rows are long enough for the default
    # sort not to be an insertion sort.
    rel = np.tile(rel, 8)
    ranking = grand._ranking(functools.partial(np.take, rel, axis=0), np.arange(len(rel)), rel.shape[1])
    assert np.array_equal(ranking, np.argsort(rel, axis=1, kind="stable"))
    assert ranking[:, :2].tolist() == [[4, 14], [0, 1], [1, 11], [1, 6], [5, 15]]
    assert ranking[4, -16:].tolist() == list(range(1, 80, 5))


def test_guess_extends_the_ranking_mid_search():
    # A [128,64] code leaves no other codeword near these words, so each row
    # hits exactly the one-flip pattern (r,) that names its error, at query
    # 1 + (its index in the logistic order). Ranks 12 and 40 lie past the
    # rank-image table of the first steps, which is extended for them; row
    # 3's reliabilities are all equal, so its ranks are its positions (rank
    # 10 is position 9).
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


def test_guess_extends_the_table_for_the_rows_still_searching():
    # The first step (patterns 1-16) reads ranks up to 6. Rows 0 and 1 hit
    # in it and retire, so the later steps extend the rank-image table for
    # the other rows alone, each through its own ranking: the rows' |LLR|
    # are distinct permutations, so a table column taken from the wrong row
    # would flip the wrong position.
    params = CodeParams(128, 64)
    oracle = RlcOracle(rlc_generate(params, 7))
    rng = np.random.default_rng(5)
    flips = [(1,), (2,), (12,), (3, 9), (40,), (5, 30)]
    bits = oracle.code.encode_bits(rng.integers(0, 2, size=(len(flips), params.k), dtype=np.uint8))
    mags = np.vstack([rng.permutation(np.linspace(1.0, 9.0, params.n)) for _ in flips])
    samples = modulate(bits) * mags
    for row, ranks in enumerate(flips):
        samples[row, np.argsort(mags[row], kind="stable")[np.array(ranks) - 1]] *= -1.0
    words = np.packbits(hard_bits(samples), axis=1)
    found, blocks, queries = guess(words, oracle, 10**4, mags)
    order = list(itertools.islice(logistic_order_patterns(params.n), 10**4))
    assert found.all()
    assert queries.tolist() == [1 + order.index(r) for r in flips]
    assert np.array_equal(blocks, np.packbits(bits, axis=1))
    for row in range(len(flips)):
        out = orbgrand_decode(SoftWord(samples=samples[row], llrs=mags[row], sigma=1.0), oracle, 10**4)
        assert (out.queries, out.final_weight) == (queries[row], sum(flips[row]))


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
        assert (bool(found[r]), int(queries[r])) == (ref[0], ref[2]) == (not out.abandoned, out.queries)
        if found[r]:
            assert np.array_equal(blocks[r], ref[1])


@pytest.mark.parametrize("case", ["aes", "rlc"])
def test_guess_through_a_row_function_matches_the_array(case):
    # A campaign hands guess its |LLR|s as a function that writes the rows
    # asked for. guess must ask only for rows that fail the first query and
    # decode as from the whole array. Rows 0-15 are quantised to a few
    # levels, so that their ranks tie and they are asked for again, for the
    # stable re-sort. A NaN is refused in a row that searches, and never
    # read in a row that does not.
    oracle = CORE_CASES[case][0]
    params = oracle.params
    rng = np.random.default_rng(29)
    sigma = sigma_from_ebn0(4.0, params.rate)
    y = awgn_samples(modulate(transmitted_bits(oracle, rng, 64)), sigma, rng)
    rel = np.abs(llr_from_samples(y, sigma))
    rel[:16] = np.floor(rel[:16] / 4.0)
    words = np.packbits(hard_bits(y), axis=1)
    asked = []

    def rows_of(values):
        def write(rows, out):
            asked.extend(rows.tolist())
            return np.take(values, rows, axis=0, out=out)

        return write

    want = guess(words, oracle, 300, rel)
    got = guess(words, oracle, 300, rows_of(rel))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    searched, quiet = np.flatnonzero(want[2] > 1), np.flatnonzero(want[2] == 1)
    assert set(asked) == set(searched.tolist()) and quiet.size
    assert any(asked.count(r) == 2 for r in range(16))
    bad = rel.copy()
    bad[quiet[0], 3] = np.nan
    assert all(np.array_equal(a, b) for a, b in zip(guess(words, oracle, 300, rows_of(bad)), want))
    bad[searched[-1], 3] = np.nan
    with pytest.raises(ValueError, match="negative or NaN"):
        guess(words, oracle, 300, rows_of(bad))


def test_guess_rows_match_the_same_rows_alone_as_buffers_change_shape():
    # 256-row low-SNR batches with a 10^4 budget reach steps of _MAX_WORDS
    # candidates. The calls alternate between GRAND and ORBGRAND and between
    # codes whose images differ: 2-byte rlc syndromes in one uint16 lane,
    # 16-byte AES words and rlc136 syndromes in two uint64 lanes, and
    # 17-byte rlc136 words. So each call reuses step buffers that the call
    # before it shaped and typed otherwise, and every row must come out as
    # it does alone.
    rng = np.random.default_rng(1017)
    calls = []
    for case, ebn0 in (("aes", 3.5), ("rlc", 3.5), ("rlc136", 7.0)):
        oracle = CORE_CASES[case][0]
        sigma = sigma_from_ebn0(ebn0, oracle.params.rate)
        y = awgn_samples(modulate(transmitted_bits(oracle, rng, 256)), sigma, rng)
        words = np.packbits(hard_bits(y), axis=1)
        calls += [(oracle, words, None), (oracle, words, np.abs(llr_from_samples(y, sigma)))]
    budget = 10**4
    for oracle, words, rel in calls:
        found, blocks, queries = guess(words, oracle, budget, rel)
        assert queries.max() == budget and found.any()
        for r in range(len(words)):
            alone = guess(words[r : r + 1], oracle, budget, None if rel is None else rel[r : r + 1])
            assert (found[r], queries[r]) == (alone[0][0], alone[2][0])
            if found[r]:
                assert np.array_equal(blocks[r], alone[1][0])


def test_guess_rejects_bad_input():
    oracle = CORE_CASES["rlc"][0]
    words = np.zeros((3, PARAMS.nbytes), dtype=np.uint8)
    with pytest.raises(ValueError, match="max_queries"):
        guess(words, oracle, 0)
    with pytest.raises(ValueError, match="packed words"):
        guess(words[:, :-1], oracle, 10)
    with pytest.raises(ValueError, match="reliabilities"):
        guess(words, oracle, 10, np.ones((3, PARAMS.n - 1)))
    # Rows of ones are not codewords, so they search and read their
    # reliabilities.
    searching = np.ones((3, PARAMS.nbytes), dtype=np.uint8)
    with pytest.raises(ValueError, match="negative or NaN"):
        guess(searching[:2], oracle, 50, np.full((2, PARAMS.n), np.nan))
    for bad in (np.nan, -1.0, -np.inf):
        rel = np.ones((3, PARAMS.n))
        rel[1, 7] = bad
        with pytest.raises(ValueError, match="negative or NaN"):
            guess(searching, oracle, 10, rel)
    with pytest.raises(ValueError, match="max_queries"):
        grand_decode(BitVec(0, PARAMS.n), oracle, max_queries=0)
    short = np.ones(PARAMS.n - 1)
    with pytest.raises(ValueError, match="expected 128-bit word, got 127"):
        grand_decode(BitVec(0, PARAMS.n - 1), oracle)
    with pytest.raises(ValueError, match="expected 128-bit word, got 127"):
        orbgrand_decode(SoftWord(samples=short, llrs=short, sigma=1.0), oracle)
    with pytest.raises(TypeError, match="needs a SoftWord"):
        orbgrand_decode(BitVec(0, PARAMS.n), oracle)
    # A float budget is refused before any search, not used as a bound and
    # then as an index into the pattern store.
    for bad in (1e3, 10.0, np.float64(50.0)):
        with pytest.raises(ValueError, match="max_queries must be an integer"):
            guess(searching, oracle, bad)
        with pytest.raises(ValueError, match="max_queries must be an integer"):
            grand_decode(BitVec(1, PARAMS.n), oracle, max_queries=bad)
        with pytest.raises(ValueError, match="max_queries must be an integer"):
            orbgrand_decode(SoftWord(samples=np.ones(PARAMS.n), llrs=np.ones(PARAMS.n), sigma=1.0), oracle, max_queries=bad)
    assert guess(searching, oracle, np.int64(5))[2].tolist() == [5, 5, 5]


def test_value_types_survive_pickle_and_copy():
    # A BitVec, and so every DecodeOutcome holding one, must cross a
    # process boundary and copy like any frozen dataclass.
    cipher = Aes128(KEY)
    oracle = AesPadOracle(PARAMS, cipher)
    cw = aes_encode(BitVec.random(PARAMS.k, np.random.default_rng(23)), PARAMS, cipher)
    y = modulate(cw)
    y[[40, 90]] *= -0.01
    word = SoftWord(samples=y, llrs=2.0 * y / 0.3**2, sigma=0.3)
    found = [grand_decode(flipped(cw, 100), oracle), orbgrand_decode(word, oracle)]
    abandoned = [grand_decode(flipped(cw, 100), oracle, max_queries=50), orbgrand_decode(word, oracle, max_queries=3)]
    assert [out.abandoned for out in found + abandoned] == [False, False, True, True]
    values = [BitVec(0, 0), BitVec.random(128, np.random.default_rng(5)), *found, *abandoned]
    schedule = cipher.schedule
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for v in values:
            for back in (pickle.loads(pickle.dumps(v, protocol)), copy.copy(v), copy.deepcopy(v)):
                assert type(back) is type(v) and back == v and hash(back) == hash(v)
        for back in (pickle.loads(pickle.dumps(schedule, protocol)), copy.copy(schedule), copy.deepcopy(schedule)):
            assert back.key == schedule.key and np.array_equal(back.round_keys, schedule.round_keys)
