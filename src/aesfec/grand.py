"""Noise-guessing decoders: GRAND (hard decision) and ORBGRAND (soft).

Both decoders walk a fixed sequence of candidate noise patterns, XOR each
pattern into the received hard-decision word, and ask a membership oracle
whether the result is a codeword. The first acceptance wins; if the query
budget runs out (or the whole pattern space is exhausted) the block is
abandoned.

Pattern orders are pinned exactly:

* Hamming order (GRAND): nondecreasing flip count; within a weight class,
  increasing integer value of the pattern word, where position i carries
  value 2^i for this comparison only. For n = 3 that is
  000, 001, 010, 100, 011, 101, 110, 111 (as position sets:
  {}, {0}, {1}, {2}, {0,1}, {0,2}, {1,2}, {0,1,2}).

* Logistic order (ORBGRAND): patterns are sets of distinct reliability
  ranks (1 = least reliable); sort by rank sum, then by fewer flips, then
  lexicographically on the sorted rank tuple. Rank r flips the position
  with the r-th smallest |LLR|. For n = 4 the order starts
  {}, {1}, {2}, {3}, {1,2}, {4}, {1,3}, ...

One search core, guess(), decodes every row of a batch in lockstep. Step 0
tests the received words themselves (the empty pattern) in one
decode_batch call. Each later step tests the next c patterns [i, i + c)
for every row still searching, in one accept_images call: c starts at
_FIRST_STEP, grows _GROWTH-fold per step, and is cut so that no call holds
more than _MAX_WORDS candidates. A row retires at the first accepting
column of its step, after i + column + 1 queries, and is abandoned exactly
where the budget or the pattern space ends.

Candidates are tested as images, not words (see aesfec.codes): the oracle
maps words linearly to images, so the image of y ^ e is the image of y
XORed with the images of the positions e flips, the oracle's
image_columns. GRAND XORs the shared Hamming-order pattern images onto
each row's image; ORBGRAND XORs, for each rank in a pattern, the column
image of the position that rank names in that row, gathered through the
row's own stable ranking of |LLR|. A row is ranked only as far as the
patterns reach: ranks 1 .. R with R at least 8 and at least doubled
whenever a step names a rank above R, each prefix exactly that of the full
stable argsort (_least_reliable). Acceptance of an image is acceptance of
the word it images, so the queries counted, the blocks accepted and the
budget cut are those of a search over words. Only for a row that hits is
the word y ^ e built (from the one-bit masks), and decode_batch returns its
block. For an oracle whose images are its words (the default, and the AES
oracle) the two Hamming stores are one. grand_decode and orbgrand_decode
are one-row calls into the core.

Words are packed (np.packbits layout). Both orders are built with numpy,
lazily, as far as the searches reach: a Hamming weight class from the class
below it (per column matrix), and the logistic order one rank sum at a time
from smaller sets of distinct ranks. The python generators
hamming_order_patterns and logistic_order_patterns are the references they
are tested against.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import comb, gcd

import numpy as np

from .bitblock import BitVec, split
from .channel import SoftWord, hard_bits
from .codes import one_bit_masks

__all__ = [
    "DecodeOutcome",
    "hamming_order_patterns",
    "logistic_order_patterns",
    "guess",
    "grand_decode",
    "orbgrand_decode",
    "DEFAULT_MAX_QUERIES",
]

DEFAULT_MAX_QUERIES = 10**6

# Patterns per row in the first step after the empty pattern, and the
# factor each later step grows by: most searched rows end within a few
# queries, so small first steps waste little oracle work past the hit,
# while long searches still reach large steps after a few calls.
_FIRST_STEP = 16
_GROWTH = 4
# Candidates per oracle call at most (256 KiB of words at n = 128).
_MAX_WORDS = 1 << 14

# Weight classes whose images fit in this many bytes are built whole and
# kept; heavier classes are built piecewise, on demand, from the class below.
_WEIGHT_CACHE_BYTES = 8 << 20
# Hamming stores kept, one per distinct column matrix (LRU).
_STORES = 16


def hamming_order_patterns(n):
    """Yield all 2^n pattern words of n positions in Hamming order.

    A pattern word is an int whose bit i (value 2^i) flips position i.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for w in range(n + 1):
        yield from _gosper(n, w)


def _gosper(n, w):
    # Within one weight class, Gosper's hack enumerates exactly in
    # increasing integer value.
    if w == 0:
        yield 0
        return
    v = (1 << w) - 1
    top = 1 << n
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def logistic_order_patterns(n):
    """Yield all 2^n rank sets (sorted tuples of distinct ranks in 1..n)
    in logistic order: rank sum, then set size, then lexicographic."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    yield ()
    for w in range(1, n * (n + 1) // 2 + 1):
        for m in range(1, n + 1):
            if m * (m + 1) // 2 > w:
                break
            if m * n - m * (m - 1) // 2 < w:
                continue
            yield from _distinct_parts(w, m, 1, n)


def _distinct_parts(w, m, lo, hi):
    # Sorted tuples of m distinct values in [lo, hi] summing to w,
    # in lexicographic order.
    if m == 1:
        if lo <= w <= hi:
            yield (w,)
        return
    a_max = (w - m * (m - 1) // 2) // m
    rest_cap = (m - 1) * hi - (m - 1) * (m - 2) // 2
    for a in range(lo, a_max + 1):
        if w - a > rest_cap:
            continue
        for rest in _distinct_parts(w - a, m - 1, a + 1, hi):
            yield (a, *rest)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one decode: the message (None when abandoned), the number
    of oracle queries spent, and the weight of the accepted pattern
    (Hamming weight for grand, rank sum for orbgrand; None when abandoned)."""

    message: BitVec | None
    queries: int
    final_weight: int | None

    @property
    def decoded(self):
        return self.message is not None

    @property
    def abandoned(self):
        return self.message is None


class _HammingMasks:
    """Images of the Hamming order over one column matrix, addressed by
    pattern index.

    columns is an (n, w) uint8 array whose row p is the image of position
    p; a pattern's image is the XOR of the rows of the positions it flips.
    With the one-bit masks as columns, the images are the pattern words.
    """

    def __init__(self, columns):
        self.columns = columns
        self.n, self.width = columns.shape
        # Index of the first pattern of each weight class, then 2^n.
        self.starts = list(accumulate((comb(self.n, w) for w in range(self.n + 1)), initial=0))
        self._classes = [np.zeros((1, self.width), dtype=np.uint8)]

    def weight(self, index):
        return bisect_right(self.starts, index) - 1

    def masks(self, i0, i1):
        """(i1 - i0, w) images of patterns i0 .. i1 - 1."""
        parts = []
        w = self.weight(i0)
        while i0 < i1:
            end = min(i1, self.starts[w + 1])
            parts.append(self._rows(w, i0 - self.starts[w], end - self.starts[w]))
            i0, w = end, w + 1
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _rows(self, w, a, b):
        # The kept classes are a prefix 0, 1, ..., so each is built from a kept one.
        while len(self._classes) <= w:
            nxt = len(self._classes)
            if comb(self.n, nxt) * self.width > _WEIGHT_CACHE_BYTES:
                return self._build(w, a, b)
            full = self._build(nxt, 0, comb(self.n, nxt))
            full.setflags(write=False)
            self._classes.append(full)
        return self._classes[w][a:b]

    def _build(self, w, a, b):
        # Increasing integer value within a class is colex order: rows
        # C(t, w) .. C(t + 1, w) - 1 of class w are the first C(t, w - 1)
        # rows of class w - 1, each plus the top position t.
        t = w - 1
        while comb(t + 1, w) <= a:
            t += 1
        parts = []
        while a < b:
            lo = comb(t, w)
            end = min(b, comb(t + 1, w))
            parts.append(self._rows(w - 1, a - lo, end - lo) ^ self.columns[t])
            a, t = end, t + 1
        return np.concatenate(parts)


class _LogisticPatterns:
    """Per-n store of rank sets in logistic order, grown on demand.

    Pattern j is row j of a uint16 array: its ranks ascending, padded with
    zeros, so a row's sum is its rank sum. The store is built with numpy,
    one rank sum at a time, and at least doubles whenever a search reaches
    past its end; each growth writes one new array. The sets of m ranks
    with sum w are memoised per (w, m) and built in one array from the
    sets of m - 1 ranks: their first ranks repeated, then one add.
    """

    def __init__(self, n):
        self.n = n
        self._ranks = np.zeros((1, 0), dtype=np.uint16)  # the empty set
        self._sum = 0  # largest rank sum in the store
        self._sets = {}

    def weight(self, index):
        return int(self.ranks(index, index + 1).sum())

    def ranks(self, i0, i1):
        """Rows i0 .. i1 - 1, cut to the widest rank set among them."""
        if len(self._ranks) < i1:
            self._grow(max(i1, 2 * len(self._ranks), 64))
        rows = self._ranks[i0:i1]
        return rows[:, : int(np.count_nonzero(rows, axis=1).max(initial=0))]

    def _grow(self, count):
        parts = [self._ranks]
        have = len(self._ranks)
        while have < count and self._sum < self.n * (self.n + 1) // 2:
            self._sum += 1
            m = 1
            while m * (m + 1) // 2 <= self._sum:
                parts.append(self._distinct(self._sum, m))
                have += len(parts[-1])
                m += 1
        ranks = np.zeros((have, max(p.shape[1] for p in parts)), dtype=np.uint16)
        row = 0
        for p in parts:
            ranks[row : row + len(p), : p.shape[1]] = p
            row += len(p)
        self._ranks = ranks

    def _distinct(self, w, m):
        """(count, m) sets of m distinct ranks in 1..n summing to w, in
        lexicographic order (what _distinct_parts yields)."""
        if (w, m) not in self._sets:
            if m == 1:
                sets = np.array([[w]] if w <= self.n else np.zeros((0, 1)), dtype=np.uint16)
            else:
                # With first rank a, the other m - 1 ranks, each minus a,
                # are a set summing to w - m a whose largest rank is n - a
                # at most. That bound can only bite where such a set may
                # reach past it: its largest rank is at most its sum less
                # 1 + 2 + ... + (m - 2).
                firsts, rests = [], []
                for a in range(1, (w - m * (m - 1) // 2) // m + 1):
                    rest = self._distinct(w - m * a, m - 1)
                    if w - m * a - (m - 1) * (m - 2) // 2 > self.n - a:
                        rest = rest[rest[:, -1] <= self.n - a]
                    firsts.append(a)
                    rests.append(rest)
                sets = np.empty((sum(len(r) for r in rests), m), dtype=np.uint16)
                sets[:, 0] = np.repeat(firsts, [len(r) for r in rests])
                np.add(np.concatenate(rests), sets[:, :1], out=sets[:, 1:])
            self._sets[w, m] = sets
        return self._sets[w, m]


@functools.lru_cache(maxsize=_STORES)
def _hamming_store(shape, data):
    return _HammingMasks(np.frombuffer(data, dtype=np.uint8).reshape(shape))


def _hamming_masks(columns):
    """The Hamming store of a column matrix; equal matrices share one."""
    return _hamming_store(columns.shape, columns.tobytes())


_logistic_patterns = functools.cache(_LogisticPatterns)


def _xor_outer(patterns, rows):
    """(c, w) pattern images XOR (r, w) row images -> (c, r, w).

    XORs a lane at a time, in the widest unsigned integer that divides w:
    a broadcast XOR whose innermost axis is w bytes runs several times
    slower.
    """
    c, w = patterns.shape
    lane = np.dtype(f"u{gcd(w, 8)}")
    p, y = patterns.view(lane), rows.view(lane)
    out = np.empty((c, len(y), p.shape[1]), dtype=lane)
    for j in range(p.shape[1]):
        np.bitwise_xor(p[:, j, None], y[:, j], out=out[:, :, j])
    return out.view(np.uint8)


def _least_reliable(rel, count):
    """Positions of the count smallest entries of each row of rel, in
    stable order: exactly np.argsort(rel, axis=1, kind="stable")[:, :count].

    argpartition finds each row's count smallest entries; sorted by
    position and then stably by value, they come out in (value, position)
    order. That is the full sort's prefix unless the count-th smallest
    value also sits outside the partition: such a row, tied at the
    boundary, is sorted in full, and so is every row once count >= n / 2.
    """
    if 2 * count >= rel.shape[1]:
        return np.argsort(rel, axis=1, kind="stable")[:, :count]
    part = np.argpartition(rel, count - 1, axis=1)[:, :count]
    part.sort(axis=1)
    vals = np.take_along_axis(rel, part, axis=1)
    out = np.take_along_axis(part, vals.argsort(axis=1, kind="stable"), axis=1)
    tied = np.count_nonzero(rel <= vals.max(axis=1, keepdims=True), axis=1) > count
    if tied.any():
        out[tied] = np.argsort(rel[tied], axis=1, kind="stable")[:, :count]
    return out


def _with_zero_row(columns):
    """columns below a zero row, so index p + 1 is position p and 0 is none."""
    return np.concatenate([np.zeros((1, columns.shape[1]), dtype=np.uint8), columns])


def guess(words, oracle, max_queries, reliability=None):
    """Decode every row of a batch of packed hard-decision words in lockstep.

    reliability=None searches the Hamming order (GRAND); a (B, n) array of
    |LLR| per row searches the logistic order through each row's own
    reliability ranks (ORBGRAND). Returns (found (B,), blocks (B, nbytes),
    queries (B,)). A found row's block is what the oracle decoded at its
    first acceptance, reached at query `queries`; a row not found was
    abandoned after min(max_queries, 2^n) queries, and its block is
    meaningless.
    """
    if max_queries < 1:
        raise ValueError(f"max_queries must be >= 1, got {max_queries}")
    n, nbytes = oracle.params.n, oracle.params.nbytes
    words = np.asarray(words, dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != nbytes:
        raise ValueError(f"expected (B, {nbytes}) packed words, got shape {words.shape}")
    if reliability is not None and np.shape(reliability) != (len(words), n):
        raise ValueError(f"expected ({len(words)}, {n}) reliabilities, got shape {np.shape(reliability)}")
    ok, blocks = oracle.decode_batch(words)
    found = np.array(ok, dtype=bool)
    blocks = np.array(blocks, dtype=np.uint8)  # a copy: some oracles hand back their input
    queries = np.ones(len(words), dtype=np.int64)
    active = np.flatnonzero(~found)
    y = words[active]
    image = np.ascontiguousarray(oracle.images(y))
    columns = oracle.image_columns()
    if reliability is None:
        pattern_images = _hamming_masks(columns)
        pattern_words = _hamming_masks(one_bit_masks(n))
    else:
        store = _logistic_patterns(n)
        rel = np.asarray(reliability).take(active, axis=0)
        ranked = 0  # ranks 1 .. ranked are resolved in every row
        rank_columns = _with_zero_row(columns)
        rank_words = _with_zero_row(one_bit_masks(n))
    space = min(max_queries, 1 << n)
    i, c = 1, _FIRST_STEP
    while active.size and i < space:
        c = min(c, max(1, _MAX_WORDS // active.size), space - i)
        # Candidate images are pattern-major: (c, rows, w).
        if reliability is None:
            cand = _xor_outer(pattern_images.masks(i, i + c), image)
        else:
            ranks = store.ranks(i, i + c)
            need = int(ranks.max(initial=0))
            if need > ranked:
                # Rank at least 8 and at least double, so that a long
                # search re-ranks its rows a few times only.
                ranked = min(n, max(need, 2 * ranked, 8))
                # order[a, r] is 1 + the position that rank r names in row
                # a, and 0 for rank 0 (padding): an index into columns
                # below a zero row.
                order = np.zeros((len(rel), ranked + 1), dtype=np.intp)
                order[:, 1:] = 1 + _least_reliable(rel, ranked)
                # (ranked + 1, rows, w): entry r, a is the image of what
                # rank r flips in row a. take and compress here measured
                # 5-10x faster than the same fancy indexing.
                rank_images = rank_columns.take(order.T, axis=0)
            cand = image ^ rank_images.take(ranks[:, 0], axis=0)
            for col in ranks.T[1:]:
                cand ^= rank_images.take(col, axis=0)
        ok = oracle.accept_images(cand.reshape(c * len(active), -1)).reshape(c, len(active))
        hit = ok.any(axis=0)
        if hit.any():
            rows = np.flatnonzero(hit)
            col = ok[:, rows].argmax(axis=0)
            # Only hits are built as words, y ^ e, for decode_batch's blocks.
            if reliability is None:
                e = pattern_words.masks(i, i + c)[col]
            else:
                e = np.bitwise_xor.reduce(rank_words.take(order[rows[:, None], ranks[col]], axis=0), axis=1)
            done = active[rows]
            found[done] = True
            queries[done] = i + 1 + col
            blocks[done] = oracle.decode_batch(y[rows] ^ e)[1]
            keep = ~hit
            active, y, image = active[keep], y[keep], image[keep]
            if reliability is not None:
                order, rank_images, rel = order[keep], rank_images.compress(keep, axis=1), rel[keep]
        i += c
        c *= _GROWTH
    queries[active] = i
    return found, blocks, queries


def _outcome(oracle, patterns, result):
    found, blocks, queries = (a[0] for a in result)
    if not found:
        return DecodeOutcome(message=None, queries=int(queries), final_weight=None)
    full = BitVec.from_bytes(blocks.tobytes(), oracle.params.n)
    return DecodeOutcome(
        message=split(full, oracle.params.k)[0],
        queries=int(queries),
        final_weight=patterns.weight(int(queries) - 1),
    )


def grand_decode(y, oracle, max_queries=DEFAULT_MAX_QUERIES):
    """Decode a hard-decision BitVec by guessing noise in Hamming order."""
    if len(y) != oracle.params.n:
        raise ValueError(f"expected {oracle.params.n}-bit word, got {len(y)}")
    words = np.frombuffer(y.to_bytes(), dtype=np.uint8)[None]
    patterns = _hamming_masks(one_bit_masks(oracle.params.n))
    return _outcome(oracle, patterns, guess(words, oracle, max_queries))


def orbgrand_decode(word, oracle, max_queries=DEFAULT_MAX_QUERIES):
    """Decode a SoftWord by guessing noise in logistic (rank-sum) order."""
    if not isinstance(word, SoftWord):
        raise TypeError("orbgrand_decode needs a SoftWord with LLRs")
    if len(word) != oracle.params.n:
        raise ValueError(f"expected {oracle.params.n}-bit word, got {len(word)}")
    words = np.packbits(hard_bits(word.samples))[None]
    result = guess(words, oracle, max_queries, reliability=np.abs(word.llrs)[None])
    return _outcome(oracle, _logistic_patterns(oracle.params.n), result)
