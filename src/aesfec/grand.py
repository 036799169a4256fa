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

Candidates are tested as images, not words (see aesfec.codes): the
oracle maps words linearly to images, so the image of y ^ e is the image
of y XORed with the images of the positions e flips, the oracle's
image_columns. Each order supplies a table whose entry r, a is the image
of the position rank r flips in row a: for GRAND, whose ranks are
positions, the column images, one entry serving every row; for ORBGRAND,
from the stable rankings of |LLR| (_ranking) of the rows that search, the
only rows whose |LLR|s are asked for, only as wide as the ranks the steps
read: it holds rank 0 at first and at least doubles, for the rows still
searching, when a step reads past it (searches at 4.5 dB read ranks up to
54). A step XORs each pattern's entries in lanes (the widest unsigned
integer dividing the image width), copies the patterns over the rows as
whole images and XORs the rows' images in flat: an XOR whose innermost
axis is an image's few lanes runs several times slower.
Acceptance of an image is acceptance of the word it images, so the
queries counted, the blocks accepted and the budget cut are those of a
search over words. A hit records only its query count; then each hit
row's pattern is read back from the store, and its word y ^ e built from
the one-bit masks, for one decode_batch call. Step arrays and ORBGRAND's
ranking are written into the process's scratch buffers
(aesfec.codes.scratch), reused across steps and calls, so a process runs
one search at a time. grand_decode and orbgrand_decode are one-row calls
into the core.

Words are packed (np.packbits layout). Patterns come from one kind of
per-n store, _Patterns, of 1-based position or rank sets, which takes
numpy blocks from its order's generator as far as the searches reach and
records each set's size as it stacks them. _hamming_blocks yields a
Hamming weight class one top position at a time from the class below it;
_logistic_blocks yields the sets of one rank sum and one size at a time,
built from smaller sets of distinct ranks. The python generators
hamming_order_patterns and logistic_order_patterns are the references
the stores are tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .bitblock import BitVec, split
from .channel import SoftWord, hard_bits
from .codes import integer, one_bit_masks, scratch

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
_RANK_ROWS = 256  # rows per _ranking call at most, so that its buffers stay batch-sized


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
    def abandoned(self):
        return self.message is None


class _Patterns:
    """Per-n store of 1-based position or rank sets in one search order,
    taken from the order's block generator as far as the searches reach.

    Pattern j is row j of an array: its set ascending, padded with zeros,
    so a row's sum is its rank sum; sizes[j] is its set size. The store at
    least doubles when a search passes its end.
    """

    def __init__(self, blocks):
        self._blocks = blocks
        self._sets = next(blocks)  # the empty set
        self.sizes = np.zeros(1, dtype=self._sets.dtype)

    def ranks(self, i0, i1):
        """Rows i0 .. i1 - 1, cut to the largest set among them."""
        if len(self._sets) < i1:
            count = max(i1, 2 * len(self._sets), 64)
            parts, held = [self._sets], len(self._sets)
            for block in self._blocks:
                parts.append(block)
                held += len(block)
                if held >= count:
                    break
            self._sets = _stacked(parts)
            widths = np.array([p.shape[1] for p in parts[1:]], dtype=self.sizes.dtype)
            self.sizes = np.concatenate([self.sizes, np.repeat(widths, [len(p) for p in parts[1:]])])
        return self._sets[i0:i1, : self.sizes[i0:i1].max()]

    def at(self, index):
        """Rows index (read before), padded with zeros to the widest held."""
        return self._sets[index]


def _hamming_blocks(n):
    """Position sets in Hamming order, in blocks of one weight and top position.

    Increasing integer value within a weight class is colex order: rows
    C(t, w) .. C(t + 1, w) - 1 of class w are the first C(t, w - 1) rows of
    class w - 1, each plus the top position t, so the generator keeps the
    class below whole while it builds the next.
    """
    dtype = np.min_scalar_type(n)
    below = np.zeros((1, 0), dtype=dtype)  # class 0: the empty set
    yield below
    for w in range(1, n + 1):
        built = []
        for t in range(w - 1, n):
            block = np.empty((comb(t, w - 1), w), dtype=dtype)
            block[:, :-1] = below[: len(block)]
            block[:, -1] = t + 1
            built.append(block)
            yield block
        below = np.concatenate(built)


def _logistic_blocks(n):
    """Rank sets in logistic order, in blocks of one rank sum and set size.

    The sets of m ranks with sum w are memoised per (w, m) and built in one
    array from two smaller sums: less 1 each, those that start at rank 1
    are 1 followed by a set of m - 1 ranks summing to w - m, and the others,
    which follow them, are a set of m ranks summing to w - m.
    """
    dtype = np.min_scalar_type(n)

    @functools.cache
    def distinct(w, m):
        # (count, m) sets of m distinct ranks in 1..n summing to w, in
        # lexicographic order (what _distinct_parts yields).
        if m == 0 or w < m * (m + 1) // 2:
            return np.zeros((int(w == m == 0), m), dtype=dtype)  # the empty set, or none
        ones, rest = distinct(w - m, m - 1), distinct(w - m, m)
        sets = np.empty((len(ones) + len(rest), m), dtype=dtype)
        sets[: len(ones), 0] = 1
        np.add(ones, 1, out=sets[: len(ones), 1:])
        np.add(rest, 1, out=sets[len(ones) :])
        # The largest rank is w less 1 + 2 + ... + (m - 1) at most.
        return sets[sets[:, -1] <= n] if w - m * (m - 1) // 2 > n else sets

    yield distinct(0, 0)
    for w in range(1, n * (n + 1) // 2 + 1):
        m = 1
        while m * (m + 1) // 2 <= w:
            yield distinct(w, m)
            m += 1


def _stacked(parts):
    """The rows of parts one below the other, padded with zeros to the widest."""
    out = np.zeros((sum(len(p) for p in parts), max(p.shape[1] for p in parts)), dtype=parts[0].dtype)
    row = 0
    for p in parts:
        out[row : row + len(p), : p.shape[1]] = p
        row += len(p)
    return out


@functools.cache
def _patterns(n, blocks):
    """The store of one order (_hamming_blocks or _logistic_blocks) for n."""
    return _Patterns(blocks(n))


def _ranking(reliability, rows, n):
    """np.argsort(reliability(rows, out=...), axis=1, kind="stable") in
    np.min_scalar_type(n) (see guess); a ValueError if one of the rows holds
    a negative or NaN value. Nonnegative float64s order as their bits do,
    the sign bit (set on -0.0) cleared, so the bits with the position in
    place of the last mantissa bits sort (faster than an argsort) to the
    positions in value order, unless two of a row's values agree in all
    other bits: only such rows are asked for again and sorted stably."""
    vals = reliability(rows, out=scratch("rank keys", (len(rows), n), np.float64))
    if vals.size and not vals.min() >= 0:  # min propagates NaN
        raise ValueError("reliabilities must be nonnegative |LLR|s; a row that searches has a negative or NaN one")
    keys, shift = vals.view(np.uint64), max(1, (n - 1).bit_length())
    keys &= np.uint64((1 << 63) - (1 << shift))
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    order = np.bitwise_and(keys, np.uint64((1 << shift) - 1), out=np.empty(keys.shape, np.min_scalar_type(n)), casting="unsafe")
    keys >>= np.uint64(shift)
    tied = keys[:, 1:] == keys[:, :-1]
    if tied.any():  # a whole-array any is several times faster than one per row
        tied = np.flatnonzero(tied.any(axis=1))
        order[tied] = reliability(rows[tied], out=np.empty((len(tied), n))).argsort(axis=1, kind="stable")
    return order


def _xor_gather(table, index, out=None):
    """XOR, for each row of index, of the table entries it names, into out
    if given (take writes out without a temporary only with mode="clip")."""
    out = table.take(index[:, 0], axis=0, out=out, mode="clip")
    if index.shape[1] > 1:
        entries = scratch("entries", out.shape, out.dtype)
        for col in index.T[1:]:
            out ^= table.take(col, axis=0, out=entries, mode="clip")
    return out


def _with_zero_row(columns):
    """columns below a zero row, so index p + 1 is position p and 0 is none."""
    return np.concatenate([np.zeros((1, columns.shape[1]), dtype=np.uint8), columns])


def guess(words, oracle, max_queries, reliability=None):
    """Decode every row of a batch of packed hard-decision words in lockstep.

    reliability=None searches the Hamming order (GRAND). Else the logistic
    order runs through each row's own |LLR| ranks (ORBGRAND), from a (B, n)
    array, read as float64, or from reliability(rows, out=...), which writes
    the |LLR|s of rows that fail the first query into out and returns it.
    Returns (found (B,), blocks (B, nbytes), queries (B,)). A found row's
    block is what the oracle decoded at its first acceptance, reached at
    query `queries`; a row not found was abandoned after min(max_queries,
    2^n) queries, and its block is meaningless.
    """
    max_queries = integer("max_queries", max_queries, 1)
    n, nbytes = oracle.params.n, oracle.params.nbytes
    words = np.asarray(words, dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != nbytes:
        raise ValueError(f"expected (B, {nbytes}) packed words, got shape {words.shape}")
    if reliability is not None and not callable(reliability):
        if np.shape(reliability) != (len(words), n):
            raise ValueError(f"expected ({len(words)}, {n}) reliabilities, got shape {np.shape(reliability)}")
        reliability = functools.partial(np.take, np.asarray(reliability, np.float64), axis=0, mode="clip")
    ok, blocks = oracle.decode_batch(words)
    found = np.array(ok, dtype=bool)
    blocks = np.array(blocks, dtype=np.uint8)  # a copy: some oracles hand back their input
    queries = np.ones(len(words), dtype=np.int64)
    searched = np.flatnonzero(~found)
    image = np.ascontiguousarray(oracle.images(words[searched]))
    lane, item = f"u{gcd(image.shape[1], 8)}", f"V{image.shape[1]}"
    image, columns = image.view(lane), _with_zero_row(oracle.image_columns()).view(lane)
    # order[r, a] is 1 + the position that rank r flips in row a, and 0 for
    # rank 0 (padding): an index into columns below a zero row. table[r, a]
    # is that position's image; a table of one column serves every row.
    if reliability is None:
        store = _patterns(n, _hamming_blocks)
        order = np.broadcast_to(np.arange(n + 1)[:, None], (n + 1, len(searched)))
        table = columns[:, None]
    else:
        store = _patterns(n, _logistic_blocks)
        order = scratch("rank order", (n + 1, len(searched)), np.min_scalar_type(n))
        order[0] = 0
        for part in (slice(s, s + _RANK_ROWS) for s in range(0, len(searched), _RANK_ROWS)):
            np.add(_ranking(reliability, searched[part], n).T, 1, out=order[1:, part])
        table = np.zeros((1, *image.shape), lane)  # rank 0; extended as the steps read further
    at = np.arange(len(searched))  # the searching rows' columns of order
    space = min(max_queries, 1 << n)
    i, c = 1, _FIRST_STEP
    while at.size and i < space:
        c = min(c, max(1, _MAX_WORDS // at.size), space - i)
        ranks = store.ranks(i, i + c)
        if len(table) <= n and (top := ranks.max()) >= len(table):
            # take and compress measured 5-10x faster than the same fancy indexing.
            more = order[len(table) : min(n + 1, max(top + 1, 2 * len(table)))].take(at, axis=1)
            table = np.concatenate([table, columns.take(more, axis=0)])
        # Candidate images are pattern-major: (c, rows, w).
        cand = scratch("candidates", (c, *image.shape), lane)
        np.copyto(cand.view(item), _xor_gather(table, ranks, scratch("patterns", (c, *table.shape[1:]), lane)).view(item))
        np.bitwise_xor(cand.reshape(c, -1), image.reshape(-1), out=cand.reshape(c, -1))
        ok = oracle.accept_images(cand.view(np.uint8).reshape(c * at.size, -1)).reshape(c, at.size)
        hit = ok.any(axis=0)
        if hit.any():
            done = searched[at[hit]]
            found[done] = True
            queries[done] = ok[:, hit].argmax(axis=0) + (i + 1)
            keep = ~hit
            at, image = at[keep], image[keep]
            if table.shape[1] > 1:
                table = table.compress(keep, axis=1)
        i += c
        c *= _GROWTH
    queries[searched[at]] = i
    hit = np.flatnonzero(found[searched])
    if hit.size:
        done = searched[hit]
        flips = order[store.at(queries[done] - 1), hit[:, None]]
        e = np.bitwise_xor.reduce(_with_zero_row(one_bit_masks(n)).take(flips, axis=0), axis=1)
        blocks[done] = oracle.decode_batch(words[done] ^ e)[1]
    return found, blocks, queries


def _outcome(oracle, blocks_of, weigh, result):
    """One row's DecodeOutcome; weigh maps the accepted set of the order
    blocks_of, padded with zeros, to its final_weight."""
    found, blocks, queries = (a[0] for a in result)
    queries = int(queries)
    if not found:
        return DecodeOutcome(message=None, queries=queries, final_weight=None)
    full = BitVec.from_bytes(blocks.tobytes(), oracle.params.n)
    accepted = _patterns(oracle.params.n, blocks_of).at(queries - 1)
    return DecodeOutcome(
        message=split(full, oracle.params.k)[0],
        queries=queries,
        final_weight=int(weigh(accepted)),
    )


def grand_decode(y, oracle, max_queries=DEFAULT_MAX_QUERIES):
    """Decode a hard-decision BitVec by guessing noise in Hamming order."""
    if len(y) != oracle.params.n:
        raise ValueError(f"expected {oracle.params.n}-bit word, got {len(y)}")
    words = np.frombuffer(y.to_bytes(), dtype=np.uint8)[None]
    return _outcome(oracle, _hamming_blocks, np.count_nonzero, guess(words, oracle, max_queries))


def orbgrand_decode(word, oracle, max_queries=DEFAULT_MAX_QUERIES):
    """Decode a SoftWord by guessing noise in logistic (rank-sum) order."""
    if not isinstance(word, SoftWord):
        raise TypeError("orbgrand_decode needs a SoftWord with LLRs")
    if len(word) != oracle.params.n:
        raise ValueError(f"expected {oracle.params.n}-bit word, got {len(word)}")
    words = np.packbits(hard_bits(word.samples))[None]
    result = guess(words, oracle, max_queries, reliability=np.abs(word.llrs)[None])
    return _outcome(oracle, _logistic_blocks, np.sum, result)
