"""Monte Carlo BER/BLER campaigns over a BPSK AWGN grid.

Every trial is deterministically addressable: trial t of grid point p lives
in batch b = t // TRIAL_BATCH. Batch b's message bits are the top bits of
the bytes of the raw PCG64 stream seeded with (master_seed, p, b, 0), the
bits default_rng((master_seed, p, b, 0)).integers(0, 2, ..., np.uint8)
draws; its channel noise comes from default_rng((master_seed, p, b, 1)).
Results are therefore bit-identical for any worker count, and campaigns
that differ only in code or decoder see identical messages and noise
(paired comparisons).

A point stops after the trial that produces the min_block_errors-th block
error, or at max_blocks. Its chunks are folded in batch order into running
counts and an exact query histogram, the one holding the stopping trial cut
after it: batches past it never change which trials are counted, and no
record outlives its chunk. Abandoned blocks (query budget exhausted) count
as block errors with ceil(k/2) message bit errors.

A campaign builds its working state once per process (_Simulation). Its
unit of work is a chunk: 1, 2, then 4 contiguous batches of a point,
decoded in one guess call and returned as one record array (run_batches);
chunk i belongs to worker i mod W, and _chunks, the one code that places
chunks, names with each chunk the same worker's next one, chunk i + W. The
calling process is worker 0, and W - 1 forked workers send each chunk's
records down their own pipe (_Executor). As soon as the chunks in order
hold a point's stopping trial, the calling process publishes the point's
batch count, and each forked worker clips its next chunk to it. A process
starts its helper, a one-thread executor, when first handed a next chunk
to draw, after any fork (never for run_block or a one-batch point); its
thread ends with the campaign, or with the _Simulation. The helper runs
only _draw: it draws the process's next chunk while the current one decodes,
and the decoding thread draws too rather than wait for it (run_batches).
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import math
import multiprocessing
import pickle
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .aes_core import DEFAULT_KEY_HEX, Aes128, key_from_hex
from .channel import llr_from_samples, noise_entropy_bits, sigma_from_ebn0
from .codes import AesPadOracle, CodeParams, RlcOracle, integer, message_bit_mask, rlc_generate, scratch
from .grand import DEFAULT_MAX_QUERIES, guess

__all__ = [
    "TRIAL_BATCH",
    "CampaignConfig",
    "BlockRecord",
    "PointResult",
    "CampaignResult",
    "wilson_interval",
    "run_block",
    "run_point",
    "run_campaign",
]

# Trials per RNG batch. Fixed: it is part of the trial-addressing scheme,
# so changing it changes every campaign's sample path.
TRIAL_BATCH = 256

# A batch's per-trial records; a block is in error iff it has bit errors.
_RECORD = np.dtype([("bit_errors", np.int64), ("queries", np.int64), ("abandoned", np.bool_)])

# Processes per campaign at most, so a mistyped count forks nothing.
MAX_WORKERS = 64

# two-sided 95% normal quantile
Z95 = 1.9599639845400545

CODE_KINDS = ("aes", "rlc")
DECODER_KINDS = ("grand", "orbgrand")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign depends on; two equal configs replay identically."""

    code_kind: str = "aes"
    decoder_kind: str = "grand"
    n: int = 128
    k: int = 116
    ebn0_grid_db: tuple = (6.0, 6.5, 7.0, 7.5, 8.0)
    max_queries: int = DEFAULT_MAX_QUERIES
    min_block_errors: int = 100
    max_blocks: int = 10**6
    master_seed: int = 1
    aes_key_hex: str = DEFAULT_KEY_HEX
    rlc_seed: int = 1

    def __post_init__(self):
        # A string is iterable too, one character per grid point.
        if isinstance(self.ebn0_grid_db, (str, bytes)) or not np.iterable(self.ebn0_grid_db):
            raise ValueError(f"ebn0_grid_db must be a sequence of numbers, got {self.ebn0_grid_db!r}")
        object.__setattr__(self, "ebn0_grid_db", tuple(float(x) for x in self.ebn0_grid_db))
        # Plain ints, so that equal configs have one canonical JSON (1e6 is
        # not 10**6 there, and numpy integers are not JSON at all). Seeds
        # may be 0; lengths and counts may not. max_blocks fits an int64, as
        # the forked workers' shared stops do (a larger count would wrap).
        for name in ("n", "k", "max_queries", "min_block_errors", "max_blocks", "master_seed", "rlc_seed"):
            low, high = 0 if name.endswith("_seed") else 1, 2**63 if name == "max_blocks" else None
            object.__setattr__(self, name, integer(name, getattr(self, name), low, high))
        if self.code_kind not in CODE_KINDS:
            raise ValueError(f"code_kind must be one of {CODE_KINDS}, got {self.code_kind!r}")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}, got {self.decoder_kind!r}")
        CodeParams(self.n, self.k)
        if self.code_kind == "aes" and self.n != 128:
            raise ValueError(f"the aes code needs n = 128, got n = {self.n}")
        # Every config's canonical JSON records the key, so every config checks it.
        key_from_hex(self.aes_key_hex)
        if not self.ebn0_grid_db:
            raise ValueError("ebn0_grid_db must not be empty")
        for x in self.ebn0_grid_db:
            sigma_from_ebn0(x, self.params.rate)  # a finite positive sigma, or a ValueError

    @property
    def params(self):
        return CodeParams(self.n, self.k)


@dataclass(frozen=True)
class BlockRecord:
    """Outcome of one simulated block."""

    point_index: int
    trial_index: int
    error: bool
    bit_errors: int
    queries: int
    abandoned: bool


@dataclass
class PointResult:
    """Aggregated statistics for one Eb/N0 grid point."""

    ebn0_db: float
    sigma: float
    noise_entropy_bits: float
    blocks: int
    block_errors: int
    bit_errors: int
    abandoned_blocks: int
    bler: float
    bler_ci_low: float
    bler_ci_high: float
    ber: float
    ber_ci_low: float
    ber_ci_high: float
    bler_rule_of_three_upper: float | None
    mean_queries: float
    p99_queries: float


def wilson_interval(successes, trials):
    """Wilson score interval for a binomial proportion, at 95%."""
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    zz = Z95 * Z95
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class _Simulation:
    """A campaign's working state, built once per process: the oracle over
    its cipher or code, the message mask, each point's sigma and thresholds,
    two draw slots, each with room for a chunk's message bits and standard
    normals, and the helper, a one-thread executor whose thread ends with it."""

    def __init__(self, config):
        self.config = config
        params = config.params
        self.sigmas = [sigma_from_ebn0(x, params.rate) for x in config.ebn0_grid_db]
        self.thresholds = [(_least_z(s, -1.0), _least_z(s, 1.0)) for s in self.sigmas]
        if config.code_kind == "aes":
            self.oracle = AesPadOracle(params, Aes128(config.aes_key_hex))
        else:
            self.oracle = RlcOracle(rlc_generate(params, config.rlc_seed))
        self.msg_mask = message_bit_mask(params)
        rows = _CHUNK * TRIAL_BATCH
        self.slots = [(np.empty((rows, params.k), np.uint8), np.empty((rows, params.n))) for _ in range(2)]
        self.helper = self.pending = None  # pending: (point, todo, slot, chunk, future) of the helper's draw

    def stop_helper(self):
        """Shut the draw thread down, if one runs; safe to call at any point."""
        if self.helper is not None:
            self.helper.shutdown()
            self.helper = self.pending = None

    def _draw(self, point, todo, slot, busy=None):
        """Draw grid point `point`'s batches into draw slot `slot`, the one
        place that names the generators: pop each (i, b) of `todo`, a list
        both threads may pop, until it is empty or the future `busy`, if
        given, is done, and draw batch b into rows from i * TRIAL_BATCH."""
        cfg = self.config
        while todo and not (busy is not None and busy.done()):
            try:
                i, b = todo.pop()
            except IndexError:  # the other thread took the last
                return
            rows = slice(i * TRIAL_BATCH, i * TRIAL_BATCH + min(TRIAL_BATCH, cfg.max_blocks - b * TRIAL_BATCH))
            bits = self.slots[slot][0][rows]
            # The raw stream's top bit per byte: what integers(0, 2, ..., np.uint8) draws.
            raw = np.random.PCG64((cfg.master_seed, point, b, 0)).random_raw(-(-bits.size // 8))
            np.right_shift(raw.astype("<u8", copy=False).view(np.uint8)[: bits.size].reshape(bits.shape), 7, out=bits)
            np.random.default_rng((cfg.master_seed, point, b, 1)).standard_normal(out=self.slots[slot][1][rows])

    def run_batches(self, point, batches, later=()):
        """The records of grid point `point`'s batches, at most _CHUNK in
        increasing order, as one array. If the pending draw starts at them and
        covers them, this thread draws what the helper has not begun; else it
        is cut short and they are drawn into the other slot. The helper then
        starts drawing `later`, this process's next chunk of the point (the
        first such draw starts the helper), and this thread draws batches of it
        while the helper is mid-batch on these; one guess call decodes them."""
        cfg = self.config
        n, k, sigma, (t0, t1) = cfg.n, cfg.k, self.sigmas[point], self.thresholds[point]
        rows = sum(min(TRIAL_BATCH, cfg.max_blocks - b * TRIAL_BATCH) for b in batches)
        slot, todo, pending, self.pending = 0, list(enumerate(batches)), self.pending, None
        if pending is not None:
            p, shared, slot, drawn, busy = pending
            if p == point and list(drawn[: len(batches)]) == list(batches):
                todo = shared
            else:
                shared.clear()  # the helper stops after the batch it draws
                slot = 1 - slot
        self._draw(point, todo, slot)
        if later:
            if self.helper is None:  # first needed here, after any fork, which copies no thread
                self.helper = ThreadPoolExecutor(1, "campaign draw")
            ahead = list(enumerate(later))
            self.pending = (point, ahead, 1 - slot, later, self.helper.submit(self._draw, point, ahead, 1 - slot))
            if pending is not None and todo is shared:  # the helper writes only this slot until busy is done
                self._draw(point, ahead, 1 - slot, busy)
        if pending is not None:
            busy.result()  # no draw writes this slot from here; raises what the draw raised
        bits, z = (a[:rows] for a in self.slots[slot])
        # A correct decode hands back the message in its first k bits: the
        # padded plaintext for the aes code, the systematic codeword for the rlc.
        ref = np.zeros((rows, cfg.params.nbytes), np.uint8)
        ref[:, : -(-k // 8)] = np.packbits(bits, axis=1)
        code = self.oracle.cipher.encrypt_batch(ref) if cfg.code_kind == "aes" else self.oracle.code.encode(ref)
        # y = sigma z + x < 0, x = 1 - 2c as int8 (awgn_samples's sums), iff the
        # float sigma z < -x, so iff z < t0, or z < t1 where c is 1: no y is formed.
        below = scratch("hard bits", (rows, n), np.bool_)
        words = np.packbits(np.less(z, t0, out=below), axis=1)
        words |= code & np.packbits(np.less(z, t1, out=below), axis=1)
        def abs_llrs(searched, out):  # ORBGRAND's reliabilities, formed only for the rows that search
            y = z.take(searched, axis=0, out=out, mode="clip")
            y *= sigma
            y += np.subtract(1, np.unpackbits(code[searched], axis=1, count=n) << 1, dtype=np.int8)
            return np.abs(llr_from_samples(y, sigma, out=y), out=y)
        found, blocks, queries = guess(words, self.oracle, cfg.max_queries,
                                       abs_llrs if cfg.decoder_kind == "orbgrand" else None)
        rec = np.empty(rows, _RECORD)
        rec["bit_errors"] = np.bitwise_count((blocks ^ ref) & self.msg_mask).sum(axis=1, dtype=np.int64)
        rec["bit_errors"][~found] = (k + 1) // 2
        rec["queries"] = queries
        rec["abandoned"] = ~found
        return rec


def _least_z(sigma, v):
    """The least float64 z with z * sigma >= v in float64 (nondecreasing in z), stepped to from v / sigma."""
    z = v / sigma
    while z * sigma < v or math.nextafter(z, -math.inf) * sigma >= v:
        z = math.nextafter(z, math.inf if z * sigma < v else -math.inf)
    return z


def run_block(config, point_index, trial_index):
    """Replay a single trial; used for spot checks and debugging.

    The block is reproduced from its containing RNG batch, so the record
    matches what a campaign computes for the same (seed, point, trial).
    """
    point_index = integer("point_index", point_index, 0, len(config.ebn0_grid_db))
    trial_index = integer("trial_index", trial_index, 0, config.max_blocks)
    b = trial_index // TRIAL_BATCH
    rec = _Simulation(config).run_batches(point_index, [b])[trial_index - b * TRIAL_BATCH]
    bit_errors, queries, abandoned = rec.item()
    return BlockRecord(point_index, trial_index, bit_errors > 0, bit_errors, queries, abandoned)


def _point_result(config, point_index, chunks):
    """PointResult of one point from its chunks' records in batch order,
    and the number of batches its counted trials span. Each chunk is folded,
    as it is read, into running counts and an exact {queries: blocks}
    histogram; the chunk that holds the stopping trial is cut after it, from
    its error cumsum and the errors already folded, and ends the loop."""
    blocks = block_errors = total_bit_errors = abandoned = 0
    hist = {}
    for rec in chunks:
        errors = int(np.count_nonzero(rec["bit_errors"]))
        stop = block_errors + errors >= config.min_block_errors
        if stop:
            errors = config.min_block_errors - block_errors
            rec = rec[: int(np.searchsorted(np.cumsum(rec["bit_errors"] > 0), errors)) + 1]
        blocks += len(rec)
        block_errors += errors
        total_bit_errors += int(rec["bit_errors"].sum())
        abandoned += int(np.count_nonzero(rec["abandoned"]))
        values, counts = np.unique(rec["queries"], return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            hist[value] = hist.get(value, 0) + count
        if stop:
            break

    sigma = sigma_from_ebn0(config.ebn0_grid_db[point_index], config.params.rate)
    total_bits = blocks * config.k
    bler_lo, bler_hi = wilson_interval(block_errors, blocks)
    ber_lo, ber_hi = wilson_interval(total_bit_errors, total_bits)
    return PointResult(
        ebn0_db=config.ebn0_grid_db[point_index],
        sigma=sigma,
        noise_entropy_bits=noise_entropy_bits(sigma),
        blocks=blocks,
        block_errors=block_errors,
        bit_errors=total_bit_errors,
        abandoned_blocks=abandoned,
        bler=block_errors / blocks,
        bler_ci_low=bler_lo,
        bler_ci_high=bler_hi,
        ber=total_bit_errors / total_bits,
        ber_ci_low=ber_lo,
        ber_ci_high=ber_hi,
        bler_rule_of_three_upper=(3.0 / blocks if block_errors == 0 else None),
        mean_queries=sum(value * count for value, count in hist.items()) / blocks,
        p99_queries=_p99(hist),
    ), -(-blocks // TRIAL_BATCH)


def run_point(config, point_index):
    """Simulate one grid point in this process until the stopping rule fires."""
    point_index = integer("point_index", point_index, 0, len(config.ebn0_grid_db))
    with contextlib.closing(_Executor(_Simulation(config), 1)) as runner:
        return runner.run_point(point_index)


_CHUNK = 4  # batches per chunk at most (1,024 rows in one guess call)


def _chunks(workers, stop, p):
    """Point p's batches in order, as (rank, chunk, later) of contiguous
    batches: chunk i belongs to worker i mod W, and later is that worker's
    next chunk, chunk i + W. Chunks hold 1 batch until every worker has run
    one (so a stop in batch 0 costs that batch alone), then 2, then 4
    (_CHUNK); both are clipped to stop[p], the point's published batch
    count (at first every batch), as read before the chunk."""
    b, i, size = 0, 0, 1
    while chunk := range(b, min(end := stop[p], b + size)):
        # Chunk i + W: W - i mod W chunks of this size from b, then i mod W of the next.
        rank, wider = i % workers, min(2 * size, _CHUNK)
        start = b + (workers - rank) * size + rank * wider
        yield rank, chunk, range(start, min(end, start + wider))
        b, i = chunk.stop, i + 1
        if i % workers == 0:
            size = wider


def _worker(sim, rank, workers, stop, conn, inherited):
    """Body of campaign worker `rank` of `workers`, on the _Simulation it
    inherits from the parent: walks the chunks (_chunks) of each grid point,
    points in order, and sends each chunk it owns down its pipe as one
    pickled (point, records) message, or (-1, (exception, traceback)) if it
    fails, blocking while the pipe is full. It first closes the pipe read
    ends it inherited (its own and earlier ranks'), so that a send fails,
    and the worker exits, once the calling process is gone. Ctrl-C's SIGINT
    reaches the whole process group; the calling process handles it alone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for read_end in inherited:
        read_end.close()
    try:
        for p in range(len(sim.sigmas)):
            for owner, chunk, later in _chunks(workers, stop, p):
                if owner == rank:
                    conn.send((p, sim.run_batches(p, chunk, later)))
    except Exception as exc:
        import traceback

        tb = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))  # some exceptions pickle but cannot be rebuilt
        except Exception:
            exc = RuntimeError(repr(exc))
        conn.send((-1, (exc, tb)))
    finally:
        sim.stop_helper()
        conn.close()


class _Executor:
    """One campaign's chunk loop on W workers: the calling process is worker
    0, and ranks 1..W-1 are forked from a pinned fork context, inheriting
    the _Simulation and the imported modules. (Spawn or forkserver, which
    Python 3.14 made the default on Linux, would pay the interpreter
    start-up and imports, about 0.1 s, again in every campaign.) Every
    process walks the same chunks of a point (_chunks) and runs each of its
    own with its next one for the helper to draw: the calling process runs
    its own as it needs them and reads each other chunk from its owner's
    pipe, which carries that worker's chunks in (point, batch) order, and
    it publishes each point's stop (see the module docstring).
    A forked worker runs ahead of the calling process until its pipe is
    full and blocks in send: a 64 KiB Linux pipe holds about 15 batches'
    records (three four-batch chunks, a fourth blocked in send). close()
    terminates it there.
    """

    def __init__(self, sim, workers):
        self.sim, self.config, self.workers = sim, sim.config, workers
        self.procs = []  # (result pipe, process) of ranks 1..W-1
        mp = multiprocessing.get_context("fork")
        self.stop = [-(-self.config.max_blocks // TRIAL_BATCH)] * len(sim.sigmas)
        if workers > 1:  # the first RawArray of a process costs about 6 ms in imports
            self.stop = mp.RawArray("q", self.stop)
        try:
            for rank in range(1, workers):
                recv, send = mp.Pipe(duplex=False)
                inherited = [recv, *(conn for conn, _ in self.procs)]
                proc = mp.Process(target=_worker, args=(sim, rank, workers, self.stop, send, inherited),
                                  name=f"campaign worker {rank}", daemon=True)
                proc.start()
                send.close()
                self.procs.append((recv, proc))
        except BaseException:
            self.close()
            raise

    def run_point(self, point_index):
        """Simulate one grid point until the stopping rule fires."""
        result, self.stop[point_index] = _point_result(self.config, point_index, self._ordered(point_index))
        return result

    def _ordered(self, p):
        for rank, chunk, later in _chunks(self.workers, self.stop, p):
            yield self._receive(rank, p) if rank else self.sim.run_batches(p, chunk, later)

    def _receive(self, rank, p):
        """The next chunk of point p from worker `rank`'s pipe, past its
        chunks of earlier points (computed beyond their stops); raise if the
        worker failed."""
        conn, proc = self.procs[rank - 1]
        while True:
            try:
                q, rec = conn.recv()
            except EOFError:
                # A worker's pipe ends when the worker exits, however it exits.
                proc.join()
                raise RuntimeError(f"{proc.name} (pid {proc.pid}) died with exit code {proc.exitcode}")
            if q < 0:
                exc, tb = rec
                raise exc from RuntimeError(f"in campaign worker {rank}:\n{tb}")
            if q == p:
                return rec

    def close(self):
        """Shut the draw thread down, stop and reap every worker; safe at any point."""
        self.sim.stop_helper()
        for _, proc in self.procs:
            proc.terminate()
        for conn, proc in self.procs:
            proc.join()
            conn.close()


def _p99(hist):
    """float(np.percentile(values, 99)) of the n > 0 integer values that
    `hist` counts, as {value: count}.

    numpy's linear method, written out: the 99th percentile sits at index
    h = 0.99 (n - 1) of the sorted values; with a and b the values at
    floor(h) and the next index (the last, at most) and g = h - floor(h),
    it is a + (b - a) g, or b - (b - a)(1 - g) when g >= 0.5. The same float
    operations give the same bits. Index i holds the first value whose
    cumulative count exceeds i; np.percentile imports numpy.ma.
    """
    values = sorted(hist)
    cumulative = list(itertools.accumulate(hist[v] for v in values))
    n = cumulative[-1]
    h = (n - 1) * 0.99
    lo = math.floor(h)
    a, b = (values[bisect.bisect_right(cumulative, i)] for i in (lo, min(lo + 1, n - 1)))
    g = h - lo
    return float(a + (b - a) * g) if g < 0.5 else float(b - (b - a) * (1 - g))


@dataclass
class CampaignResult:
    """All grid points of one campaign plus run metadata.

    canonical_json covers config and points only; what a rerun may change
    lives in meta, so reruns compare bit-identically. run_campaign fills it
    with the software version, the worker count, the wall time and each
    point's wall time and blocks/s; a file's meta is read as it stands.
    """

    config: CampaignConfig
    points: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def data_dict(self):
        return {"config": asdict(self.config), "points": [asdict(p) for p in self.points]}

    def canonical_json(self):
        return json.dumps(self.data_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self):
        return json.dumps({**self.data_dict(), "meta": self.meta}, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        """Parse a result; ValueError unless it holds one point per grid
        value, in order, and meta times none or all of them."""
        doc = json.loads(text)
        meta = doc.get("meta", {})
        config = CampaignConfig(**doc["config"])
        points = [PointResult(**p) for p in doc["points"]]
        if [p.ebn0_db for p in points] != list(config.ebn0_grid_db):
            raise ValueError(f"points at {[p.ebn0_db for p in points]} dB do not match the grid {config.ebn0_grid_db}")
        times = meta.get("points", [])
        if len(times) not in (0, len(points)):
            raise ValueError(f"meta holds times for {len(times)} of {len(points)} points")
        return cls(config, points, meta)

    # PointResult's fields but the noise entropy, a function of ebn0_db and the rate.
    CSV_FIELDS = tuple(f.name for f in fields(PointResult) if f.name != "noise_entropy_bits")


def run_campaign(config, workers=1, progress=False):
    """Run every grid point; bit-identical output for any worker count.

    The calling process runs every workers-th chunk, and workers - 1
    forked workers run the rest (see _Executor); at most MAX_WORKERS.
    """
    workers = integer("workers", workers, 1, MAX_WORKERS + 1)
    from . import __version__

    t0 = t_point = time.perf_counter()
    points, timed = [], []
    with contextlib.closing(_Executor(_Simulation(config), workers)) as runner:
        for i in range(len(config.ebn0_grid_db)):
            res = runner.run_point(i)
            now = time.perf_counter()
            points.append(res)
            timed.append({"wall_time_s": now - t_point, "blocks_per_s": res.blocks / (now - t_point)})
            t_point = now
            if progress:
                print(f"  {res.ebn0_db:5.2f} dB: blocks={res.blocks} errors={res.block_errors} bler={res.bler:.3e} "
                      f"ber={res.ber:.3e} mean_queries={res.mean_queries:.1f} "
                      f"blocks/s={timed[-1]['blocks_per_s']:.0f}", flush=True)
    meta = {"version": __version__, "workers": workers, "wall_time_s": time.perf_counter() - t0, "points": timed}
    return CampaignResult(config, points, meta)
