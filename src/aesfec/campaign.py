"""Monte Carlo BER/BLER campaigns over a BPSK AWGN grid.

Every trial is deterministically addressable: trial t of grid point p lives
in batch b = t // TRIAL_BATCH, and batch b draws its messages from
default_rng((master_seed, p, b, 0)) and its channel noise from
default_rng((master_seed, p, b, 1)). Results are therefore bit-identical
for any worker count, and campaigns that differ only in code or decoder
see identical messages and noise (paired comparisons).

A point stops after the trial that produces the min_block_errors-th block
error, or at max_blocks. The stopping trial is found on the per-trial
record concatenated in batch order, so batches computed past it never
change which trials are counted. Abandoned blocks (query budget exhausted)
count as block errors with ceil(k/2) message bit errors.

With workers == 1 a campaign runs in the calling process. With more, it
runs on that many forked worker processes (_Executor): worker r of W runs
batches r, r + W, r + 2W, ... of each point, points in order, and sends
each finished batch's records to the parent, which puts them back in
batch order. As soon as the ordered record holds a point's stopping
trial, the parent publishes the point's batch count in shared memory;
each worker reads it before its next batch and moves on to the next
point, so no worker waits for another and the work past a stopping trial
is a batch or two per worker.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import pickle
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .aes_core import DEFAULT_KEY_HEX, Aes128, key_from_hex
from .channel import ChannelPoint, awgn_samples, hard_bits, llr_from_samples, modulate, sigma_from_ebn0
from .codes import AesPadOracle, CodeParams, RlcOracle, message_bit_mask, rlc_generate
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
        object.__setattr__(self, "ebn0_grid_db", tuple(float(x) for x in self.ebn0_grid_db))
        if self.code_kind not in CODE_KINDS:
            raise ValueError(f"code_kind must be one of {CODE_KINDS}, got {self.code_kind!r}")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}, got {self.decoder_kind!r}")
        CodeParams(self.n, self.k)
        if self.code_kind == "aes":
            if self.n != 128:
                raise ValueError(f"the aes code needs n = 128, got n = {self.n}")
            key_from_hex(self.aes_key_hex)
        if not self.ebn0_grid_db:
            raise ValueError("ebn0_grid_db must not be empty")
        if any(not math.isfinite(x) for x in self.ebn0_grid_db):
            raise ValueError(f"ebn0_grid_db must be finite, got {self.ebn0_grid_db}")
        for name in ("max_queries", "min_block_errors", "max_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("master_seed", "rlc_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def params(self):
        return CodeParams(self.n, self.k)

    def to_dict(self):
        d = asdict(self)
        d["ebn0_grid_db"] = list(self.ebn0_grid_db)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


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

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def wilson_interval(successes, trials, z=Z95):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class _PointContext:
    """Per-(config, point) working state: cipher or code, oracle, masks."""

    def __init__(self, config, point_index):
        self.config = config
        self.point_index = point_index
        self.params = config.params
        self.sigma = sigma_from_ebn0(config.ebn0_grid_db[point_index], self.params.rate)
        if config.code_kind == "aes":
            self.cipher = Aes128(config.aes_key_hex)
            self.oracle = AesPadOracle(self.params, self.cipher)
            self.code = None
        else:
            self.code = rlc_generate(self.params, config.rlc_seed)
            self.oracle = RlcOracle(self.code)
        self.msg_mask = message_bit_mask(self.params)
        self.abandon_bit_errors = (self.params.k + 1) // 2
        # Channel buffers, reused by every batch (a partial last batch uses
        # their first rows): transients this size would each be mapped and
        # unmapped by the allocator, a page fault per 4 KiB touched.
        shape = (TRIAL_BATCH, self.params.n)
        self._x = np.empty(shape)
        self._y = np.empty(shape)
        self._rel = np.empty(shape)
        self._bits = np.empty(shape, dtype=np.uint8)

    def encode(self, msgs):
        """(B, k) message bits -> (codeword bits, reference blocks).

        A reference block is what a correct decode hands back: the padded
        plaintext for the aes code, the packed codeword for the rlc.
        """
        if self.code is not None:
            cw_bits = self.code.encode_bits(msgs)
            return cw_bits, np.packbits(cw_bits, axis=1)
        padded = np.zeros((msgs.shape[0], self.params.n), dtype=np.uint8)
        padded[:, : self.params.k] = msgs
        ref = np.packbits(padded, axis=1)
        return np.unpackbits(self.cipher.encrypt_batch(ref), axis=1), ref

    def run_batch(self, batch_index, size):
        cfg = self.config
        mrng = np.random.default_rng((cfg.master_seed, self.point_index, batch_index, 0))
        msgs = mrng.integers(0, 2, size=(size, self.params.k), dtype=np.uint8)
        nrng = np.random.default_rng((cfg.master_seed, self.point_index, batch_index, 1))
        cw_bits, ref = self.encode(msgs)
        x = modulate(cw_bits, out=self._x[:size])
        y = awgn_samples(x, self.sigma, nrng, out=self._y[:size])

        reliability = None
        if cfg.decoder_kind == "orbgrand":
            rel = self._rel[:size]
            reliability = np.abs(llr_from_samples(y, self.sigma, out=rel), out=rel)
        words = np.packbits(hard_bits(y, out=self._bits[:size]), axis=1)
        found, blocks, queries = guess(words, self.oracle, cfg.max_queries, reliability)
        bit_errors = np.bitwise_count((blocks ^ ref) & self.msg_mask).sum(axis=1, dtype=np.int64)
        bit_errors[~found] = self.abandon_bit_errors
        return bit_errors > 0, bit_errors, queries, ~found


def _batch_size(config, batch_index):
    start = batch_index * TRIAL_BATCH
    return max(0, min(TRIAL_BATCH, config.max_blocks - start))


def run_block(config, point_index, trial_index):
    """Replay a single trial; used for spot checks and debugging.

    The block is reproduced from its containing RNG batch, so the record
    matches what a campaign computes for the same (seed, point, trial).
    """
    if not 0 <= point_index < len(config.ebn0_grid_db):
        raise ValueError(f"point_index {point_index} out of range")
    if not 0 <= trial_index < config.max_blocks:
        raise ValueError(f"trial_index {trial_index} out of range")
    ctx = _PointContext(config, point_index)
    b = trial_index // TRIAL_BATCH
    error, bit_errors, queries, abandoned = ctx.run_batch(b, _batch_size(config, b))
    row = trial_index - b * TRIAL_BATCH
    return BlockRecord(
        point_index=point_index,
        trial_index=trial_index,
        error=bool(error[row]),
        bit_errors=int(bit_errors[row]),
        queries=int(queries[row]),
        abandoned=bool(abandoned[row]),
    )


def _n_batches(config):
    return -(-config.max_blocks // TRIAL_BATCH)


def _prefix(config, batches):
    """The records of one point's batches, taken in batch order up to the
    batch that holds the stopping trial (all of them if the rule never
    fires)."""
    recs = []
    seen_errors = 0
    for rec in batches:
        recs.append(rec)
        seen_errors += int(rec[0].sum())
        if seen_errors >= config.min_block_errors:
            break
    return recs


def _point_result(config, point_index, recs):
    """PointResult of one point from its _prefix records."""
    error, bit_errors, queries, abandoned = (np.concatenate(col) for col in zip(*recs))
    if int(error.sum()) >= config.min_block_errors:
        cum = np.cumsum(error)
        blocks = int(np.searchsorted(cum, config.min_block_errors)) + 1
    else:
        blocks = len(error)
    error = error[:blocks]
    bit_errors = bit_errors[:blocks]
    queries = queries[:blocks]
    abandoned = abandoned[:blocks]

    point = ChannelPoint(config.ebn0_grid_db[point_index], config.params.rate)
    block_errors = int(error.sum())
    total_bits = blocks * config.k
    total_bit_errors = int(bit_errors.sum())
    bler_lo, bler_hi = wilson_interval(block_errors, blocks)
    ber_lo, ber_hi = wilson_interval(total_bit_errors, total_bits)
    return PointResult(
        ebn0_db=config.ebn0_grid_db[point_index],
        sigma=point.sigma,
        noise_entropy_bits=point.noise_entropy_bits,
        blocks=blocks,
        block_errors=block_errors,
        bit_errors=total_bit_errors,
        abandoned_blocks=int(abandoned.sum()),
        bler=block_errors / blocks,
        bler_ci_low=bler_lo,
        bler_ci_high=bler_hi,
        ber=total_bit_errors / total_bits,
        ber_ci_low=ber_lo,
        ber_ci_high=ber_hi,
        bler_rule_of_three_upper=(3.0 / blocks if block_errors == 0 else None),
        mean_queries=float(queries.mean()),
        p99_queries=_p99(queries),
    )


def run_point(config, point_index):
    """Simulate one grid point in this process until the stopping rule fires."""
    ctx = _PointContext(config, point_index)
    batches = (ctx.run_batch(b, _batch_size(config, b)) for b in range(_n_batches(config)))
    return _point_result(config, point_index, _prefix(config, batches))


# A worker's message: (point, batch) and that batch's records, or point -1
# and the worker's rank followed by its pickled (exception, traceback).
_HEADER = struct.Struct("<qq")
_RECORD = np.dtype([("bit_errors", np.int64), ("queries", np.int64), ("abandoned", np.bool_)])


def _worker(config, rank, workers, stop, conn):
    """Body of campaign worker `rank` of `workers`.

    Runs batches rank, rank + workers, ... of each grid point, points in
    order, with one _PointContext per point, and sends each batch's records
    to the parent as soon as they are done. Before each batch it reads
    stop[point], the batch count the parent publishes once the point's
    stopping trial is known, and moves on to the next point when its next
    batch lies past it.
    """
    try:
        for p in range(len(config.ebn0_grid_db)):
            ctx = None
            for b in range(rank, _n_batches(config), workers):
                if b >= stop[p]:
                    break
                if ctx is None:
                    ctx = _PointContext(config, p)
                _, bit_errors, queries, abandoned = ctx.run_batch(b, _batch_size(config, b))
                rec = np.empty(len(queries), _RECORD)
                rec["bit_errors"] = bit_errors
                rec["queries"] = queries
                rec["abandoned"] = abandoned
                conn.send_bytes(_HEADER.pack(p, b) + rec.tobytes())
    except Exception as exc:
        import traceback

        tb = traceback.format_exc()
        try:
            payload = pickle.dumps((exc, tb))
        except Exception:
            payload = pickle.dumps((RuntimeError(repr(exc)), tb))
        conn.send_bytes(_HEADER.pack(-1, rank) + payload)
    finally:
        conn.close()


class _Executor:
    """The worker processes of one campaign and the parent's side of them.

    The workers come from an explicitly pinned fork context. A forked
    worker starts with the parent's imported modules; one that re-imports
    them (spawn, or forkserver, which Python 3.14 made the default on
    Linux) would pay the interpreter start-up and imports, about 0.1 s,
    again in every campaign. The parent reassembles the workers' records
    in batch order and publishes each point's stop (see the module
    docstring).
    """

    def __init__(self, config, workers):
        self.config = config
        self.point = 0  # records of earlier points are dropped on arrival
        self.pending = {}  # (point, batch) -> records
        mp = multiprocessing.get_context("fork")
        self.stop = mp.RawArray("q", [_n_batches(config)] * len(config.ebn0_grid_db))
        self.procs = []
        self.running = {}  # sentinel -> process, until it is seen to exit
        self.conns = []  # result pipes not yet at end of file
        try:
            for rank in range(workers):
                recv, send = mp.Pipe(duplex=False)
                proc = mp.Process(
                    target=_worker,
                    args=(config, rank, workers, self.stop, send),
                    name=f"campaign worker {rank}",
                    daemon=True,
                )
                proc.start()
                send.close()
                self.procs.append(proc)
                self.running[proc.sentinel] = proc
                self.conns.append(recv)
        except BaseException:
            self.close()
            raise

    def run_point(self, point_index):
        """Like run_point, from the workers' records."""
        recs = _prefix(self.config, self._ordered(point_index))
        self.stop[point_index] = len(recs)
        self.point = point_index + 1
        self.pending = {key: rec for key, rec in self.pending.items() if key[0] > point_index}
        return _point_result(self.config, point_index, recs)

    def _ordered(self, p):
        for b in range(_n_batches(self.config)):
            while (p, b) not in self.pending:
                self._receive()
            rec = self.pending.pop((p, b))
            bit_errors = rec["bit_errors"]
            yield bit_errors > 0, bit_errors, rec["queries"], rec["abandoned"]

    def _receive(self):
        """Wait for and file the next messages; raise if a worker failed."""
        # Imported here so that campaigns run in-process (workers == 1)
        # never import it and the socket and tempfile modules it pulls in.
        from multiprocessing.connection import wait

        waiting = self.conns + list(self.running)
        if not waiting:
            raise RuntimeError("campaign workers exited before sending every batch")
        for obj in wait(waiting):
            if obj in self.running:
                proc = self.running.pop(obj)
                proc.join()
                if proc.exitcode != 0:
                    raise RuntimeError(f"{proc.name} (pid {proc.pid}) died with exit code {proc.exitcode}")
                continue
            try:
                buf = obj.recv_bytes()
            except EOFError:
                self.conns.remove(obj)
                obj.close()
                continue
            p, b = _HEADER.unpack_from(buf)
            if p < 0:
                exc, tb = pickle.loads(buf[_HEADER.size :])
                raise exc from RuntimeError(f"in campaign worker {b}:\n{tb}")
            if p >= self.point:
                self.pending[p, b] = np.frombuffer(buf, _RECORD, offset=_HEADER.size)

    def close(self):
        """Stop and reap every worker; safe to call at any point."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()


def _p99(values):
    """float(np.percentile(values, 99)) for a nonempty integer array.

    numpy's linear method, written out: the 99th percentile sits at index
    h = 0.99 (n - 1) of the sorted values; with a and b the values at
    floor(h) and the next index (the last, at most) and g = h - floor(h),
    it is a + (b - a) g, or b - (b - a)(1 - g) when g >= 0.5. The same
    float operations give the same bits, and a partition at the two
    indices replaces np.percentile's one, whose np.unique imports
    numpy.ma on first use.
    """
    h = (len(values) - 1) * 0.99
    lo = math.floor(h)
    hi = min(lo + 1, len(values) - 1)
    part = np.partition(values, (lo, hi))
    a, b = int(part[lo]), int(part[hi])
    g = h - lo
    return float(a + (b - a) * g) if g < 0.5 else float(b - (b - a) * (1 - g))


@dataclass
class CampaignResult:
    """All grid points of one campaign plus run metadata.

    canonical_json covers config and points only; wall times, the worker
    count and the software version live in a meta block so reruns compare
    bit-identically. Files written before meta held the worker count and
    per-point times load with workers None and no point times.
    """

    config: CampaignConfig
    points: list = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = ""
    workers: int | None = None
    point_wall_s: list = field(default_factory=list)

    def data_dict(self):
        return {
            "config": self.config.to_dict(),
            "points": [p.to_dict() for p in self.points],
        }

    def canonical_json(self):
        return json.dumps(self.data_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self):
        doc = self.data_dict()
        doc["meta"] = {
            "wall_time_s": self.wall_time_s,
            "version": self.version,
            "workers": self.workers,
            "points": [
                {"wall_time_s": w, "blocks_per_s": p.blocks / w}
                for p, w in zip(self.points, self.point_wall_s)
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        meta = doc.get("meta", {})
        return cls(
            config=CampaignConfig.from_dict(doc["config"]),
            points=[PointResult.from_dict(p) for p in doc["points"]],
            wall_time_s=meta.get("wall_time_s", 0.0),
            version=meta.get("version", ""),
            workers=meta.get("workers"),
            point_wall_s=[p["wall_time_s"] for p in meta.get("points", [])],
        )

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())

    CSV_FIELDS = (
        "ebn0_db",
        "sigma",
        "blocks",
        "block_errors",
        "bit_errors",
        "abandoned_blocks",
        "bler",
        "bler_ci_low",
        "bler_ci_high",
        "ber",
        "ber_ci_low",
        "ber_ci_high",
        "bler_rule_of_three_upper",
        "mean_queries",
        "p99_queries",
    )


def run_campaign(config, workers=1, progress=False):
    """Run every grid point; bit-identical output for any worker count.

    workers == 1 runs the points in this process; more start that many
    forked workers for the campaign (see _Executor).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    from . import __version__

    t0 = time.perf_counter()
    points = []
    point_wall_s = []
    executor = None
    try:
        if workers > 1:
            executor = _Executor(config, workers)
        t_point = t0
        for i in range(len(config.ebn0_grid_db)):
            res = run_point(config, i) if executor is None else executor.run_point(i)
            now = time.perf_counter()
            points.append(res)
            point_wall_s.append(now - t_point)
            t_point = now
            if progress:
                print(
                    f"  {res.ebn0_db:5.2f} dB: blocks={res.blocks} "
                    f"errors={res.block_errors} bler={res.bler:.3e} "
                    f"ber={res.ber:.3e} mean_queries={res.mean_queries:.1f} "
                    f"blocks/s={res.blocks / point_wall_s[-1]:.0f}",
                    flush=True,
                )
    finally:
        if executor is not None:
            executor.close()
    return CampaignResult(
        config=config,
        points=points,
        wall_time_s=time.perf_counter() - t0,
        version=__version__,
        workers=workers,
        point_wall_s=point_wall_s,
    )
