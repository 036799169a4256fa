"""Monte Carlo campaign engine: addressing, stopping, serialization."""

import errno
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aesfec import campaign
from aesfec.aes_core import Aes128
from aesfec.campaign import (
    TRIAL_BATCH,
    CampaignConfig,
    CampaignResult,
    PointResult,
    run_block,
    run_campaign,
    run_point,
    wilson_interval,
)
from aesfec.channel import awgn_samples, hard_bits, llr_from_samples, modulate, noise_entropy_bits, sigma_from_ebn0
from aesfec.codes import AesPadOracle, RlcOracle, message_bit_mask, rlc_generate
from aesfec.cli import plot_data_csv
from aesfec.grand import guess

# high SNR keeps unit-test campaigns to a few thousand blocks
FAST = dict(
    ebn0_grid_db=(8.0,),
    min_block_errors=5,
    max_blocks=20000,
    master_seed=7,
)


def wilson_oracle(s, n, z):
    # straight transcription of the score interval, kept independent of
    # the implementation under test
    p = s / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = CampaignConfig()
        assert cfg.params.rate == 116 / 128
        again = CampaignConfig(**asdict(cfg))
        assert again == cfg

    def test_grid_coerced_to_floats(self):
        cfg = CampaignConfig(ebn0_grid_db=[6, 7])
        assert cfg.ebn0_grid_db == (6.0, 7.0)
        assert all(isinstance(v, float) for v in cfg.ebn0_grid_db)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(code_kind="hamming"),
            dict(decoder_kind="viterbi"),
            dict(code_kind="aes", n=64, k=52),
            dict(k=0),
            dict(k=200),
            dict(ebn0_grid_db=()),
            dict(max_queries=0),
            dict(min_block_errors=0),
            dict(max_blocks=-1),
            dict(aes_key_hex="zz"),
            dict(rlc_seed=-1),
            dict(max_queries=1e6),
            dict(max_blocks=1e4),
            dict(n="128"),
            dict(master_seed=1.5),
            dict(ebn0_grid_db="78"),
            dict(ebn0_grid_db=b"78"),
            dict(ebn0_grid_db=7.0),
            dict(ebn0_grid_db=np.float64(7.0)),
            # Eb/N0 values without a finite positive sigma: overflow, a zero
            # divisor, sigma 0 and sigma inf.
            dict(ebn0_grid_db=(6.0, 3090.0)),
            dict(ebn0_grid_db=(6.0, -3240.0)),
            dict(ebn0_grid_db=(6.0, 3080.0)),
            dict(ebn0_grid_db=(6.0, -3100.0)),
            # The canonical JSON of every config holds its key, whatever the code.
            dict(code_kind="rlc", aes_key_hex="zz"),
            # A key that is not a string at all.
            dict(aes_key_hex=5),
            # A batch count the workers' int64 stops would wrap.
            dict(max_blocks=2**63),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)

    def test_numpy_integers_give_the_int_config(self):
        ints = dict(n=128, k=116, max_queries=300, min_block_errors=5, max_blocks=512, master_seed=7, rlc_seed=1)
        cfg = CampaignConfig(ebn0_grid_db=(8.0,), **{name: np.int64(v) for name, v in ints.items()})
        assert all(type(getattr(cfg, name)) is int for name in ints)
        want = run_campaign(CampaignConfig(ebn0_grid_db=(8.0,), **ints)).canonical_json()
        assert run_campaign(cfg).canonical_json() == want

    def test_rlc_allows_other_lengths(self):
        cfg = CampaignConfig(code_kind="rlc", n=64, k=52)
        assert cfg.params.pad_bits == 12


class TestWilson:
    @pytest.mark.parametrize("s,n", [(0, 100), (1, 100), (50, 100), (100, 100), (7, 12345)])
    def test_matches_independent_formula(self, s, n):
        lo, hi = wilson_interval(s, n)
        z = 1.9599639845400545
        want_lo, want_hi = wilson_oracle(s, n, z)
        assert lo == pytest.approx(want_lo, abs=1e-12)
        assert hi == pytest.approx(want_hi, abs=1e-12)

    def test_contains_point_estimate_and_stays_in_unit_interval(self):
        for s, n in [(0, 10), (3, 7), (10, 10), (250, 1000)]:
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestStopping:
    def test_early_stop_hits_exact_error_count(self):
        cfg = CampaignConfig(**FAST)
        res = run_point(cfg, 0)
        assert res.block_errors == 5
        assert res.blocks < cfg.max_blocks
        # replay: the final block is the fifth error, and the prefix of the
        # point's batches, each run once, holds five errors
        last = run_block(cfg, 0, res.blocks - 1)
        assert last.error
        sim = campaign._Simulation(cfg)
        batches = [sim.run_batches(0, [b]) for b in range(-(-res.blocks // TRIAL_BATCH))]
        errs = np.count_nonzero(np.concatenate([rec["bit_errors"] for rec in batches])[: res.blocks])
        assert errs == 5

    def test_block_cap(self):
        cfg = CampaignConfig(
            ebn0_grid_db=(8.0,), min_block_errors=10**6, max_blocks=300,
            master_seed=7,
        )
        res = run_point(cfg, 0)
        assert res.blocks == 300

    def test_rule_of_three_on_zero_errors(self):
        cfg = CampaignConfig(
            ebn0_grid_db=(12.0,), min_block_errors=100, max_blocks=200,
            master_seed=7,
        )
        res = run_point(cfg, 0)
        assert res.block_errors == 0
        assert res.bler == 0.0
        assert res.bler_rule_of_three_upper == pytest.approx(3.0 / 200)

    def test_abandonment_counts_as_error(self):
        cfg = CampaignConfig(
            ebn0_grid_db=(0.0,), max_queries=2, min_block_errors=20,
            max_blocks=256, master_seed=7,
        )
        res = run_point(cfg, 0)
        assert res.abandoned_blocks > 0
        assert res.block_errors >= res.abandoned_blocks
        rec = next(
            run_block(cfg, 0, t)
            for t in range(res.blocks)
            if run_block(cfg, 0, t).abandoned
        )
        assert rec.error
        assert rec.queries == 2
        assert rec.bit_errors == (116 + 1) // 2


class TestDeterminism:
    def test_run_block_is_reproducible(self):
        cfg = CampaignConfig(**FAST)
        a = run_block(cfg, 0, 137)
        b = run_block(cfg, 0, 137)
        assert a == b

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda cfg: run_point(cfg, 1), "point_index"),
            (lambda cfg: run_point(cfg, -1), "point_index"),
            (lambda cfg: run_point(cfg, 0.0), "point_index"),
            (lambda cfg: run_block(cfg, 1, 0), "point_index"),
            (lambda cfg: run_block(cfg, 0, 1.0), "trial_index"),
            (lambda cfg: run_block(cfg, 0, -1), "trial_index"),
            (lambda cfg: run_block(cfg, 0, cfg.max_blocks), "trial_index"),
        ],
        ids=["point-past-grid", "point-negative", "point-float", "block-point-past-grid", "trial-float",
             "trial-negative", "trial-past-max-blocks"],
    )
    def test_rejects_bad_indices(self, call, name):
        with pytest.raises(ValueError, match=name):
            call(CampaignConfig(**FAST))

    def test_run_block_takes_numpy_indices_as_ints(self):
        cfg = CampaignConfig(**FAST)
        rec = run_block(cfg, np.int64(0), np.int64(137))
        assert rec == run_block(cfg, 0, 137)
        assert type(rec.point_index) is int and type(rec.trial_index) is int

    def test_worker_count_invariance(self):
        cfg = CampaignConfig(**FAST)
        solo = run_campaign(cfg, workers=1)
        duo = run_campaign(cfg, workers=2)
        assert solo.canonical_json() == duo.canonical_json()

    def test_points_share_no_noise(self):
        # same trial index at different grid points must see different noise
        cfg = CampaignConfig(
            ebn0_grid_db=(8.0, 8.0), min_block_errors=5, max_blocks=4000,
            master_seed=7,
        )
        r0 = run_point(cfg, 0)
        r1 = run_point(cfg, 1)
        assert asdict(r0) != asdict(r1)


def _fail_at_batch(monkeypatch, batch, fail):
    # Campaign workers are forked, so they run the patched method: the chunk
    # entry point, which every worker calls, the calling process too.
    run_batches = campaign._Simulation.run_batches

    def patched(self, point, batches, later=()):
        if batch in batches:
            fail()
        return run_batches(self, point, batches, later)

    monkeypatch.setattr(campaign._Simulation, "run_batches", patched)


def _running(pid):
    """Whether process pid exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _recorded(sim):
    """sim, keeping each (point, chunk, records) of its run_batches calls in sim.calls."""
    run_batches, sim.calls = sim.run_batches, []

    def recording(point, batches, later=()):
        sim.calls.append((point, batches, run_batches(point, batches, later)))
        return sim.calls[-1][2]

    sim.run_batches = recording
    return sim


class _Conn:
    """A worker's pipe end for a _recorded sim: each message, pickled and
    read back as the pipe carries it, must be the point and the records of
    the run_batches call just made, byte for byte. sent keeps each
    message's (point, first batch, batches)."""

    def __init__(self, sim):
        self.sim, self.sent = sim, []

    def send(self, msg):
        p, rec = pickle.loads(ForkingPickler.dumps(msg))
        point, chunk, want = self.sim.calls[-1]
        assert len(self.sim.calls) == len(self.sent) + 1
        assert p == point and rec.dtype == want.dtype and rec.tobytes() == want.tobytes()
        self.sent.append((p, chunk.start, len(rec) // TRIAL_BATCH))

    def close(self):
        pass


class UnrebuildableError(Exception):
    # Pickles as (class, args), but args holds one message, not (a, b).
    def __init__(self, a, b):
        super().__init__(f"bad {a} {b}")


class TestExecutor:
    def test_no_worker_outlives_a_campaign(self):
        run_campaign(CampaignConfig(**FAST), workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, 2.0, "2", campaign.MAX_WORKERS + 1, 100000])
    def test_rejects_bad_worker_counts(self, monkeypatch, workers):
        # Counted, not started: a count above the limit must fork nothing.
        started = []
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", lambda proc: started.append(proc.name))
        with pytest.raises(ValueError, match="workers") as info:
            run_campaign(CampaignConfig(**FAST), workers=workers)
        assert started == []
        if isinstance(workers, int):
            assert str(info.value) == f"workers must be >= 1 and <= 64, got {workers}"

    @pytest.mark.parametrize(
        "workers,max_blocks",
        [(1, FAST["max_blocks"]), (2, FAST["max_blocks"]), (3, FAST["max_blocks"]), (3, TRIAL_BATCH), (3, 2 * TRIAL_BATCH)],
        # More workers than batches in the last two: some forked workers run none.
        ids=["1", "2", "3", "3-one-batch", "3-two-batches"],
    )
    def test_calling_process_is_worker_0(self, monkeypatch, workers, max_blocks):
        cfg = CampaignConfig(**dict(FAST, max_blocks=max_blocks))
        want = run_campaign(cfg).canonical_json()
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting(proc):
            started.append(proc.name)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
        assert run_campaign(cfg, workers=workers).canonical_json() == want
        assert started == [f"campaign worker {rank}" for rank in range(1, workers)]
        assert multiprocessing.active_children() == []

    def test_a_fork_that_fails_part_way_reaps_the_workers_already_started(self, monkeypatch):
        started = []
        start = multiprocessing.process.BaseProcess.start

        def second_fork_fails(proc):
            if proc.name == "campaign worker 2":
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            start(proc)
            started.append(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", second_fork_fails)
        with pytest.raises(OSError) as info:
            run_campaign(CampaignConfig(**FAST), workers=3)
        assert info.value.errno == errno.EAGAIN
        assert [proc.name for proc in started] == ["campaign worker 1"]
        assert started[0].exitcode is not None
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_far_ahead_of_the_calling_process(self, monkeypatch, workers):
        # Point 0 stops in batch 0 of 64. While the calling process sleeps in
        # its own chunks, each forked worker runs on past that stop until
        # its pipe is full, and the calling process must drop those chunks
        # when it reads point 1's from the same pipe.
        cfg = CampaignConfig(
            code_kind="rlc", ebn0_grid_db=(6.0, 8.0), min_block_errors=5, max_blocks=64 * TRIAL_BATCH, master_seed=7
        )
        want = run_campaign(cfg).canonical_json()
        run_batches = campaign._Simulation.run_batches
        calling_process = os.getpid()

        def slow_calling_process(self, point, batches, later=()):
            if os.getpid() == calling_process:
                time.sleep(0.1 * len(batches))
            return run_batches(self, point, batches, later)

        monkeypatch.setattr(campaign._Simulation, "run_batches", slow_calling_process)
        assert run_campaign(cfg, workers=workers).canonical_json() == want
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_close_closes_every_pipe_and_reaps_every_worker(self, monkeypatch, workers):
        # A pipe left open would be closed silently by Connection.__del__
        # once the executor is freed, so look at them as close() returns.
        seen = []
        close = campaign._Executor.close

        def checked(self):
            close(self)
            seen.append([(conn.closed, proc.exitcode) for conn, proc in self.procs])

        monkeypatch.setattr(campaign._Executor, "close", checked)
        run_campaign(CampaignConfig(**FAST), workers=workers)
        assert len(seen) == 1 and len(seen[0]) == workers - 1
        # An exit code is set once the worker has been waited for.
        assert all(closed and exitcode is not None for closed, exitcode in seen[0])

    def test_worker_reads_the_published_stop_before_each_batch(self):
        # Worker 2 of 3 owns chunks [2] and [7] of 8 batches ([7, 8] cut at
        # the last batch). Point 1's stop, 7, drops the second.
        cfg = CampaignConfig(**dict(FAST, ebn0_grid_db=(8.0, 8.0), max_blocks=8 * TRIAL_BATCH))
        sim = _recorded(campaign._Simulation(cfg))
        conn = _Conn(sim)
        campaign._worker(sim, 2, 3, [8, 7], conn, ())
        assert conn.sent == [(0, 2, 1), (0, 7, 1), (1, 2, 1)]

        # Worker 1 of 2 owns chunks [1], [4, 5] and [10, ..., 13] of 16
        # batches. Point 0's stop, 10, lands on a chunk boundary; point 1's,
        # 12, is published as its second chunk is sent, and cuts the third.
        class Publishing(_Conn):
            def send(self, msg):
                super().send(msg)
                if self.sent[-1][:2] == (1, 4):
                    stop[1] = 12

        cfg = CampaignConfig(**dict(FAST, ebn0_grid_db=(8.0, 8.0), max_blocks=16 * TRIAL_BATCH))
        sim = _recorded(campaign._Simulation(cfg))
        conn, stop = Publishing(sim), [10, 16]
        campaign._worker(sim, 1, 2, stop, conn, ())
        assert conn.sent == [(0, 1, 1), (0, 4, 2), (1, 1, 1), (1, 4, 2), (1, 10, 2)]

    def test_chunks_double_up_to_the_cap(self):
        def chunks(workers, stop):
            return [(rank, list(c)) for rank, c, _ in campaign._chunks(workers, [stop], 0)]

        assert chunks(1, 12) == [(0, [0]), (0, [1, 2]), (0, [3, 4, 5, 6]), (0, [7, 8, 9, 10]), (0, [11])]
        # Every worker runs one batch before any runs two.
        assert chunks(3, 30) == [
            (0, [0]), (1, [1]), (2, [2]),
            (0, [3, 4]), (1, [5, 6]), (2, [7, 8]),
            (0, [9, 10, 11, 12]), (1, [13, 14, 15, 16]), (2, [17, 18, 19, 20]),
            (0, [21, 22, 23, 24]), (1, [25, 26, 27, 28]), (2, [29]),
        ]
        assert chunks(3, 2) == [(0, [0]), (1, [1])]
        assert chunks(2, 5) == [(0, [0]), (1, [1]), (0, [2, 3]), (1, [4])]

    def test_later_is_the_same_workers_next_chunk(self):
        # later, computed in closed form, is chunk i + W of the walk with no
        # stop published, clipped to the stop read with chunk i: in full
        # when nothing is published, and when a stop is published after
        # chunk 0 or chunk W of the walk.
        def clip(chunk, end):
            return range(chunk.start, min(chunk.stop, end))

        for workers in range(1, 6):
            for n in range(1, 301):
                full = [chunk for _, chunk, _ in campaign._chunks(workers, [n], 0)]
                for i, (rank, _, later) in enumerate(campaign._chunks(workers, [n], 0)):
                    assert rank == i % workers
                    assert later == (full[i + workers] if i + workers < len(full) else range(0))
                for published in {1, n // 3, n // 2, n - 1} - {0, n}:
                    for after in (0, workers):
                        stop = [n]
                        for i, (rank, chunk, later) in enumerate(campaign._chunks(workers, stop, 0)):
                            end = stop[0]
                            assert chunk == clip(full[i], end)
                            assert later == (clip(full[i + workers], end) if i + workers < len(full) else range(0))
                            if i == after:
                                stop[0] = published
                        assert chunk.stop >= stop[0]  # the walk ends at the stop, not before

    def test_stop_in_batch_0_computes_one_batch(self, monkeypatch):
        # The first chunk is one batch, so an early stop costs no more.
        computed = []
        run_batches = campaign._Simulation.run_batches

        def counting(self, point, batches, later=()):
            computed.extend(batches)
            return run_batches(self, point, batches, later)

        monkeypatch.setattr(campaign._Simulation, "run_batches", counting)
        res = run_campaign(CampaignConfig(**dict(FAST, ebn0_grid_db=(4.0,))))
        assert res.points[0].blocks <= TRIAL_BATCH
        assert computed == [0]

    def test_stop_inside_a_chunk_does_not_depend_on_workers(self):
        # Point 0 stops in a batch with later batches of its chunk computed
        # and dropped, except at seed 4 and W = 2, where it is the last;
        # point 1 then runs to its cap. The chunk that holds the stop, by W:
        lands = {
            4: (9, {1: [7, 8, 9, 10], 2: [6, 7, 8, 9], 3: [9, 10, 11, 12]}),
            6: (7, {1: [7, 8, 9, 10], 2: [6, 7, 8, 9], 3: [7, 8]}),
        }
        for seed, (stop_batch, chunks) in lands.items():
            cfg = CampaignConfig(code_kind="rlc", ebn0_grid_db=(7.0, 8.0), min_block_errors=25,
                                 max_blocks=24 * TRIAL_BATCH, master_seed=seed)
            want = run_campaign(cfg)
            assert (want.points[0].blocks - 1) // TRIAL_BATCH == stop_batch
            assert want.points[1].blocks == cfg.max_blocks
            for workers, chunk in chunks.items():
                assert next(list(c) for _, c, _ in campaign._chunks(workers, [24], 0) if stop_batch in c) == chunk
            for workers in (2, 3):
                assert run_campaign(cfg, workers=workers).canonical_json() == want.canonical_json()

    def test_worker_exception_reraised_with_traceback(self, monkeypatch):
        def fail():
            raise ValueError("no batch 4")

        # Batch 4 of 2 workers is worker 1's, in its chunk [4, 5].
        _fail_at_batch(monkeypatch, 4, fail)
        with pytest.raises(ValueError, match="no batch 4") as info:
            run_campaign(CampaignConfig(**FAST), workers=2)
        cause = str(info.value.__cause__)
        assert "campaign worker 1" in cause
        assert "Traceback" in cause and "in patched" in cause
        assert multiprocessing.active_children() == []

    def test_worker_exception_that_cannot_be_rebuilt_keeps_its_message(self, monkeypatch):
        def fail():
            raise UnrebuildableError(1, 2)

        _fail_at_batch(monkeypatch, 4, fail)
        with pytest.raises(RuntimeError, match="bad 1 2") as info:
            run_campaign(CampaignConfig(**FAST), workers=2)
        cause = str(info.value.__cause__)
        assert "campaign worker 1" in cause
        assert "Traceback" in cause and "in fail" in cause
        assert multiprocessing.active_children() == []

    def test_calling_process_exception_raised_as_is(self, monkeypatch):
        def fail():
            raise ValueError("no batch 2")

        # Batch 2 of 2 workers is the calling process's own, in its chunk [2, 3].
        _fail_at_batch(monkeypatch, 2, fail)
        with pytest.raises(ValueError, match="no batch 2") as info:
            run_campaign(CampaignConfig(**FAST), workers=2)
        assert info.value.__cause__ is None
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_campaign(self):
        # Run in a child interpreter: a campaign that hangs on a dead
        # worker then fails at the timeout instead of hanging the suite.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import multiprocessing, os, signal\n"
            "from aesfec import campaign\n"
            "run_batches = campaign._Simulation.run_batches\n"
            "def patched(self, p, batches, later=()):\n"
            "    if 4 in batches:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return run_batches(self, p, batches, later)\n"
            "campaign._Simulation.run_batches = patched\n"
            "cfg = campaign.CampaignConfig(code_kind='rlc', decoder_kind='orbgrand', ebn0_grid_db=(7.0,))\n"
            "try:\n"
            "    campaign.run_campaign(cfg, workers=2)\n"
            "except RuntimeError as e:\n"
            "    print(e)\n"
            "print(multiprocessing.active_children())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert "campaign worker 1" in lines[0] and "exit code -9" in lines[0], lines
        assert lines[1] == "[]"

    def test_no_worker_outlives_a_killed_calling_process(self):
        # A child interpreter prints its two workers' pids and SIGKILLs
        # itself in its own first chunk of a long point. A worker that kept
        # a read end of its own or an earlier rank's pipe would block in
        # send forever once its pipe filled, orphaned.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import multiprocessing, os, signal\n"
            "from aesfec import campaign\n"
            "run_batches = campaign._Simulation.run_batches\n"
            "calling_process = os.getpid()\n"
            "def patched(self, p, batches, later=()):\n"
            "    if os.getpid() == calling_process:\n"
            "        print(*(proc.pid for proc in multiprocessing.active_children()), flush=True)\n"
            "        os.kill(calling_process, signal.SIGKILL)\n"
            "    return run_batches(self, p, batches, later)\n"
            "campaign._Simulation.run_batches = patched\n"
            "campaign.run_campaign(campaign.CampaignConfig(code_kind='rlc', ebn0_grid_db=(9.0,)), workers=3)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        # Read the pids line by line: an orphaned worker holds the child's
        # stdout open, so waiting for its end would wait for the worker.
        child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, env=env)
        pids = []
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
            assert child.wait(timeout=60) == -signal.SIGKILL
            deadline = time.monotonic() + 10
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)
            child.kill()
            child.wait()
            child.stdout.close()


@pytest.fixture(scope="module")
def result():
    return run_campaign(CampaignConfig(**FAST))


class TestSerialization:
    def test_json_round_trip(self, result):
        back = CampaignResult.from_json(result.to_json())
        assert back.config == result.config
        assert back.canonical_json() == result.canonical_json()
        assert back.meta == result.meta

    def test_canonical_json_ignores_wall_time(self, result):
        back = CampaignResult.from_json(result.to_json())
        back.meta["wall_time_s"] = 123456.0
        assert back.canonical_json() == result.canonical_json()

    def test_meta_times_points_without_touching_canonical_json(self):
        cfg = CampaignConfig(**dict(FAST, ebn0_grid_db=(7.5, 8.0)))
        res = run_campaign(cfg, workers=2)
        assert set(res.meta) == {"version", "workers", "wall_time_s", "points"}
        assert res.meta["workers"] == 2
        assert [set(m) for m in res.meta["points"]] == [{"wall_time_s", "blocks_per_s"}] * 2
        for p, m in zip(res.points, res.meta["points"]):
            assert m["blocks_per_s"] == p.blocks / m["wall_time_s"]
        doc = json.loads(res.to_json())
        assert json.loads(res.canonical_json()) == {k: doc[k] for k in ("config", "points")}
        assert doc["meta"] == res.meta
        assert CampaignResult.from_json(res.to_json()) == res
        # A file written before meta held the worker count and point times.
        doc["meta"] = {"wall_time_s": 1.5, "version": "0.1.0"}
        old = CampaignResult.from_json(json.dumps(doc))
        assert old.canonical_json() == res.canonical_json()
        assert old.meta == {"wall_time_s": 1.5, "version": "0.1.0"}

    def test_a_result_built_without_meta_writes_an_empty_one(self, result):
        bare = CampaignResult(result.config, result.points)
        assert json.loads(bare.to_json())["meta"] == {}
        assert CampaignResult.from_json(bare.to_json()) == bare

    def test_csv_shape(self, result):
        lines = plot_data_csv([("r.json", result)]).strip().splitlines()
        assert lines[0].startswith("# source=r.json ")
        assert lines[0].endswith(f" max_queries={result.config.max_queries}")
        header = lines[1].split(",")
        assert header == ["code", "decoder", "n", "k", "master_seed", *CampaignResult.CSV_FIELDS]
        assert len(lines) == 2 + len(result.points)
        row = dict(zip(header, lines[2].split(",")))
        assert float(row["ebn0_db"]) == 8.0
        assert int(row["blocks"]) == result.points[0].blocks

    def test_point_result_round_trip(self, result):
        p = result.points[0]
        back = PointResult(**asdict(p))
        assert back == p

    def test_ber_at_most_bler(self, result):
        p = result.points[0]
        assert p.ber <= p.bler
        assert p.bler_ci_low <= p.bler <= p.bler_ci_high


class TestPairing:
    def test_same_seed_same_messages_across_codes(self):
        # the aes and rlc campaigns at one master seed face identical
        # message and noise streams; at high SNR with generous budgets both
        # decode nearly everything, so block counts to the fifth error can
        # differ, but the first batch of drawn trials must coincide
        rng_a = np.random.default_rng((7, 0, 0, 0))
        rng_b = np.random.default_rng((7, 0, 0, 0))
        a = rng_a.integers(0, 2, size=(TRIAL_BATCH, 116), dtype=np.uint8)
        b = rng_b.integers(0, 2, size=(TRIAL_BATCH, 116), dtype=np.uint8)
        assert np.array_equal(a, b)

    def test_decoders_paired_on_same_channel(self):
        # grand and orbgrand at one master seed face the same trials; on a
        # near-noiseless stream both must sail through on single queries
        base = dict(ebn0_grid_db=(12.0,), min_block_errors=1, max_blocks=64,
                    master_seed=7)
        g = run_point(CampaignConfig(decoder_kind="grand", **base), 0)
        o = run_point(CampaignConfig(decoder_kind="orbgrand", **base), 0)
        assert g.blocks == o.blocks == 64
        assert g.block_errors == o.block_errors == 0
        assert g.mean_queries == o.mean_queries == 1.0


@pytest.mark.parametrize(
    "seed, point, batch, message_bits, normals",
    [
        (1, 0, 0, "11001101010111011010111010111111",
         ("0x1.549425b2c4ba8p-1", "-0x1.f013630e03f32p-1", "-0x1.362af28da1c25p+0", "0x1.439e3f4a60ef4p-1")),
        (1, 4, 40, "00000000100111000000011010001000",
         ("0x1.1aa1eeb403a67p-7", "0x1.0898ad49d9020p+0", "-0x1.8176656b452bfp-2", "0x1.9fa9d72a0ef68p+0")),
        (1017, 0, 3, "10101111110100001110011101011010",
         ("-0x1.108c7b142b007p-2", "-0x1.3e7fec153cd5bp+0", "0x1.deef68e379533p-7", "0x1.97799fd70ad25p-1")),
    ],
)
def test_sample_path_streams_are_pinned(seed, point, batch, message_bits, normals):
    # Every recorded campaign hash rests on these numpy streams, which are
    # not promised to hold across numpy releases; a change fails here by name.
    msgs = np.random.default_rng((seed, point, batch, 0)).integers(0, 2, (TRIAL_BATCH, 116), np.uint8)
    assert "".join(map(str, msgs.ravel()[:32])) == message_bits
    z = np.random.default_rng((seed, point, batch, 1)).standard_normal((TRIAL_BATCH, 128))
    assert tuple(float(v).hex() for v in z.ravel()[:4]) == normals


@pytest.mark.parametrize("size", [TRIAL_BATCH, 44])
@pytest.mark.parametrize("seed, point, batch", [(1, 0, 0), (1, 4, 40), (1017, 0, 3)])
def test_draw_takes_message_bits_from_the_raw_stream(seed, point, batch, size):
    # _draw keeps the top bit of each byte of the raw PCG64 stream, which is
    # what Generator.integers(0, 2, ..., np.uint8) makes of it, for a full
    # batch and for a last batch of 44 trials, at the pinned (seed, p, b).
    cfg = CampaignConfig(ebn0_grid_db=(6.0, 6.5, 7.0, 7.5, 8.0), max_blocks=batch * TRIAL_BATCH + size, master_seed=seed)
    sim = campaign._Simulation(cfg)
    sim._draw(point, [(0, batch)], 0)
    bits, normals = (a[:size] for a in sim.slots[0])
    want = np.random.default_rng((seed, point, batch, 0)).integers(0, 2, (size, 116), np.uint8)
    assert bits.tobytes() == want.tobytes()
    want = np.random.default_rng((seed, point, batch, 1)).standard_normal((size, 128))
    assert normals.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "workload, seed",
    [("tail", 1), ("tail", 1017), ("deep", 1), ("deep", 1017)],
    ids=["tail", "tail-1017", "deep", "deep-1017"],
)
def test_benchmark_campaigns_match_recorded_hashes(perfbench_run, workload, seed):
    # The campaigns are a pure function of their configs, so a change that
    # alters what is simulated (a query count, an accepted block, a budget
    # cut) changes a hash recorded for the benchmark. 1017 is the
    # benchmark's held-out seed. tail's steps are small and deep's reach
    # _MAX_WORDS candidates, so the two cover the search core's smallest
    # and largest steps.
    with open(perfbench_run.RECORD) as f:
        expected = json.load(f)["expected_sha256"]
    for label, cfg in perfbench_run.workloads.campaigns(workload, seed):
        got = hashlib.sha256(run_campaign(CampaignConfig(**cfg)).canonical_json().encode()).hexdigest()
        assert got == expected[perfbench_run.config_key(cfg)], f"{workload} {label}"


def reference_batch(config, point, batch):
    """run_batches(point, [batch])'s record fields, from scratch: a fresh
    cipher or code and oracle, the channel drawn into fresh arrays, and each
    code's own reference block (the packed codeword for the rlc)."""
    params = config.params
    size = min(TRIAL_BATCH, config.max_blocks - batch * TRIAL_BATCH)
    mrng = np.random.default_rng((config.master_seed, point, batch, 0))
    msgs = mrng.integers(0, 2, size=(size, params.k), dtype=np.uint8)
    nrng = np.random.default_rng((config.master_seed, point, batch, 1))
    if config.code_kind == "aes":
        cipher = Aes128(config.aes_key_hex)
        oracle = AesPadOracle(params, cipher)
        ref = np.packbits(np.hstack([msgs, np.zeros((size, params.pad_bits), np.uint8)]), axis=1)
        cw_bits = np.unpackbits(cipher.encrypt_batch(ref), axis=1)
    else:
        code = rlc_generate(params, config.rlc_seed)
        oracle = RlcOracle(code)
        cw_bits = code.encode_bits(msgs)
        ref = np.packbits(cw_bits, axis=1)
    sigma = sigma_from_ebn0(config.ebn0_grid_db[point], params.rate)
    y = awgn_samples(modulate(cw_bits), sigma, nrng)
    rel = np.abs(llr_from_samples(y, sigma)) if config.decoder_kind == "orbgrand" else None
    found, blocks, queries = guess(np.packbits(hard_bits(y), axis=1), oracle, config.max_queries, rel)
    bit_errors = np.bitwise_count((blocks ^ ref) & message_bit_mask(params)).sum(axis=1, dtype=np.int64)
    bit_errors[~found] = (params.k + 1) // 2
    return {"bit_errors": bit_errors, "queries": queries, "abandoned": ~found}


@pytest.mark.parametrize("decoder", ["grand", "orbgrand"])
@pytest.mark.parametrize("code", ["aes", "rlc"])
def test_run_batch_channel_buffers_match_fresh_arrays(code, decoder):
    # Batch 1 is partial (44 trials); batch 0 runs again after it, so stale
    # rows of the process's reused buffers would show. Two grid points and
    # both codes take turns in one process, the rlc also at n = 60, whose
    # arrays are narrower. 5 dB with a 2000-query budget gives searches,
    # hits and abandoned blocks.
    base = dict(decoder_kind=decoder, ebn0_grid_db=(5.0, 5.5), max_queries=2000,
                max_blocks=TRIAL_BATCH + 44, master_seed=11)
    cfg = CampaignConfig(code_kind=code, **base)
    others = [CampaignConfig(code_kind="rlc" if code == "aes" else "aes", **base),
              CampaignConfig(code_kind="rlc", n=60, k=50, **base)]
    sims = [campaign._Simulation(c) for c in (cfg, *others)]
    for b in (0, 1, 0):
        for point in (0, 1):
            for sim in sims:
                got, want = sim.run_batches(point, [b]), reference_batch(sim.config, point, b)
                assert len(got) == len(want["queries"]) and got.dtype.names == tuple(want)
                for name, w in want.items():
                    assert np.array_equal(got[name], w)
    # A campaign's records replay one trial at a time.
    res = run_point(cfg, 0)
    want = reference_batch(cfg, 0, 1)
    for trial in (TRIAL_BATCH, TRIAL_BATCH + 43):
        rec = run_block(cfg, 0, trial)
        row = trial - TRIAL_BATCH
        assert (rec.bit_errors, rec.queries, rec.abandoned) == tuple(a[row].item() for a in want.values())
        assert rec.error == (rec.bit_errors > 0)
    assert res.blocks == cfg.max_blocks


@settings(max_examples=30, deadline=None)
@given(
    code=st.sampled_from(["aes", "rlc"]),
    decoder=st.sampled_from(["grand", "orbgrand"]),
    stride=st.integers(1, 3),
    size=st.integers(1, 4),
    first=st.integers(0, 9),
    point=st.integers(0, 1),
)
@example(code="aes", decoder="orbgrand", stride=1, size=4, first=6, point=1)
@example(code="aes", decoder="orbgrand", stride=3, size=4, first=0, point=1)
def test_run_batches_is_run_batch_per_batch(code, decoder, stride, size, first, point):
    # A chunk's records are its batches' one-batch records concatenated, for
    # the contiguous chunks campaigns run (stride 1) and any other batches.
    # 5 dB with a 2000-query budget gives searches, hits and abandoned
    # blocks. The last of the 10 batches is short (44 trials); a chunk that
    # would run past it starts earlier.
    cfg = CampaignConfig(code_kind=code, decoder_kind=decoder, ebn0_grid_db=(5.0, 6.0), max_queries=2000,
                         max_blocks=9 * TRIAL_BATCH + 44, master_seed=5)
    sim = campaign._Simulation(cfg)
    first = min(first, 9 - (size - 1) * stride)
    chunk = range(first, first + size * stride, stride)
    got = sim.run_batches(point, chunk)
    assert got.dtype == campaign._RECORD
    assert got.tobytes() == b"".join(sim.run_batches(point, [b]).tobytes() for b in chunk)


# Every Eb/N0 the tests run, and two far outside them.
TEST_GRID_DB = (-20.0, 0.0, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 9.0, 12.0, 60.0)
RATES = (116 / 128, 50 / 60)


def _assert_thresholds_match_the_sum(ebn0, rate):
    # run_batches takes bit 1 where z < t0, or z < t1 where the codeword
    # bit is 1: that must be y < 0 for y = sigma z + x, x the int8 1 - 2c,
    # at each threshold, at every float within 64 ulps of it, and at random
    # normals and random values on both sides of it.
    sigma = sigma_from_ebn0(ebn0, rate)
    rng = np.random.default_rng(17)
    for x, t in ((1, campaign._least_z(sigma, -1.0)), (-1, campaign._least_z(sigma, 1.0))):
        near = (np.array([t]).view(np.int64) + np.arange(-64, 65)).view(np.float64)
        z = np.concatenate([near, rng.standard_normal(10**5), rng.uniform(-2 * abs(t), 2 * abs(t), 10**4)])
        y = z * sigma
        y += np.full(len(z), x, np.int8)
        assert np.array_equal(z < t, y < 0), (ebn0, rate, x)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("ebn0", TEST_GRID_DB)
def test_hard_decision_thresholds_are_exact_on_the_test_grids(ebn0, rate):
    _assert_thresholds_match_the_sum(ebn0, rate)


@settings(max_examples=40, deadline=None)
@given(ebn0=st.floats(-10.0, 30.0), rate=st.sampled_from(RATES))
def test_hard_decision_thresholds_are_exact(ebn0, rate):
    _assert_thresholds_match_the_sum(ebn0, rate)


@pytest.mark.parametrize("code", ["aes", "rlc"])
def test_the_calling_thread_draws_later_while_the_helper_is_mid_batch(monkeypatch, code):
    # The helper sleeps after taking each batch and before drawing it, so
    # the calling thread finds it mid-batch. On a chunk that the calling
    # thread then takes (the third step), it draws batches of the next chunk
    # into the other slot meanwhile. On a chunk that it discards (the
    # second, at another point) it must not: the helper is still to write
    # that slot, at the rows of the next chunk's last batch. The steps must
    # give the records of a simulation that has no helper, also with the
    # interpreter switching threads every microsecond.
    cfg = CampaignConfig(code_kind=code, decoder_kind="orbgrand", ebn0_grid_db=(5.0, 6.0), max_queries=2000,
                         max_blocks=9 * TRIAL_BATCH + 44, master_seed=5)
    steps = [(0, range(0, 1), range(3, 7)), (1, range(3, 7), range(6, 10)), (1, range(6, 10), range(0, 1)),
             (1, range(0, 1), ())]
    plain = campaign._Simulation(cfg)
    want = [plain.run_batches(p, chunk).tobytes() for p, chunk, _ in steps]
    draw = campaign._Simulation._draw
    stolen = []

    def slow_helper(self, point, todo, slot, busy=None):
        if not threading.current_thread().name.startswith("campaign draw"):
            before = len(todo)
            draw(self, point, todo, slot, busy)
            if busy is not None:
                stolen.append(before - len(todo))
            return
        while True:
            try:
                one = [todo.pop()]
            except IndexError:  # the calling thread took the last
                return
            time.sleep(0.05)
            draw(self, point, one, slot)

    monkeypatch.setattr(campaign._Simulation, "_draw", slow_helper)

    def run():
        sim = campaign._Simulation(cfg)
        try:
            assert [sim.run_batches(*step).tobytes() for step in steps] == want
        finally:
            sim.stop_helper()

    _within(120, run)
    assert sum(stolen) >= 1
    stolen.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _within(120, run)
    finally:
        sys.setswitchinterval(interval)
    assert sum(stolen) >= 1


def test_campaign_builds_one_cipher(monkeypatch):
    built = []

    class Counting(campaign.Aes128):
        def __init__(self, key):
            built.append(key)
            super().__init__(key)

    monkeypatch.setattr(campaign, "Aes128", Counting)
    res = run_campaign(CampaignConfig(**dict(FAST, ebn0_grid_db=(7.0, 7.5, 8.0), max_blocks=512)))
    assert len(res.points) == 3
    assert len(built) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=400) | st.lists(st.integers(1, 20), min_size=1, max_size=400))
@example([7])
@example([3, 1])
@example(list(range(100, 0, -1)))
@example(list(range(101)))
@example([5] * 100)
@example([2] * 101)
def test_p99_matches_numpy_percentile(values):
    q = np.array(values, dtype=np.int64)
    hist = dict(Counter(values))
    got = campaign._p99(hist)
    assert type(got) is float
    assert got == float(np.percentile(q, 99))
    assert hist == Counter(values)  # the input is not changed


def _reference_point_result(config, chunks):
    """_point_result the way it was first written: every chunk's records
    concatenated, the stop found on the error cumsum, np.mean and
    np.percentile over the counted trials' queries."""
    bit_errors, queries, abandoned = (np.concatenate([c[name] for c in chunks]) for name in campaign._RECORD.names)
    error = bit_errors > 0
    blocks = len(error)
    if np.count_nonzero(error) >= config.min_block_errors:
        blocks = int(np.searchsorted(np.cumsum(error), config.min_block_errors)) + 1
    error, bit_errors, queries, abandoned = (a[:blocks] for a in (error, bit_errors, queries, abandoned))
    block_errors, total_bit_errors = int(error.sum()), int(bit_errors.sum())
    bler_ci_low, bler_ci_high = wilson_interval(block_errors, blocks)
    ber_ci_low, ber_ci_high = wilson_interval(total_bit_errors, blocks * config.k)
    sigma = sigma_from_ebn0(config.ebn0_grid_db[0], config.params.rate)
    return PointResult(
        ebn0_db=config.ebn0_grid_db[0], sigma=sigma, noise_entropy_bits=noise_entropy_bits(sigma),
        blocks=blocks, block_errors=block_errors, bit_errors=total_bit_errors,
        abandoned_blocks=int(abandoned.sum()), bler=block_errors / blocks,
        bler_ci_low=bler_ci_low, bler_ci_high=bler_ci_high, ber=total_bit_errors / (blocks * config.k),
        ber_ci_low=ber_ci_low, ber_ci_high=ber_ci_high,
        bler_rule_of_three_upper=3.0 / blocks if block_errors == 0 else None,
        mean_queries=float(queries.mean()), p99_queries=float(np.percentile(queries, 99)),
    ), -(-blocks // TRIAL_BATCH)


@st.composite
def _point_chunks(draw):
    """(min_block_errors, chunks of records) with the stop on a chunk's first
    or last row, anywhere, or never."""
    sizes = draw(st.just([1]) | st.lists(st.integers(1, 1024), min_size=1, max_size=6))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    top = draw(st.sampled_from([1, 3, 10**6]) | st.integers(1, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rec = np.zeros(sum(sizes), campaign._RECORD)
    error = rng.random(len(rec)) < density
    rec["abandoned"] = error & (rng.random(len(rec)) < 0.1)
    rec["bit_errors"] = np.where(rec["abandoned"], 58, np.where(error, rng.integers(1, 117, len(rec)), 0))
    rec["queries"] = rng.integers(1, top + 1, len(rec))
    ends = np.cumsum(sizes)
    where = draw(st.sampled_from(["first", "last", "any", "never"]))
    if where in ("first", "last"):
        j = draw(st.integers(0, len(sizes) - 1))
        row = ends[j] - sizes[j] if where == "first" else ends[j] - 1
        rec["bit_errors"][row] = max(1, rec["bit_errors"][row])
        min_block_errors = int(np.count_nonzero(rec["bit_errors"][: row + 1]))
    else:
        total = int(np.count_nonzero(rec["bit_errors"]))
        low = 1 if where == "any" else total + 1
        min_block_errors = draw(st.integers(low, max(low, total) + 2))
    return min_block_errors, np.split(rec, ends[:-1])


@settings(max_examples=300, deadline=None)
@given(_point_chunks())
def test_point_result_folds_exactly_as_concatenating(case):
    min_block_errors, chunks = case
    config = CampaignConfig(code_kind="rlc", ebn0_grid_db=(7.5,), min_block_errors=min_block_errors)
    read = []
    got, batches = campaign._point_result(config, 0, (read.append(c) or c for c in chunks))
    want, want_batches = _reference_point_result(config, chunks)
    assert [(f, type(v), v) for f, v in asdict(got).items()] == [(f, type(v), v) for f, v in asdict(want).items()]
    assert batches == want_batches
    # No chunk is read past the one that holds the stopping trial.
    assert len(read) == (np.searchsorted(np.cumsum([len(c) for c in chunks]), want.blocks) + 1)


def test_mean_queries_stays_exact_past_2_to_the_53():
    queries = [2**53 + 1, 2**53 + 3, 2**52 + 1, 7] * 256
    rec = np.zeros(len(queries), campaign._RECORD)
    rec["queries"] = queries
    config = CampaignConfig(code_kind="rlc", ebn0_grid_db=(7.5,))
    got, _ = campaign._point_result(config, 0, [rec[:5], rec[5:]])
    assert sum(queries) > 2**53
    assert got.mean_queries == float(Fraction(sum(queries), len(queries)))
    assert got.mean_queries != float(rec["queries"].mean())  # a float sum rounds


def test_campaign_does_not_import_numpy_ma():
    # numpy's percentile imports numpy.ma on first use, about 30 ms per
    # process. A campaign that forks nothing needs neither the workers'
    # pipes nor the shared stop array, whose imports cost about 8 ms.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from aesfec.campaign import CampaignConfig, run_campaign\n"
        "for d in ('grand', 'orbgrand'):\n"
        "    run_campaign(CampaignConfig(decoder_kind=d, ebn0_grid_db=(6.0,), min_block_errors=2, max_blocks=600))\n"
        "print('numpy.ma' in sys.modules)\n"
        "print(sorted({'multiprocessing.connection', 'multiprocessing.sharedctypes'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_point_runs_in_constant_memory(workers):
    # A point once held 17 bytes a trial until it ended: 6*10^5 blocks
    # raised the peak RSS about 24 MiB above a 2*10^4-block point's. The
    # child reads its peak as VmHWM: ru_maxrss also counts the peak of the
    # process that started it, which Linux carries across exec.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from aesfec.campaign import CampaignConfig, run_campaign\n"
        "for blocks in (2 * 10**4, 6 * 10**5):\n"
        "    cfg = CampaignConfig(code_kind='rlc', ebn0_grid_db=(12.0,), min_block_errors=blocks + 1, max_blocks=blocks)\n"
        f"    run_campaign(cfg, workers={workers})\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    short, long = map(int, proc.stdout.split())  # kB
    assert long - short < 5 * 1024


def _settle(sim):
    """Wait for sim's pending draw, if any, and drop it."""
    if sim.pending is not None:
        sim.pending[4].result()
        sim.pending = None


def _within(seconds, fn):
    """Run fn on a thread of its own and raise what it raised; a deadlock
    fails the test after `seconds` instead of hanging the run."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    if raised:
        raise raised[0]


def _start_helper(sim):
    """Start sim's helper as a campaign does, by handing run_batches a next
    chunk to draw, and wait for that draw."""
    sim.run_batches(0, range(0, 1), range(1, 2))
    assert any(t.is_alive() for t in threading.enumerate() if t.name.startswith("campaign draw"))
    _settle(sim)


def _submit(sim, point, chunk, slot):
    """Start the draw of point's chunk into draw slot `slot` on sim's helper, as run_batches does."""
    todo = list(enumerate(chunk))
    sim.pending = (point, todo, slot, chunk, sim.helper.submit(sim._draw, point, todo, slot))


@pytest.mark.parametrize("decoder", ["grand", "orbgrand"])
@pytest.mark.parametrize("code", ["aes", "rlc"])
def test_run_batches_takes_or_discards_the_pending_draw(code, decoder):
    # Ten batches, the last of 44 trials, at 5 dB with a 2000-query budget
    # (searches, hits and abandoned blocks). Each case runs a chunk with a
    # pending draw on the helper: none, the same chunk, a longer one that the
    # chunk is a prefix of, or one that it must discard (other batches, the
    # other point, a start elsewhere, too short). Its records must be those
    # of a simulation that has no helper. The helper draws all of a pending
    # draw when the calling thread pauses first, and shares it otherwise.
    cfg = CampaignConfig(code_kind=code, decoder_kind=decoder, ebn0_grid_db=(5.0, 6.0), max_queries=2000,
                         max_blocks=9 * TRIAL_BATCH + 44, master_seed=5)
    plain = campaign._Simulation(cfg)
    cases = [
        (None, (1, range(6, 10))),
        ((1, range(6, 10)), (1, range(6, 10))),
        ((1, range(2, 6)), (1, range(2, 4))),
        ((0, range(7, 10)), (0, range(7, 9))),
        ((1, range(2, 6)), (1, range(6, 10))),
        ((0, range(6, 10)), (1, range(6, 10))),
        ((1, range(7, 10)), (1, range(6, 10))),
        ((1, range(6, 8)), (1, range(6, 10))),
    ]
    want = {key: plain.run_batches(*key).tobytes() for _, key in cases}

    def run():
        sim = campaign._Simulation(cfg)
        _start_helper(sim)
        try:
            for pause in (0.0, 0.05):
                for slot in (0, 1):
                    for pending, (point, batches) in cases:
                        _settle(sim)
                        if pending is not None:
                            _submit(sim, *pending, slot)
                            time.sleep(pause)
                        assert sim.run_batches(point, batches).tobytes() == want[point, batches], (pending, pause)
        finally:
            sim.stop_helper()

    _within(120, run)


def _long_config():
    # A fixed count of 16 batches, so that every process runs several chunks.
    return CampaignConfig(**dict(FAST, min_block_errors=16 * TRIAL_BATCH, max_blocks=16 * TRIAL_BATCH))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_no_draw_thread_outlives_a_campaign(monkeypatch, workers):
    before = threading.active_count()
    cfg = _long_config()
    want = run_campaign(cfg).canonical_json()
    assert run_campaign(cfg, workers=workers).canonical_json() == want
    assert threading.active_count() == before

    # guess raises in the calling process or a worker, whichever calls it third.
    calls = []

    def failing_guess(*args):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("no guess")
        return guess(*args)

    monkeypatch.setattr(campaign, "guess", failing_guess)
    with pytest.raises(ValueError, match="no guess"):
        run_campaign(cfg, workers=workers)
    assert threading.active_count() == before
    monkeypatch.undo()

    # _draw raises on every helper, in every process; the calling thread
    # then draws the chunk itself and raises the helper's exception.
    draw = campaign._Simulation._draw

    def failing_draw(self, *args):
        if threading.current_thread().name.startswith("campaign draw"):
            raise ValueError("no draw on the helper")
        return draw(self, *args)

    monkeypatch.setattr(campaign._Simulation, "_draw", failing_draw)
    with pytest.raises(ValueError, match="no draw on the helper"):
        run_campaign(cfg, workers=workers)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_no_draw_thread_runs_when_workers_fork(monkeypatch):
    # Fork copies no thread: a helper alive at a fork would be missing in
    # the child, holding whatever locks it held. Two campaigns in a row, so
    # the second forks after the first's helper has run.
    alive = []
    start = multiprocessing.process.BaseProcess.start

    def checked(proc):
        alive.append([t.name for t in threading.enumerate() if t.name.startswith("campaign draw")])
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", checked)
    for workers in (3, 2):
        run_campaign(_long_config(), workers=workers)
    assert alive == [[], [], []]


def test_draws_stay_whole_when_threads_switch_every_microsecond():
    # The helper and the calling thread pop one list of batches to draw. With
    # the interpreter switching threads every microsecond, both draw one
    # pending chunk (the 44-trial batch last) at once, 200 times into a
    # zeroed slot: a batch that neither drew, or drew into the wrong rows,
    # would show there.
    cfg = CampaignConfig(ebn0_grid_db=(5.0, 6.0), max_blocks=9 * TRIAL_BATCH + 44, master_seed=5)
    chunk, rows = range(6, 10), 3 * TRIAL_BATCH + 44
    plain = campaign._Simulation(cfg)
    plain._draw(1, list(enumerate(chunk)), 0)
    want = [a[:rows].tobytes() for a in plain.slots[0]]
    got = []

    def run():
        sim = campaign._Simulation(cfg)
        _start_helper(sim)
        try:
            for _ in range(200):
                for a in sim.slots[1]:
                    a.fill(0)
                _submit(sim, 1, chunk, 1)
                sim._draw(1, sim.pending[1], 1)
                _settle(sim)
                got.append([a[:rows].tobytes() for a in sim.slots[1]])
        finally:
            sim.stop_helper()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _within(120, run)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 200 and all(g == want for g in got)


def test_max_blocks_does_not_change_the_cost_of_an_early_stop():
    # A 3 dB point stops within its first batch, so max_blocks only sets the
    # batch count it would have run: no process may walk a schedule to it.
    # The child's memory cap and timeout keep a regression from taking the
    # suite with it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import dataclasses, json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
        "from aesfec.campaign import CampaignConfig, run_campaign\n"
        "for workers in (1, 2):\n"
        "    for max_blocks in (10**6, 2**62):\n"
        "        cfg = CampaignConfig(code_kind='rlc', ebn0_grid_db=(3.0,), min_block_errors=10, max_blocks=max_blocks)\n"
        "        print(json.dumps([dataclasses.asdict(p) for p in run_campaign(cfg, workers=workers).points]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    points = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(points) == 4 and all(p == points[0] for p in points)
    assert points[0][0]["block_errors"] == 10 and points[0][0]["blocks"] < TRIAL_BATCH


def test_no_draw_thread_for_run_block_or_a_one_batch_point(monkeypatch):
    # The helper starts at the first next chunk a process is handed, which
    # run_block and a point of one batch never hand it.
    started = []
    pool = campaign.ThreadPoolExecutor

    def counting(*args):
        started.append(args)
        return pool(*args)

    monkeypatch.setattr(campaign, "ThreadPoolExecutor", counting)
    run_block(CampaignConfig(**FAST), 0, 137)
    run_campaign(CampaignConfig(**dict(FAST, max_blocks=TRIAL_BATCH)))
    assert started == []
    run_campaign(CampaignConfig(**dict(FAST, max_blocks=TRIAL_BATCH + 1)))
    assert started == [(1, "campaign draw")]


def test_a_dropped_simulation_leaves_no_thread():
    # A simulation dropped without stop_helper once kept its helper blocked
    # for the life of the process, and through it the simulation and its
    # draw slots. The helper's thread is not a daemon, so Python joins it
    # at exit: a child that leaves one live must still exit, and promptly.
    before = threading.active_count()
    sim = campaign._Simulation(CampaignConfig(**FAST))
    sim.run_batches(0, range(0, 1), range(1, 2))
    assert threading.active_count() == before + 1
    dropped = weakref.ref(sim)
    del sim
    gc.collect()
    deadline = time.monotonic() + 2
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before
    assert dropped() is None

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import threading\n"
        "from aesfec import campaign\n"
        "sim = campaign._Simulation(campaign.CampaignConfig(ebn0_grid_db=(8.0,)))\n"
        "sim.run_batches(0, range(0, 1), range(1, 2))\n"
        "print(sum(t.name.startswith('campaign draw') for t in threading.enumerate()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 20
    assert proc.stdout == "1\n"
