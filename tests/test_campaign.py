"""Monte Carlo campaign engine: addressing, stopping, serialization."""

import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aesfec import campaign
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
from aesfec.channel import awgn_samples, hard_bits, llr_from_samples, modulate
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
        again = CampaignConfig.from_dict(cfg.to_dict())
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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)

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


class TestStopping:
    def test_early_stop_hits_exact_error_count(self):
        cfg = CampaignConfig(**FAST)
        res = run_point(cfg, 0)
        assert res.block_errors == 5
        assert res.blocks < cfg.max_blocks
        # replay: the final block is the fifth error, and the prefix count
        # agrees with run_block one block at a time
        last = run_block(cfg, 0, res.blocks - 1)
        assert last.error
        errs = sum(run_block(cfg, 0, t).error for t in range(res.blocks))
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
        assert r0.to_dict() != r1.to_dict()


def _fail_at_batch(monkeypatch, batch, fail):
    # Campaign workers are forked, so they run the patched method.
    run_batch = campaign._PointContext.run_batch

    def patched(self, batch_index, size):
        if batch_index == batch:
            fail()
        return run_batch(self, batch_index, size)

    monkeypatch.setattr(campaign._PointContext, "run_batch", patched)


class TestExecutor:
    def test_no_worker_outlives_a_campaign(self):
        run_campaign(CampaignConfig(**FAST), workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_reads_the_published_stop_before_each_batch(self):
        class Conn:
            def __init__(self):
                self.sent = []

            def send_bytes(self, buf):
                self.sent.append(campaign._HEADER.unpack_from(buf))

            def close(self):
                pass

        cfg = CampaignConfig(**dict(FAST, ebn0_grid_db=(8.0, 8.0), max_blocks=4 * TRIAL_BATCH))
        conn = Conn()
        # Point 0 stopped after 3 batches; point 1 runs all 4.
        campaign._worker(cfg, 1, 2, [3, 4], conn)
        assert conn.sent == [(0, 1), (1, 1), (1, 3)]

    def test_worker_exception_reraised_with_traceback(self, monkeypatch):
        def fail():
            raise ValueError("no batch 3")

        _fail_at_batch(monkeypatch, 3, fail)
        with pytest.raises(ValueError, match="no batch 3") as info:
            run_campaign(CampaignConfig(**FAST), workers=2)
        cause = str(info.value.__cause__)
        assert "campaign worker 1" in cause
        assert "Traceback" in cause and "in patched" in cause
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_campaign(self):
        # Run in a child interpreter: a campaign that hangs on a dead
        # worker then fails at the timeout instead of hanging the suite.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import multiprocessing, os, signal\n"
            "from aesfec import campaign\n"
            "run_batch = campaign._PointContext.run_batch\n"
            "def patched(self, b, size):\n"
            "    if b == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return run_batch(self, b, size)\n"
            "campaign._PointContext.run_batch = patched\n"
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


@pytest.fixture(scope="module")
def result():
    return run_campaign(CampaignConfig(**FAST))


class TestSerialization:
    def test_json_round_trip(self, result):
        back = CampaignResult.from_json(result.to_json())
        assert back.config == result.config
        assert back.canonical_json() == result.canonical_json()
        assert back.wall_time_s == result.wall_time_s

    def test_canonical_json_ignores_wall_time(self, result):
        back = CampaignResult.from_json(result.to_json())
        back.wall_time_s = 123456.0
        assert back.canonical_json() == result.canonical_json()

    def test_meta_times_points_without_touching_canonical_json(self):
        cfg = CampaignConfig(**dict(FAST, ebn0_grid_db=(7.5, 8.0)))
        res = run_campaign(cfg, workers=2)
        doc = json.loads(res.to_json())
        assert doc["meta"]["workers"] == 2
        assert [set(p) for p in doc["meta"]["points"]] == [{"wall_time_s", "blocks_per_s"}] * 2
        for p, m in zip(res.points, doc["meta"]["points"]):
            assert m["blocks_per_s"] == pytest.approx(p.blocks / m["wall_time_s"])
        assert json.loads(res.canonical_json()) == {k: doc[k] for k in ("config", "points")}
        back = CampaignResult.from_json(res.to_json())
        assert (back.workers, back.point_wall_s) == (2, res.point_wall_s)
        # A file written before meta held the worker count and point times.
        doc["meta"] = {"wall_time_s": 1.5, "version": "0.1.0"}
        old = CampaignResult.from_json(json.dumps(doc))
        assert old.canonical_json() == res.canonical_json()
        assert (old.wall_time_s, old.workers, old.point_wall_s) == (1.5, None, [])

    def test_save_load(self, result, tmp_path):
        path = tmp_path / "r.json"
        result.save(path)
        back = CampaignResult.load(path)
        assert back.canonical_json() == result.canonical_json()

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
        back = PointResult.from_dict(p.to_dict())
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


@pytest.fixture(scope="module")
def perfbench_run():
    """perfbench/run.py imported by path (it puts its directory on sys.path
    to import workloads.py; the path is restored afterwards)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload, seed", [("tail", 1), ("deep", 1), ("deep", 1017)], ids=["tail", "deep", "deep-1017"])
def test_benchmark_campaigns_match_recorded_hashes(perfbench_run, workload, seed):
    # The campaigns are a pure function of their configs, so a change that
    # alters what is simulated (a query count, an accepted block, a budget
    # cut) changes a hash recorded for the benchmark. 1017 is the
    # benchmark's held-out seed.
    with open(perfbench_run.RECORD) as f:
        expected = json.load(f)["expected_sha256"]
    for label, cfg in perfbench_run.workloads.campaigns(workload, seed):
        got = hashlib.sha256(run_campaign(CampaignConfig(**cfg)).canonical_json().encode()).hexdigest()
        assert got == expected[perfbench_run.config_key(cfg)], f"{workload} {label}"


def reference_batch(ctx, batch_index, size):
    """run_batch's records, with the channel drawn into fresh arrays."""
    cfg = ctx.config
    mrng = np.random.default_rng((cfg.master_seed, ctx.point_index, batch_index, 0))
    msgs = mrng.integers(0, 2, size=(size, ctx.params.k), dtype=np.uint8)
    nrng = np.random.default_rng((cfg.master_seed, ctx.point_index, batch_index, 1))
    cw_bits, ref = ctx.encode(msgs)
    y = awgn_samples(modulate(cw_bits), ctx.sigma, nrng)
    rel = np.abs(llr_from_samples(y, ctx.sigma)) if cfg.decoder_kind == "orbgrand" else None
    found, blocks, queries = guess(np.packbits(hard_bits(y), axis=1), ctx.oracle, cfg.max_queries, rel)
    bit_errors = np.bitwise_count((blocks ^ ref) & ctx.msg_mask).sum(axis=1, dtype=np.int64)
    bit_errors[~found] = ctx.abandon_bit_errors
    return bit_errors > 0, bit_errors, queries, ~found


@pytest.mark.parametrize("decoder", ["grand", "orbgrand"])
@pytest.mark.parametrize("code", ["aes", "rlc"])
def test_run_batch_channel_buffers_match_fresh_arrays(code, decoder):
    # Batch 1 is partial (44 trials); batch 0 runs again after it, so stale
    # rows of the reused buffers would show. 5 dB with a 2000-query budget
    # gives searches, hits and abandoned blocks.
    cfg = CampaignConfig(code_kind=code, decoder_kind=decoder, ebn0_grid_db=(5.0,), max_queries=2000,
                         max_blocks=TRIAL_BATCH + 44, master_seed=11)
    ctx = campaign._PointContext(cfg, 0)
    for b in (0, 1, 0):
        size = campaign._batch_size(cfg, b)
        got, want = ctx.run_batch(b, size), reference_batch(ctx, b, size)
        assert len(got[0]) == size
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    # A campaign's records replay one trial at a time.
    res = run_point(cfg, 0)
    want = reference_batch(ctx, 1, 44)
    for trial in (TRIAL_BATCH, TRIAL_BATCH + 43):
        rec = run_block(cfg, 0, trial)
        row = trial - TRIAL_BATCH
        assert (rec.error, rec.bit_errors, rec.queries, rec.abandoned) == tuple(a[row].item() for a in want)
    assert res.blocks == cfg.max_blocks


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
    got = campaign._p99(q)
    assert type(got) is float
    assert got == float(np.percentile(q, 99))
    assert np.array_equal(q, values)  # the input is not reordered


def test_campaign_does_not_import_numpy_ma():
    # numpy's percentile imports numpy.ma on first use, about 30 ms per
    # process.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from aesfec.campaign import CampaignConfig, run_campaign\n"
        "for d in ('grand', 'orbgrand'):\n"
        "    run_campaign(CampaignConfig(decoder_kind=d, ebn0_grid_db=(6.0,), min_block_errors=2, max_blocks=600))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
