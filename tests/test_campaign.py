"""Monte Carlo campaign engine: addressing, stopping, serialization."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_save_load(self, result, tmp_path):
        path = tmp_path / "r.json"
        result.save(path)
        back = CampaignResult.load(path)
        assert back.canonical_json() == result.canonical_json()

    def test_csv_shape(self, result):
        lines = result.to_csv().strip().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header == list(CampaignResult.CSV_FIELDS)
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


@pytest.mark.parametrize("workload", ["tail", "deep"])
def test_benchmark_campaigns_match_recorded_hashes(perfbench_run, workload):
    # The campaigns are a pure function of their configs, so a change that
    # alters what is simulated (a query count, an accepted block, a budget
    # cut) changes a hash recorded for the benchmark.
    with open(perfbench_run.RECORD) as f:
        expected = json.load(f)["expected_sha256"]
    for label, cfg in perfbench_run.workloads.campaigns(workload, 1):
        got = hashlib.sha256(run_campaign(CampaignConfig(**cfg)).canonical_json().encode()).hexdigest()
        assert got == expected[perfbench_run.config_key(cfg)], f"{workload} {label}"
