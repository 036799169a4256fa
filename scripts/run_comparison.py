#!/usr/bin/env python3
"""Run the four-way code/decoder comparison and write results to disk.

Produces one JSON + CSV pair per (code, decoder) combination plus a merged
long-format CSV ready for plotting, all under --out-dir. The merged CSV has
the columns `aesfec plot-data` writes.

Typical full run (budget 1e6, 100 block errors per point):

    python3 scripts/run_comparison.py --out-dir results --workers 4

A quick smoke run:

    python3 scripts/run_comparison.py --out-dir /tmp/smoke \
        --ebn0 7:0.5:8 --min-block-errors 10
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aesfec.campaign import CampaignConfig, run_campaign
from aesfec.cli import _nonneg_int, _positive_int, parse_grid, plot_data_csv


def build_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--ebn0", type=parse_grid, default=parse_grid("6:0.5:8"))
    ap.add_argument("--max-queries", type=_positive_int, default=10**6)
    ap.add_argument("--min-block-errors", type=_positive_int, default=100)
    ap.add_argument("--max-blocks", type=_positive_int, default=10**6)
    ap.add_argument("--seed", type=_nonneg_int, default=1)
    ap.add_argument("--rlc-seed", type=_nonneg_int, default=1)
    ap.add_argument("--workers", type=_positive_int, default=1)
    return ap.parse_args()


def main():
    args = build_args()
    # Every config is checked before the output directory is made.
    configs = [
        CampaignConfig(
            code_kind=code,
            decoder_kind=decoder,
            ebn0_grid_db=args.ebn0,
            max_queries=args.max_queries,
            min_block_errors=args.min_block_errors,
            max_blocks=args.max_blocks,
            master_seed=args.seed,
            rlc_seed=args.rlc_seed,
        )
        for code, decoder in itertools.product(("aes", "rlc"), ("grand", "orbgrand"))
    ]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sources = []
    t0 = time.perf_counter()
    for cfg in configs:
        print(f"== {cfg.code_kind}/{cfg.decoder_kind} ==", flush=True)
        res = run_campaign(cfg, workers=args.workers, progress=True)
        stem = args.out_dir / f"{cfg.code_kind}-{cfg.decoder_kind}"
        res.save(stem.with_suffix(".json"))
        stem.with_suffix(".csv").write_text(res.to_csv())
        sources.append((stem.with_suffix(".json"), res))
        print(f"   saved {stem}.json ({res.wall_time_s:.1f} s)", flush=True)

    merged = args.out_dir / "comparison.csv"
    merged.write_text(plot_data_csv(sources))
    print(f"merged table: {merged}")
    print(f"total {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
