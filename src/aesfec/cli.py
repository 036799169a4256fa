"""Command line front end: run campaigns, merge plot data."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .aes_core import DEFAULT_KEY_HEX, key_from_hex
from .campaign import CampaignConfig, CampaignResult, run_campaign

__all__ = ["main", "parse_grid", "plot_data_csv"]


def parse_grid(text):
    """Eb/N0 grid: 'start:step:stop' (inclusive) or a comma list or one value."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:step:stop")
            start, step, stop = (float(p) for p in parts)
            if step <= 0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must be >= start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            values = tuple(round(start + i * step, 12) for i in range(count))
        else:
            values = tuple(float(p) for p in text.split(","))
        if not values:
            raise ValueError("grid is empty")
        if any(not math.isfinite(v) for v in values):
            raise ValueError("grid values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("grid values must be strictly increasing")
        return values
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _nonneg_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _aes_key(text):
    try:
        key_from_hex(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aesfec",
        description="AES-as-a-code and random-linear-code baselines decoded by noise guessing over BPSK/AWGN.",
    )
    parser.add_argument("--version", action="version", version=f"aesfec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a BER/BLER campaign and write JSON + CSV results")
    run.add_argument("--code", choices=("aes", "rlc"), default="aes")
    run.add_argument("--decoder", choices=("grand", "orbgrand"), default="grand")
    run.add_argument("--n", type=_positive_int, default=128, help="block length (default 128)")
    run.add_argument("--k", type=_positive_int, default=116, help="message bits per block (default 116)")
    run.add_argument(
        "--ebn0",
        type=parse_grid,
        default=parse_grid("6:0.5:8"),
        help="Eb/N0 grid in dB: start:step:stop or comma list (default 6:0.5:8)",
    )
    run.add_argument("--max-queries", type=_positive_int, default=10**6, help="abandon a block after this many oracle queries")
    run.add_argument("--min-block-errors", type=_positive_int, default=100, help="stop a point after this many block errors")
    run.add_argument("--max-blocks", type=_positive_int, default=10**6, help="hard cap on blocks per point")
    run.add_argument("--seed", type=_nonneg_int, default=1, help="master RNG seed")
    run.add_argument("--aes-key", type=_aes_key, default=DEFAULT_KEY_HEX, help="AES-128 key, 32 hex digits")
    run.add_argument("--rlc-seed", type=_nonneg_int, default=1, help="seed of the random linear code draw")
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="processes per campaign: 1 runs in this process; W > 1 forks W workers, each running every W-th "
        "batch of a point until the point's stop is published (results do not depend on W)",
    )
    run.add_argument("--out", type=Path, default=None, help="output JSON path (default campaign_<code>_<decoder>.json)")
    run.add_argument("--quiet", action="store_true", help="suppress per-point progress lines")
    run.set_defaults(func=_cmd_run)

    plot = sub.add_parser("plot-data", help="merge campaign JSON files into one long-format CSV")
    plot.add_argument("inputs", nargs="+", type=Path, help="campaign result JSON files")
    plot.add_argument("--out", type=Path, required=True, help="merged CSV path")
    plot.set_defaults(func=_cmd_plot_data)
    return parser


def _cmd_run(args):
    try:
        config = CampaignConfig(
            code_kind=args.code,
            decoder_kind=args.decoder,
            n=args.n,
            k=args.k,
            ebn0_grid_db=args.ebn0,
            max_queries=args.max_queries,
            min_block_errors=args.min_block_errors,
            max_blocks=args.max_blocks,
            master_seed=args.seed,
            aes_key_hex=args.aes_key,
            rlc_seed=args.rlc_seed,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = args.out or Path(f"campaign_{config.code_kind}_{config.decoder_kind}.json")
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        print(f"error: --out {out} is also where the CSV goes; give the JSON path another suffix", file=sys.stderr)
        return 2
    # Make the output directory before the first block, so a campaign never
    # finishes only to find it cannot write its results.
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"running {config.code_kind}/{config.decoder_kind} n={config.n} k={config.k} "
              f"grid={list(config.ebn0_grid_db)} seed={config.master_seed}")
    result = run_campaign(config, workers=args.workers, progress=not args.quiet)
    result.save(out)
    csv_path.write_text(plot_data_csv([(out, result)]))
    if not args.quiet:
        print(f"wrote {out} and {csv_path} ({result.wall_time_s:.1f} s)")
    _print_table(result)
    return 0


def _print_table(result):
    print(f"{'Eb/N0':>6} {'blocks':>9} {'errs':>5} {'BLER':>10} {'BER':>10} {'mean q':>10} {'p99 q':>10}")
    for p in result.points:
        print(
            f"{p.ebn0_db:6.2f} {p.blocks:9d} {p.block_errors:5d} "
            f"{p.bler:10.3e} {p.ber:10.3e} {p.mean_queries:10.1f} {p.p99_queries:10.1f}"
        )


def plot_data_csv(sources):
    """Long-format CSV of (source path, CampaignResult) pairs: one row per
    grid point, headed by one provenance comment per campaign."""
    header = ["code", "decoder", "n", "k", "master_seed"] + list(CampaignResult.CSV_FIELDS)
    lines = []
    comments = []
    for path, res in sources:
        cfg = res.config
        comments.append(f"# source={path} code={cfg.code_kind} decoder={cfg.decoder_kind} "
                        f"n={cfg.n} k={cfg.k} seed={cfg.master_seed} max_queries={cfg.max_queries}")
        for p in res.points:
            d = p.to_dict()
            row = [cfg.code_kind, cfg.decoder_kind, cfg.n, cfg.k, cfg.master_seed]
            row += [d[f] for f in CampaignResult.CSV_FIELDS]
            lines.append(",".join("" if v is None else str(v) for v in row))
    return "\n".join(comments + [",".join(header)] + lines) + "\n"


def _input_error(path, reason):
    print(f"error: {path}: {reason}", file=sys.stderr)
    return 2


def _cmd_plot_data(args):
    # Every input is read and checked before the CSV is written.
    sources = []
    for path in args.inputs:
        try:
            sources.append((path, CampaignResult.from_json(path.read_text())))
        except OSError as e:
            return _input_error(path, e.strerror or e)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            return _input_error(path, f"not a JSON file ({e})")
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            return _input_error(path, f"not a campaign result ({type(e).__name__}: {e})")
    try:
        args.out.write_text(plot_data_csv(sources))
    except OSError as e:
        return _input_error(args.out, e.strerror or e)
    rows = sum(len(res.points) for _, res in sources)
    print(f"wrote {args.out} ({rows} rows from {len(sources)} campaigns)")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
