"""Command line front end: run campaigns, merge plot data."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .campaign import CODE_KINDS, DECODER_KINDS, MAX_WORKERS, CampaignConfig, CampaignResult, run_campaign
from .codes import integer

__all__ = ["main", "parse_grid", "plot_data_csv"]


# Grid points at most; a range is counted before it is built.
MAX_GRID_POINTS = 1000


def parse_grid(text):
    """Eb/N0 grid: 'start:step:stop' (inclusive) or a comma list or one value."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:step:stop")
            start, step, stop = (float(p) for p in parts)
            if not all(math.isfinite(v) for v in (start, step, stop)):
                raise ValueError("start, step and stop must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must be >= start")
            span = (stop - start) / step + 1e-9  # inf if the quotient overflows
            if not span < MAX_GRID_POINTS:
                raise ValueError(f"a grid holds 1 to {MAX_GRID_POINTS} points")
            values = tuple(round(start + i * step, 12) for i in range(int(span) + 1))
        else:
            values = tuple(float(p) for p in text.split(","))
        if not 0 < len(values) <= MAX_GRID_POINTS:
            raise ValueError(f"a grid holds 1 to {MAX_GRID_POINTS} points")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("grid values must be strictly increasing")
        return values
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aesfec",
        description="AES-as-a-code and random-linear-code baselines decoded by noise guessing over BPSK/AWGN.",
    )
    parser.add_argument("--version", action="version", version=f"aesfec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a BER/BLER campaign and write JSON + CSV results")
    # One flag per CampaignConfig field: it sets that field, with the field's
    # default and the type of that default, and CampaignConfig checks it.
    flags = {
        "code_kind": ("--code", f"code family, one of {', '.join(CODE_KINDS)}"),
        "decoder_kind": ("--decoder", f"noise-guessing decoder, one of {', '.join(DECODER_KINDS)}"),
        "n": ("--n", "block length"),
        "k": ("--k", "message bits per block"),
        "ebn0_grid_db": ("--ebn0", f"Eb/N0 grid in dB: start:step:stop or comma list, at most {MAX_GRID_POINTS} points"),
        "max_queries": ("--max-queries", "abandon a block after this many oracle queries"),
        "min_block_errors": ("--min-block-errors", "stop a point after this many block errors"),
        "max_blocks": ("--max-blocks", "hard cap on blocks per point"),
        "master_seed": ("--seed", "master RNG seed"),
        "aes_key_hex": ("--aes-key", "AES-128 key, 32 hex digits"),
        "rlc_seed": ("--rlc-seed", "seed of the random linear code draw"),
    }
    for f in fields(CampaignConfig):
        flag, text = flags[f.name]
        kind = parse_grid if f.name == "ebn0_grid_db" else type(f.default)
        run.add_argument(flag, dest=f.name, type=kind, default=f.default, metavar=flag[2:].upper().replace("-", "_"),
                         help=f"{text} (default %(default)s)")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"processes per campaign, at most {MAX_WORKERS}: 1 runs in this process, W > 1 forks W - 1 workers "
        "beside it, and each process draws its next chunk's messages and noise on one thread of its own; a point's "
        "batches run in chunks of 1, 2, then 4, chunk i on process i mod W (results do not depend on W)",
    )
    run.add_argument("--out", type=Path, default=None, help="output JSON path (default campaign_<code>_<decoder>.json)")
    run.add_argument("--quiet", action="store_true", help="suppress per-point progress lines")
    run.set_defaults(func=_cmd_run)

    plot = sub.add_parser("plot-data", help="merge campaign JSON files into one long-format CSV")
    plot.add_argument("inputs", nargs="+", type=Path, help="campaign result JSON files")
    plot.add_argument("--out", type=Path, required=True, help="merged CSV path")
    plot.set_defaults(func=_cmd_plot_data)
    return parser


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args):
    # Check every value and make the output directory before any output, so
    # a campaign never finishes only to find it cannot write its results.
    try:
        config = CampaignConfig(**{f.name: getattr(args, f.name) for f in fields(CampaignConfig)})
        integer("workers", args.workers, 1, MAX_WORKERS + 1)
    except ValueError as e:
        return _fail(e)
    out = args.out or Path(f"campaign_{config.code_kind}_{config.decoder_kind}.json")
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        return _fail(f"--out {out} is also where the CSV goes; give the JSON path another suffix")
    try:
        for path in (out, csv_path):
            if path.is_dir():
                return _fail(f"--out {out}: {path} is a directory, not a file the results can be written to")
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a name too long, or a file where a directory should be
        return _fail(f"--out {out}: cannot write there or create its output directory: {e.strerror or e}")
    if not args.quiet:
        print(f"running {config.code_kind}/{config.decoder_kind} n={config.n} k={config.k} "
              f"grid={list(config.ebn0_grid_db)} seed={config.master_seed}")
    result = run_campaign(config, workers=args.workers, progress=not args.quiet)
    try:
        out.write_text(result.to_json())
        csv_path.write_text(plot_data_csv([(out, result)]))
    except OSError as e:
        return _fail(f"{e.filename or out}: {e.strerror or e}")
    if not args.quiet:
        print(f"wrote {out} and {csv_path} ({result.meta['wall_time_s']:.1f} s)")
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
            row = [cfg.code_kind, cfg.decoder_kind, cfg.n, cfg.k, cfg.master_seed]
            row += [getattr(p, f) for f in CampaignResult.CSV_FIELDS]
            lines.append(",".join("" if v is None else str(v) for v in row))
    return "\n".join(comments + [",".join(header)] + lines) + "\n"


def _cmd_plot_data(args):
    # Every input is read and checked before the CSV is written.
    sources = []
    for path in args.inputs:
        try:
            sources.append((path, CampaignResult.from_json(path.read_text())))
        except OSError as e:
            return _fail(f"{path}: {e.strerror or e}")
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            return _fail(f"{path}: not a JSON file ({e})")
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            return _fail(f"{path}: not a campaign result ({type(e).__name__}: {e})")
    try:
        args.out.write_text(plot_data_csv(sources))
    except OSError as e:
        return _fail(f"{args.out}: {e.strerror or e}")
    rows = sum(len(res.points) for _, res in sources)
    print(f"wrote {args.out} ({rows} rows from {len(sources)} campaigns)")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:  # Ctrl-C: one line, no traceback, the shell's 128 + SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
