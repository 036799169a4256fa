#!/usr/bin/env python3
"""Plot BLER/BER curves from campaign JSON files written by `aesfec run`.

Requires matplotlib (not a package dependency):

    python3 scripts/plot_comparison.py results/*.json --out results/curves.png
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aesfec.campaign import CampaignResult

STYLES = {
    ("aes", "grand"): dict(color="tab:blue", marker="o", linestyle="-"),
    ("rlc", "grand"): dict(color="tab:orange", marker="s", linestyle="--"),
    ("aes", "orbgrand"): dict(color="tab:green", marker="^", linestyle="-"),
    ("rlc", "orbgrand"): dict(color="tab:red", marker="v", linestyle="--"),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs", nargs="+", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--metric", choices=("bler", "ber", "both"), default="both")
    args = ap.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required for plotting: pip install matplotlib",
              file=sys.stderr)
        return 1

    metrics = ("bler", "ber") if args.metric == "both" else (args.metric,)
    fig, axes = plt.subplots(1, len(metrics), figsize=(6 * len(metrics), 4.5),
                             squeeze=False)
    for path in args.inputs:
        res = CampaignResult.load(path)
        key = (res.config.code_kind, res.config.decoder_kind)
        style = STYLES.get(key, {})
        for ax, metric in zip(axes[0], metrics):
            # zero estimates (no observed errors) cannot sit on a log axis
            kept = [(p.ebn0_db, getattr(p, metric), p) for p in res.points
                    if getattr(p, metric) > 0]
            if not kept:
                continue
            xs, ys, pts = zip(*kept)
            ax.semilogy(xs, ys, label=f"{key[0]}/{key[1]}", **style)
            if metric == "bler":
                lo = [p.bler_ci_low for p in pts]
                hi = [p.bler_ci_high for p in pts]
                ax.fill_between(xs, lo, hi, alpha=0.15,
                                color=style.get("color"))
    for ax, metric in zip(axes[0], metrics):
        ax.set_xlabel("Eb/N0 (dB)")
        ax.set_ylabel(metric.upper())
        ax.grid(True, which="both", alpha=0.3)
        ax.legend()
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
