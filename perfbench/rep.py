"""One benchmark repetition: a fresh interpreter that runs a workload.

Run by run.py, never by hand: `python3 perfbench/rep.py '<json spec>'`.
The spec carries the workload, seed, worker count, trace
flag, size scale and the parent's spawn time on the system-wide monotonic
clock, so set-up time covers interpreter start, `import aesfec` and the construction of the
cipher, the random linear code and both oracles. The last stdout line is a
JSON report of every campaign: wall time, counted blocks and queries, the
sha256 of its canonical JSON, plus CPU and peak RSS of this process and
its pool workers.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup():
    """What every `aesfec run` pays before its first block."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from aesfec.aes_core import DEFAULT_KEY_HEX, Aes128
    from aesfec.codes import AesPadOracle, CodeParams, RlcOracle, rlc_generate

    params = CodeParams(128, 116)
    AesPadOracle(params, Aes128(DEFAULT_KEY_HEX))
    RlcOracle(rlc_generate(params, 1))


def run(spec):
    from aesfec import campaign

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = []
    cpu0 = _cpu_s()
    for label, cfg in workloads.campaigns(spec["workload"], spec["seed"], spec["scale"]):
        t0 = time.perf_counter()
        try:
            # Looked up on the module so a traced repetition enters the wrapper.
            res = campaign.run_campaign(campaign.CampaignConfig(**cfg), workers=spec["workers"])
        except Exception:
            out.append({"label": label, "error": traceback.format_exc(limit=8)})
            continue
        wall = time.perf_counter() - t0
        out.append(
            {
                "label": label,
                "wall_s": wall,
                "blocks": [p.blocks for p in res.points],
                "block_errors": [p.block_errors for p in res.points],
                "queries": sum(round(p.mean_queries * p.blocks) for p in res.points),
                "sha256": hashlib.sha256(res.canonical_json().encode()).hexdigest(),
            }
        )
    report = {"campaigns": out, "cpu_s": _cpu_s() - cpu0, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = {
            "self_times": tracer.self_times(),
            "counts": dict(tracer.counts),
            "coverage": tracer.coverage(),
            "missing": tracer.missing,
        }
    return report


def main():
    spec = json.loads(sys.argv[1])
    setup()
    setup_s = time.perf_counter() - spec["t_spawn"]
    report = run(spec)
    report["setup_s"] = setup_s
    print(json.dumps(report))


if __name__ == "__main__":
    main()
