"""Workload definitions: the campaigns each benchmark workload runs.

`tail` and `deep` take their master_seed from the benchmark seed, so every
repetition of a run does the same work and must produce the same hashes.
The code construction (AES key, rlc_seed) stays at the project defaults.
`pinned-grand` is exactly the criterion-6 aes/grand and rlc/grand pair,
seeds 1/1 included, whatever the benchmark seed: its hashes are the Tier-1
fixture's, and its time to 100 errors varies by 10-20% between master
seeds, more than a regression bound could absorb.

`tail` and `deep` use fixed block counts (min_block_errors = max_blocks, so
the stopping rule never fires) and are sized so that no single campaign
dominates the workload's time on a 2-core x86 host.
"""

from __future__ import annotations

WORKLOADS = ("tail", "deep", "pinned-grand")

# (code, decoder, Eb/N0 dB, blocks) for the fixed-count workloads.
_FIXED = {
    # Scaled proxy for the 7-8 dB ORBGRAND points: ~91% of blocks are
    # accepted at the batched first query, searches average ~1.1 queries.
    "tail": (
        ("aes", "orbgrand", 7.5, 65536),
        ("rlc", "orbgrand", 7.5, 32768),
    ),
    # Low SNR: long searches, oracle and pattern/candidate layers dominate.
    "deep": (
        ("aes", "grand", 5.0, 2048),
        ("rlc", "grand", 5.0, 1024),
        ("aes", "orbgrand", 4.5, 4096),
        ("rlc", "orbgrand", 4.5, 2048),
    ),
}

PINNED_GRID = (6.0, 6.5, 7.0, 7.5, 8.0)


def default_workers(workload):
    """Worker count a workload runs at in its end-to-end repetitions."""
    return 2 if workload == "pinned-grand" else 1


def campaigns(workload, seed, scale=1):
    """[(label, config dict)] for one workload and seed; `scale` > 1
    divides the block counts (self-test sizes only; scale 1 is the
    benchmark)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    out = []
    if workload == "pinned-grand":
        for code in ("aes", "rlc"):
            out.append(
                (
                    f"{code}/grand",
                    dict(
                        code_kind=code,
                        decoder_kind="grand",
                        n=128,
                        k=116,
                        ebn0_grid_db=PINNED_GRID,
                        max_queries=10**6,
                        min_block_errors=max(1, 100 // scale),
                        max_blocks=10**6 // scale,
                        master_seed=1,
                        rlc_seed=1,
                    ),
                )
            )
        return out
    for code, decoder, ebn0, blocks in _FIXED[workload]:
        blocks = max(1, blocks // scale)
        out.append(
            (
                f"{code}/{decoder}",
                dict(
                    code_kind=code,
                    decoder_kind=decoder,
                    n=128,
                    k=116,
                    ebn0_grid_db=(ebn0,),
                    max_queries=10**6,
                    min_block_errors=blocks,
                    max_blocks=blocks,
                    master_seed=seed,
                    rlc_seed=1,
                ),
            )
        )
    return out
