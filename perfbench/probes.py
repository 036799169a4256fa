"""Layer probes: public aesfec APIs timed on fixed seeded inputs.

Run by run.py in a fresh interpreter, `python3 perfbench/probes.py <seed>
<scale>`, so the first search of each decoder pays the cold pattern caches
exactly as a new `aesfec run` does. Prints one JSON object of
{metric: [value, unit]} as its last stdout line.
"""

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from aesfec.aes_core import DEFAULT_KEY_HEX, Aes128  # noqa: E402
from aesfec.channel import (  # noqa: E402
    add_awgn,
    awgn_samples,
    hard_bits,
    hard_decision,
    llr_from_samples,
    modulate,
    sigma_from_ebn0,
)
from aesfec.codes import AesPadOracle, CodeParams, MembershipOracle, RlcOracle, rlc_generate  # noqa: E402
from aesfec.grand import grand_decode, orbgrand_decode  # noqa: E402

PARAMS = CodeParams(128, 116)
# Queries through Hamming weight 3 for n = 128: 1 + 128 + 8128 + 341376.
WEIGHT3_QUERIES = 349_633
STREAMED_QUERIES = 1 << 18


class NeverAccept(MembershipOracle):
    """Rejects every word, so a search runs to its budget: it times the
    pattern and candidate layers with no oracle work behind them."""

    def decode_batch(self, words):
        return np.zeros(len(words), dtype=bool), words


def per_call_s(fn, min_total_s=0.2, repeats=5):
    """Median over `repeats` trials of the mean seconds per call, each trial
    looping until it has run for at least min_total_s / repeats."""
    fn()
    trials = []
    for _ in range(repeats):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_total_s / repeats:
                break
        trials.append(dt / n)
    return statistics.median(trials)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def search_probes(seed, scale):
    """Decoder search rates against NeverAccept, cold then warm."""
    out = {}
    rng = np.random.default_rng((seed, 7))
    sigma = sigma_from_ebn0(6.0, PARAMS.rate)
    soft = add_awgn(modulate(rng.integers(0, 2, PARAMS.n)), sigma, rng)
    word = hard_decision(soft)
    oracle = NeverAccept(PARAMS)
    budget = WEIGHT3_QUERIES // scale
    for name, decode, arg in (("grand", grand_decode, word), ("orbgrand", orbgrand_decode, soft)):
        for phase in ("cold", "warm"):
            res, dt = timed(lambda: decode(arg, oracle, max_queries=budget))
            if res.queries != budget or not res.abandoned:
                raise RuntimeError(f"{name} probe spent {res.queries} of {budget} queries")
            out[f"probe.{name}_qps_{phase}"] = (budget / dt, "1/s")
    # Weight 4 is streamed through Python Gosper; time it as the extra cost
    # of a warm search that runs STREAMED_QUERIES past the weight-3 boundary.
    extra = STREAMED_QUERIES // scale
    _, base = timed(lambda: grand_decode(word, oracle, max_queries=WEIGHT3_QUERIES))
    res, dt = timed(lambda: grand_decode(word, oracle, max_queries=WEIGHT3_QUERIES + extra))
    if res.queries != WEIGHT3_QUERIES + extra:
        raise RuntimeError(f"streamed probe spent {res.queries} queries")
    out["probe.grand_qps_streamed"] = (extra / max(dt - base, 1e-9), "1/s")
    return out


def oracle_probes(seed):
    out = {}
    rng = np.random.default_rng((seed, 11))
    cipher = Aes128(DEFAULT_KEY_HEX)
    code = rlc_generate(PARAMS, 1)
    oracles = {"aes": AesPadOracle(PARAMS, cipher), "rlc": RlcOracle(code)}
    big = rng.integers(0, 256, size=(4096, PARAMS.nbytes), dtype=np.uint8)
    small = big[:64].copy()
    for name, oracle in oracles.items():
        out[f"probe.oracle_{name}_wps_4096"] = (4096 / per_call_s(lambda: oracle.decode_batch(big)), "1/s")
        out[f"probe.oracle_{name}_call_us_64"] = (1e6 * per_call_s(lambda: oracle.decode_batch(small)), "us")
    out["probe.aes_decrypt_wps_4096"] = (4096 / per_call_s(lambda: cipher.decrypt_batch(big)), "1/s")
    blocks = big[:256].copy()
    msgs = rng.integers(0, 2, size=(256, PARAMS.k), dtype=np.uint8)
    out["probe.aes_encrypt_us_256"] = (1e6 * per_call_s(lambda: cipher.encrypt_batch(blocks)), "us")
    out["probe.rlc_encode_us_256"] = (1e6 * per_call_s(lambda: code.encode_bits(msgs)), "us")

    sigma = sigma_from_ebn0(7.5, PARAMS.rate)
    cw = code.encode_bits(msgs)

    def channel_batch():
        # One 256 x 128 batch as a campaign draws it: fresh generator,
        # BPSK, AWGN, hard decisions, packing and LLRs.
        y = awgn_samples(modulate(cw), sigma, np.random.default_rng((seed, 0, 0, 1)))
        np.packbits(hard_bits(y), axis=1)
        llr_from_samples(y, sigma)

    out["probe.channel_batch_us"] = (1e6 * per_call_s(channel_batch), "us")
    return out


def main():
    seed, scale = int(sys.argv[1]), int(sys.argv[2])
    out = search_probes(seed, scale)
    out.update(oracle_probes(seed))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
