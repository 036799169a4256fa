"""BPSK/AWGN conventions: noise scale, LLRs, hard decisions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from aesfec.bitblock import BitVec
from aesfec.channel import (
    ChannelPoint,
    add_awgn,
    awgn_samples,
    hard_bits,
    hard_decision,
    llr_from_samples,
    modulate,
    sigma_from_ebn0,
)

RATE = 116 / 128


def sigma_oracle(ebn0_db, rate):
    # independent recomputation at 50 digits
    with mpmath.workdps(50):
        ebn0 = mpmath.mpf(10) ** (mpmath.mpf(str(ebn0_db)) / 10)
        return float(1 / mpmath.sqrt(2 * mpmath.mpf(rate) * ebn0))


def q_func(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


@pytest.mark.parametrize("db", [0.0, 4.0, 6.0, 6.5, 8.0, 12.0])
def test_sigma_matches_high_precision_formula(db):
    assert sigma_from_ebn0(db, RATE) == pytest.approx(
        sigma_oracle(db, RATE), rel=1e-12
    )


def test_sigma_validates_rate():
    for rate in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            sigma_from_ebn0(6.0, rate)


def test_channel_point_properties():
    pt = ChannelPoint(ebn0_db=8.0, rate=RATE)
    assert pt.sigma == pytest.approx(sigma_oracle(8.0, RATE), rel=1e-12)
    with mpmath.workdps(50):
        s = mpmath.mpf(sigma_oracle(8.0, RATE))
        h = float(mpmath.log(2 * mpmath.pi * mpmath.e * s**2, 2) / 2)
    assert pt.noise_entropy_bits == pytest.approx(h, rel=1e-9)


def test_modulate_mapping():
    x = modulate(BitVec.from_bits([0, 1, 1, 0]))
    assert np.array_equal(x, [1.0, -1.0, -1.0, 1.0])
    arr = np.array([0, 0, 1], dtype=np.uint8)
    assert np.array_equal(modulate(arr), [1.0, 1.0, -1.0])


def test_llr_scale_and_sign():
    y = np.array([0.5, -0.25, 0.0])
    llr = llr_from_samples(y, 0.5)
    assert np.allclose(llr, [4.0, -2.0, 0.0])
    # positive sample favors bit 0, negative favors bit 1
    assert llr[0] > 0 > llr[1]


def test_hard_decision_boundary():
    y = np.array([0.7, -0.1, 0.0, -0.0])
    assert np.array_equal(hard_bits(y), [0, 1, 0, 0])
    assert hard_decision(y) == BitVec.from_bits([0, 1, 0, 0])


def test_add_awgn_deterministic_and_shaped():
    x = modulate(np.zeros(64, dtype=np.uint8))
    w1 = add_awgn(x, 0.3, np.random.default_rng(42))
    w2 = add_awgn(x, 0.3, np.random.default_rng(42))
    assert np.array_equal(w1.samples, w2.samples)
    assert w1.sigma == 0.3 and len(w1) == 64
    assert np.allclose(w1.llrs, 2.0 * w1.samples / 0.09)


@pytest.mark.parametrize("db", [4.0, 8.0])
def test_flip_rate_tracks_gaussian_tail(db):
    sigma = sigma_from_ebn0(db, RATE)
    rng = np.random.default_rng(int(db))
    n = 1 << 18
    x = modulate(np.zeros(n, dtype=np.uint8))
    word = add_awgn(x, sigma, rng)
    flips = int(hard_bits(word.samples).sum())
    p = q_func(1.0 / sigma)
    tol = 5.0 * math.sqrt(n * p * (1 - p))
    assert abs(flips - n * p) <= tol


@given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
def test_noiseless_hard_decision_recovers_bits(bits):
    v = BitVec.from_bits(bits)
    assert hard_decision(modulate(v)) == v


@given(
    rows=st.integers(1, 9),
    n=st.integers(1, 130),
    ebn0=st.floats(-2.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_into_buffers_matches_textbook_formulas(rows, n, ebn0, seed):
    # The out= forms reorder nothing that changes a bit: the same products
    # and sums as the formulas, written into the caller's arrays.
    sigma = sigma_from_ebn0(ebn0, RATE)
    bits = np.random.default_rng(seed).integers(0, 2, size=(rows, n), dtype=np.uint8)
    x_want = 1.0 - 2.0 * bits.astype(np.float64)
    y_want = x_want + sigma * np.random.default_rng(seed + 1).standard_normal((rows, n))
    bufs = np.full((3, rows + 2, n), np.nan)
    x = modulate(bits, out=bufs[0, :rows])
    y = awgn_samples(x, sigma, np.random.default_rng(seed + 1), out=bufs[1, :rows])
    llr = llr_from_samples(y, sigma, out=bufs[2, :rows])
    hard = hard_bits(y, out=np.empty((rows, n), dtype=np.uint8))
    for got, want, buf in ((x, x_want, bufs[0]), (y, y_want, bufs[1]), (llr, (2.0 / sigma**2) * y_want, bufs[2])):
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, buf)
        assert np.isnan(buf[rows:]).all()
    assert np.array_equal(hard, (y_want < 0).astype(np.uint8))
    # Without out=, the same values in fresh arrays.
    assert modulate(bits).tobytes() == x_want.tobytes()
    assert awgn_samples(x_want, sigma, np.random.default_rng(seed + 1)).tobytes() == y_want.tobytes()
    assert hard_bits(y_want).dtype == np.uint8
