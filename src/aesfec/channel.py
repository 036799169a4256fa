"""BPSK over real AWGN, with soft outputs for reliability-ordered decoding.

Conventions: bit 0 maps to +1, bit 1 to -1. For a code of rate R at Eb/N0
(dB) the per-dimension noise deviation is sigma = sqrt(1 / (2 R 10^(x/10))),
i.e. symbol energy 1 and Eb = 1/R. The LLR of a received sample y is
2 y / sigma^2, positive when bit 0 is more likely; a hard decision takes
bit 1 iff y < 0, so exact ties fall to bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitblock import BitVec

__all__ = [
    "ChannelPoint",
    "SoftWord",
    "sigma_from_ebn0",
    "modulate",
    "add_awgn",
    "awgn_samples",
    "llr_from_samples",
    "hard_bits",
    "hard_decision",
]


def sigma_from_ebn0(ebn0_db, rate):
    """Noise standard deviation for BPSK at the given Eb/N0 and code rate."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


@dataclass(frozen=True)
class ChannelPoint:
    """One operating point of the channel: Eb/N0 plus the code rate."""

    ebn0_db: float
    rate: float

    @property
    def sigma(self):
        return sigma_from_ebn0(self.ebn0_db, self.rate)

    @property
    def noise_entropy_bits(self):
        """Differential entropy of the Gaussian noise per channel use, in bits."""
        return 0.5 * math.log2(2.0 * math.pi * math.e * self.sigma**2)


@dataclass(frozen=True)
class SoftWord:
    """Received word: channel samples, their LLRs, and the noise level."""

    samples: np.ndarray
    llrs: np.ndarray
    sigma: float

    def __len__(self):
        return self.samples.shape[-1]


def modulate(bits, out=None):
    """Antipodal map bit -> 1 - 2*bit. Accepts a BitVec or a 0/1 array.

    out, a float64 array of the bits' shape, receives the samples.
    """
    if isinstance(bits, BitVec):
        bits = bits.to_array()
    # -2 bit + 1 is 1 - 2 bit exactly, and needs no temporary.
    x = np.multiply(bits, -2.0, out=out, dtype=np.float64)
    x += 1.0
    return x


def awgn_samples(x, sigma, rng, out=None):
    """x plus i.i.d. N(0, sigma^2) noise, any shape.

    out, a C-contiguous float64 array of x's shape that does not overlap
    x, receives the samples: the noise is drawn into it, then scaled and
    shifted in place, the same products and sums as x + sigma * noise.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    y = rng.standard_normal(x.shape, out=out)
    y *= sigma
    y += x
    return y


def llr_from_samples(samples, sigma, out=None):
    """LLRs 2 y / sigma^2 of channel samples; out, a float64 array of the
    samples' shape (the samples themselves included), receives them."""
    return np.multiply(np.asarray(samples, dtype=np.float64), 2.0 / sigma**2, out=out)


def add_awgn(x, sigma, rng):
    """Transmit modulated samples through the channel; returns a SoftWord."""
    y = awgn_samples(x, sigma, rng)
    return SoftWord(samples=y, llrs=llr_from_samples(y, sigma), sigma=sigma)


def hard_bits(samples, out=None):
    """Per-sample hard decisions as a uint8 array (ties resolve to bit 0).

    out, a uint8 array of the samples' shape, receives the bits.
    """
    return np.less(samples, 0, out=out).view(np.uint8)


def hard_decision(word):
    """Hard-decision BitVec from a SoftWord (or a raw sample array)."""
    samples = word.samples if isinstance(word, SoftWord) else word
    return BitVec.from_array(hard_bits(samples))
