"""AES-128 as an error-correcting code, decoded by guessing noise.

A k-bit message is zero-padded to 128 bits and encrypted; the ciphertext is
the codeword. The receiver runs GRAND (hard decision) or ORBGRAND (soft
reliability ordering) against a membership oracle that decrypts each
candidate word and accepts when the padding bits come back zero. A random
linear code with a syndrome oracle provides the classical baseline, and the
campaign module measures BER/BLER over a BPSK AWGN channel.
"""

from .bitblock import BitVec, concat, split
from .aes_core import Aes128, DEFAULT_KEY_HEX, KeySchedule, expand_key, key_from_hex
from .codes import AesPadOracle, CodeParams, MembershipOracle, RlcCode, RlcOracle, aes_encode, rlc_generate
from .channel import SoftWord, add_awgn, hard_decision, modulate, sigma_from_ebn0
from .grand import DecodeOutcome, grand_decode, hamming_order_patterns, logistic_order_patterns, orbgrand_decode
from .campaign import CampaignConfig, CampaignResult, PointResult, run_block, run_campaign, run_point

__version__ = "0.1.0"
