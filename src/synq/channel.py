"""Binary symmetric channel with a counter-based random stream.

One Philox4x64 generator, keyed (seed mod 2^64, STREAM_TAG), serves every
frame of a run.  With c = ceil(n / 4), frame i owns the counter blocks
i*c + 1 .. (i+1)*c: the 4c 64-bit words that follow `advance(i * c)`.  Bit
j of the frame is set when word j, read as a double the way
`Generator.random` reads it, is below rho.  So frames lo..hi-1 are one
advance and one draw, and frame i depends only on (seed, i): any subset of
frames can be generated in any order, and serial and parallel simulation
see identical noise.  The all-zero codeword is transmitted throughout, so
the received word equals the error pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import bits_to_int

STREAM_TAG = 0xB5C  # second key word; no other generator in the package uses it


@dataclass(frozen=True)
class BscConfig:
    rho: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"crossover probability {self.rho} outside [0, 1]")


def sample_errors(cfg: BscConfig, n: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n) uint8 error patterns; row r is frame lo + r.

    A word x reads as the double (x >> 11) * 2^-53, which is below rho
    exactly when x < ceil(rho * 2^53) * 2^11, so the words are compared as
    integers.  That threshold is 2^64 at rho = 1, where every bit is set.
    """
    if cfg.rho == 1.0:
        return np.ones((hi - lo, n), np.uint8)
    blocks = -(-n // 4)
    bitgen = np.random.Philox(key=np.array([cfg.seed % 2**64, STREAM_TAG], np.uint64))
    bitgen.advance(lo * blocks)
    words = bitgen.random_raw((hi - lo, 4 * blocks))[:, :n]
    return (words < np.uint64(math.ceil(cfg.rho * 2.0**53) << 11)).view(np.uint8)


def sample_error(cfg: BscConfig, n: int, stream_index: int) -> int:
    """Packed error pattern for one frame: row 0 of `sample_errors`."""
    return bits_to_int(sample_errors(cfg, n, stream_index, stream_index + 1)[0])
