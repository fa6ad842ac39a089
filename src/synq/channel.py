"""Binary symmetric channel with counter-based per-frame random streams.

Frame i of a run draws from Philox keyed by (seed, i), so any subset of
frames can be generated in any order -- serial and parallel simulation see
identical noise.  The all-zero codeword is transmitted throughout, so the
received word equals the error pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import bits_to_int

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class BscConfig:
    rho: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"crossover probability {self.rho} outside [0, 1]")


def frame_rng(seed: int, stream_index: int) -> np.random.Generator:
    """Independent generator for one frame, keyed (seed, stream_index).

    The reference definition of the channel streams: `sample_errors` draws
    the same numbers without building a generator per frame.
    """
    key = np.array([seed & _MASK64, stream_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_errors(cfg: BscConfig, n: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n) uint8 error patterns; row r is frame lo + r.

    Row r equals `frame_rng(cfg.seed, lo + r).random(n) < cfg.rho`: one
    Philox generator is re-keyed per frame, with its counter and buffer
    reset as a fresh generator has them.
    """
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    key = np.zeros(2, dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key[0] = cfg.seed & _MASK64
    U = np.empty((hi - lo, n))
    for row, i in zip(U, range(lo, hi)):
        key[1] = i & _MASK64
        bitgen.state = state  # the setter copies the arrays
        gen.random(out=row)
    return (U < cfg.rho).view(np.uint8)


def sample_error_bits(cfg: BscConfig, n: int, stream_index: int) -> np.ndarray:
    return sample_errors(cfg, n, stream_index, stream_index + 1)[0]


def sample_error(cfg: BscConfig, n: int, stream_index: int) -> int:
    """Packed error pattern for one frame."""
    return bits_to_int(sample_error_bits(cfg, n, stream_index))
