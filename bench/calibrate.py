"""Correction for the speed drift of a shared machine.

On the shared host the reference figures come from, the speed of the same
code drifts by 30-60% between 15-second windows, far more than the
differences the benchmark is there to see.  A fixed kernel that does not
touch synq is timed a few times around the set-ups and before every
operation, outside the timed regions.  Half of its time is interpreter
work (integer arithmetic, dict stores, small numpy calls, like the
decoders and the training loops), half a float32 matrix product of the
size the failure enumeration multiplies (like `bf_decode_batch` and the
DQN).  The median
of its timings over a run says how fast the machine was during that run,
and the end-to-end times are reported at the reference speed:

    reported = measured * REFERENCE_S / median(kernel times)

A change to synq changes the measured times but not the kernel's.  It
narrows the run-to-run spread of the decode workloads about twofold and
does not help build-policy; bench/README.md ("Speed drift") gives the
paired runs behind this.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on a quiet run of the reference machine; it fixes the
# unit of the reported times.
REFERENCE_S = 0.005
SAMPLES = 3
_MASK = (1 << 64) - 1
_A = (np.arange(8192 * 155).reshape(8192, 155) % 7 == 0).astype(np.float32)
_B = (np.arange(155 * 93).reshape(155, 93) % 5 == 0).astype(np.float32)


def kernel() -> int:
    x, acc, table = 0x9E3779B97F4A7C15, 0, {}
    for i in range(5000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc ^= (x >> 11).bit_count()
        table[x & 1023] = i
    a = np.linspace(-1.0, 1.0, 155)
    for _ in range(80):
        acc += int(np.argsort(-a, kind="stable")[0]) + int(np.maximum(a, 0.0).argmax())
    acc += int(((_A @ _B).astype(np.int32) & 1).sum())
    return acc + len(table)


class SpeedProbe:
    """Kernel timings collected over a run."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> None:
        for _ in range(SAMPLES):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
