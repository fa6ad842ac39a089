"""Monte Carlo frame/bit error-rate estimation over the binary symmetric
channel.

A decoder is any picklable object with `decode_batch(E) -> (flips,
converged, steps)` over a (B, n) uint8 error matrix, usually a
`decoders.Decoder`.  `GreedyDecoder` ... `AutomorphismDecoder` build one per
kind; greedy and feedback keep the default of at most 10 policy steps.
A `decoders.Decoder` decodes a frame as a function of its syndrome alone,
so `run_point` hands it a fresh `decoders.SyndromeMemo`, and each worker
its own copy: a syndrome is decoded once per point and worker (within
the memo's first `decoders.MEMO_CAP` nonzero rows), and no result
outlives the call.  Other decoders are called with the error matrix alone.

Frames are processed in fixed-size batches; the noise of frame i depends
only on (seed, i) (see `channel`), and a run stops after the first whole
batch at which the cumulative frame-error target is met (or at
max_frames).  Which frames get counted therefore depends only on the
configuration, never on worker count or timing, so serial and parallel
runs produce identical counts.  A batch is drawn and decoded in slices of at most `SLICE` frames,
so memory does not grow with the batch size.

A frame is in error when the decoder fails to converge or converges on a
flip set different from the injected error (miscorrection); bit errors
count the residual weight after applying the flip set.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from . import decoders as dec
# sample_error is unused here, but per-layer tracers wrap sim.sample_error
# by name, so the binding stays
from .channel import BscConfig, sample_error, sample_errors  # noqa: F401
from .codes import ParityCheckMatrix

SLICE = 1024  # frames drawn and decoded at once


@dataclass(frozen=True)
class SimConfig:
    rhos: tuple[float, ...] = ()
    max_frames: int = 100_000
    target_errors: int = 100
    seed: int = 0
    batch: int = 1000
    workers: int = 1

    def __post_init__(self):
        if self.max_frames < 1 or self.batch < 1 or self.target_errors < 1:
            raise ValueError("max_frames, batch and target_errors must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for rho in self.rhos:
            if not 0.0 <= rho <= 1.0:
                raise ValueError(f"crossover probability {rho} outside [0, 1]")


@dataclass(frozen=True)
class SimPoint:
    rho: float
    frames: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    ci_low: float
    ci_high: float


# ---------------------------------------------------------------------------
# decoders by name
# ---------------------------------------------------------------------------


def GreedyDecoder(qsrc, H: ParityCheckMatrix) -> dec.Decoder:
    return dec.Decoder("greedy", qsrc, H)


def BeamDecoder(qsrc, H: ParityCheckMatrix, beam=dec.BeamConfig()) -> dec.Decoder:
    return dec.Decoder("list", qsrc, H, beam)


def BfDecoder(H: ParityCheckMatrix, bf=dec.BitFlipConfig()) -> dec.Decoder:
    return dec.Decoder("bf", None, H, bf=bf)


def FeedbackDecoder(qsrc, H: ParityCheckMatrix, bf=dec.BitFlipConfig()) -> dec.Decoder:
    return dec.Decoder("feedback", qsrc, H, bf=bf)


def AutomorphismDecoder(qsrc, H: ParityCheckMatrix,
                        beam=dec.BeamConfig()) -> dec.Decoder:
    return dec.Decoder("auto-list", qsrc, H, beam)


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------

_TASK_FN = None  # fn(*shared, .) of the pool process, bound once by _bind


def _bind(fn, shared) -> None:
    global _TASK_FN
    _TASK_FN = partial(fn, *shared)


def _call(task):
    return _TASK_FN(task)


@contextmanager
def ordered_map(fn, shared: tuple, workers: int, chunksize: int = 1):
    """Yield a map of `fn(*shared, task)` over tasks, in task order.

    With one worker it runs in this process; otherwise on one process pool
    that receives `shared` once per worker.  Abandoning a map early cancels
    its queued tasks.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        yield partial(map, partial(fn, *shared))
        return
    with ProcessPoolExecutor(workers, initializer=_bind, initargs=(fn, shared)) as pool:
        yield partial(pool.map, _call, chunksize=chunksize)


def _run_range(decoder, n: int, bsc: BscConfig, memo,
               span: tuple[int, int]) -> tuple[int, int]:
    decode = decoder.decode_batch if memo is None else partial(decoder.decode_batch, memo=memo)
    fe = be = 0
    for lo in range(span[0], span[1], SLICE):
        E = sample_errors(bsc, n, lo, min(lo + SLICE, span[1]))
        flips, converged, _ = decode(E)
        wrong = flips != E
        fe += int(np.count_nonzero(~converged | wrong.any(axis=1)))
        be += int(np.count_nonzero(wrong))
    return fe, be


def _wilson_ci(errors: int, frames: int) -> tuple[float, float]:
    """95% Wilson score interval of the frame-error rate; at zero errors it
    is [0, z^2 / (frames + z^2)], not the Wald interval's [0, 0]."""
    z = 1.96
    z2 = z * z
    centre = (errors + z2 / 2) / (frames + z2)
    half = z * math.sqrt(errors * (frames - errors) / frames + z2 / 4) / (frames + z2)
    return max(0.0, centre - half), min(1.0, centre + half)


def run_point(decoder, n: int, rho: float, cfg: SimConfig) -> SimPoint:
    """Estimate FER/BER at one crossover probability.

    Stops at the first batch boundary where frame_errors >= target_errors,
    else at max_frames.  Identical results for any worker count.
    """
    bsc = BscConfig(rho, cfg.seed)
    spans = [
        (lo, min(lo + cfg.batch, cfg.max_frames))
        for lo in range(0, cfg.max_frames, cfg.batch)
    ]
    # a fresh memo per call, and one copy of it per worker
    memo = dec.SyndromeMemo() if isinstance(decoder, dec.Decoder) else None
    frames = fe = be = 0
    with ordered_map(_run_range, (decoder, n, bsc, memo), cfg.workers) as run:
        for (dfe, dbe), span in zip(run(spans), spans):
            frames += span[1] - span[0]
            fe += dfe
            be += dbe
            if fe >= cfg.target_errors:
                break  # dropping the map cancels the batches still queued
    fer = fe / frames
    ber = be / (frames * n)
    lo, hi = _wilson_ci(fe, frames)
    return SimPoint(rho, frames, fe, be, fer, ber, lo, hi)


def run_curve(decoder, n: int, cfg: SimConfig,
              csv_path=None, gnuplot: bool = False) -> list[SimPoint]:
    """run_point over cfg.rhos; optionally writes the table as it goes."""
    points = [run_point(decoder, n, rho, cfg) for rho in cfg.rhos]
    if csv_path is not None:
        write_curve(points, csv_path, gnuplot=gnuplot)
    return points


def write_curve(points: list[SimPoint], path, gnuplot: bool = False) -> None:
    """CSV (or with gnuplot=True, '#'-commented whitespace-separated) table."""
    sep = " " if gnuplot else ","
    lines = [("# " if gnuplot else "") + sep.join(f.name for f in fields(SimPoint))]
    lines += [sep.join(map(repr, astuple(pt))) for pt in points]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
