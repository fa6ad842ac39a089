import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.channel import BscConfig, sample_error, sample_errors
from synq.decoders import KINDS, BeamConfig, BitFlipConfig, DecodeResult, Decoder
from synq.neural import MlpNetwork
from synq.sim import (AutomorphismDecoder, BeamDecoder, BfDecoder,
                      FeedbackDecoder, GreedyDecoder, SimConfig, ordered_map,
                      run_curve, run_point, write_curve)
from test_decoders import OneHotQ, RandomQ


class OracleDecoder:
    """Returns the injected error itself; zero error rate by construction."""

    def __call__(self, e: int) -> DecodeResult:
        return DecodeResult(True, e, 0, 0)

    def decode_batch(self, E):
        return E.copy(), np.ones(len(E), dtype=bool), np.zeros(len(E), dtype=int)


class NullDecoder:
    """Never flips anything; frame errors exactly when the frame is noisy."""

    def __init__(self, H):
        self.H = H

    def __call__(self, e: int) -> DecodeResult:
        s = self.H.syndrome(e)
        return DecodeResult(s == 0, 0, s, 0)

    def decode_batch(self, E):
        converged = ~self.H.syndrome_batch(E).any(axis=1)
        return np.zeros_like(E), converged, np.zeros(len(E), dtype=int)


# ---------------------------------------------------------------------------
# configuration and decoders by name
# ---------------------------------------------------------------------------


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(max_frames=0)
    with pytest.raises(ValueError):
        SimConfig(workers=0)
    with pytest.raises(ValueError):
        SimConfig(rhos=(0.5, 1.2))


def test_adapters_wrap_their_decoders(hamming, tanner, small_qc):
    q = OneHotQ(hamming)
    assert GreedyDecoder(q, hamming)(1 << 3).flips == 1 << 3
    assert BeamDecoder(q, hamming)(1 << 3).flips == 1 << 3
    assert BfDecoder(tanner)(1 << 9).flips == 1 << 9
    assert FeedbackDecoder(q, hamming, BitFlipConfig(tau=3))(1 << 6).converged
    assert AutomorphismDecoder(OneHotQ(small_qc), small_qc)(1 << 9).flips == 1 << 9
    # greedy and feedback keep the default cap of 10 policy steps
    assert GreedyDecoder(q, hamming).beam.d_max == 10
    assert FeedbackDecoder(q, hamming).beam.d_max == 10
    assert OracleDecoder()(0b1011).flips == 0b1011
    null = NullDecoder(hamming)
    assert null(0).converged and not null(1).converged


# ---------------------------------------------------------------------------
# the worker map
# ---------------------------------------------------------------------------


def _affine(a, b, t):
    return a * t + b


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=10, deadline=None)
@given(shared=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       tasks=st.lists(st.integers(-1000, 1000), max_size=30),
       chunksize=st.integers(1, 4))
def test_ordered_map_keeps_task_order(workers, shared, tasks, chunksize):
    with ordered_map(_affine, shared, workers, chunksize) as run:
        assert list(run(tasks)) == [_affine(*shared, t) for t in tasks]
        assert list(run([])) == []


class CountingFailDecoder:
    """Fails every frame and appends one line per call to a log file."""

    def __init__(self, log):
        self.log = log

    def decode_batch(self, E):
        # a batch outlasts the parent's wake-up, so the count reflects the
        # cancellation rather than how fast the workers race ahead
        for _ in E:
            time.sleep(0.002)
            with open(self.log, "a") as fh:
                fh.write("x\n")
        return np.zeros_like(E), np.zeros(len(E), dtype=bool), np.zeros(len(E), dtype=int)


def test_parallel_early_stop_abandons_queued_batches(tmp_path):
    log = tmp_path / "calls.log"
    cfg = SimConfig(max_frames=1000, target_errors=1, batch=10, workers=2)
    pt = run_point(CountingFailDecoder(log), 7, 0.1, cfg)
    assert pt.frames == 10 and pt.frame_errors == 10
    assert len(log.read_text().splitlines()) < cfg.max_frames // 2


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------


def test_memory_does_not_grow_with_the_batch(tanner):
    # one unsliced float64 block of 100k Tanner frames would take 124 MB
    tracemalloc.start()
    try:
        pt = run_point(BfDecoder(tanner), 155, 0.0,
                       SimConfig(max_frames=100_000, batch=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pt.frames == 100_000 and pt.frame_errors == 0
    assert peak < 12 * 2**20


def test_beam_memory_does_not_grow_with_the_batch(tanner):
    # a beam of k = 5 holds 5,120 paths for a slice of 1,024 frames; their
    # h = 512 hidden layers alone, read at once, would take 21 MB
    net = MlpNetwork.init(tanner.m, 512, tanner.n, seed=0)
    tracemalloc.start()
    try:
        pt = run_point(BeamDecoder(net, tanner, BeamConfig(k=5)), tanner.n, 0.05,
                       SimConfig(max_frames=1024, target_errors=10**6, batch=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pt.frames == 1024
    assert peak < 24 * 2**20


@pytest.mark.parametrize("kind", ["list", "auto-list"])
def test_frame_results_do_not_depend_on_the_batch(small_qc, tanner, kind):
    # every frame's beam reads the same Q rows however many frames, and
    # shifts, share a call; so the batch size cannot change any count
    H = tanner if kind == "list" else small_qc
    decoder = Decoder(kind, MlpNetwork.init(H.m, 64, H.n, seed=3), H, BeamConfig(k=5))
    points = {run_point(decoder, H.n, 0.03, SimConfig(
        max_frames=300, target_errors=10**6, batch=batch, seed=2))
        for batch in (1, 7, 1000)}
    assert len(points) == 1 and points.pop().frame_errors > 0


def test_oracle_decoder_measures_zero(hamming):
    pt = run_point(OracleDecoder(), 7, 0.1, SimConfig(max_frames=500, batch=100))
    assert pt.frames == 500 and pt.frame_errors == 0 and pt.bit_errors == 0
    assert pt.fer == 0.0 and pt.ber == 0.0
    # the Wilson interval at zero errors: [0, z^2 / (N + z^2)], z = 1.96
    assert pt.ci_low == 0.0 and pt.ci_high == 1.96**2 / (500 + 1.96**2)


def test_null_decoder_counts_raw_channel_errors(hamming):
    cfg = SimConfig(max_frames=400, target_errors=10**9, batch=50, seed=3)
    pt = run_point(NullDecoder(hamming), 7, 0.1, cfg)
    # reference loop straight over the channel streams
    fe = be = 0
    bsc = BscConfig(0.1, 3)
    for idx in range(400):
        e = sample_error(bsc, 7, idx)
        fe += e != 0
        be += e.bit_count()
    assert pt.frames == 400
    assert pt.frame_errors == fe and pt.bit_errors == be
    assert pt.fer == fe / 400 and pt.ber == be / (400 * 7)


def test_early_stop_lands_on_batch_boundary(hamming):
    # ~1.4% frame-error rate against a target of 20: several batches needed
    cfg = SimConfig(max_frames=40_000, target_errors=20, batch=250, seed=1)
    pt = run_point(NullDecoder(hamming), 7, 0.002, cfg)
    assert pt.frames % 250 == 0 and 250 < pt.frames < 40_000
    assert pt.frame_errors >= 20
    # removing the last batch must drop below the target
    prev = run_point(
        NullDecoder(hamming), 7, 0.002,
        SimConfig(max_frames=pt.frames - 250, target_errors=10**9, batch=250, seed=1),
    )
    assert prev.frame_errors < 20


@pytest.mark.parametrize("kind", KINDS + ("null",))
def test_worker_count_does_not_change_counts(small_qc, kind):
    if kind == "null":
        decoder = NullDecoder(small_qc)
    else:
        decoder = Decoder(kind, RandomQ(small_qc.n, 4), small_qc)
    base = SimConfig(max_frames=2000, target_errors=20, batch=200, seed=7)
    par = SimConfig(max_frames=2000, target_errors=20, batch=200, seed=7, workers=2)
    a = run_point(decoder, small_qc.n, 0.04, base)
    b = run_point(decoder, small_qc.n, 0.04, par)
    assert a == b


def test_miscorrection_counts_as_frame_error(hamming):
    # ideal single-error policy: weight-2 frames converge on the wrong set
    cfg = SimConfig(max_frames=3000, target_errors=10**9, batch=500, seed=5)
    pt = run_point(GreedyDecoder(OneHotQ(hamming), hamming), 7, 0.08, cfg)
    fe = be = 0
    bsc = BscConfig(0.08, 5)
    for idx in range(3000):
        e = sample_error(bsc, 7, idx)
        if e.bit_count() >= 2:
            fe += 1  # converged != corrected: flips differ from e
    assert pt.frame_errors == fe
    assert pt.bit_errors > 0


def test_normal_ci_brackets_the_estimate(hamming):
    cfg = SimConfig(max_frames=2000, target_errors=10**9, batch=500, seed=9)
    pt = run_point(NullDecoder(hamming), 7, 0.1, cfg)
    assert 0.0 <= pt.ci_low <= pt.fer <= pt.ci_high <= 1.0
    # Wilson score interval: centre (p + z^2/2N) / (1 + z^2/N), half-width
    # z sqrt(p(1-p)/N + z^2/4N^2) / (1 + z^2/N)
    N, p, z = pt.frames, pt.fer, 1.96
    centre = (p + z**2 / (2 * N)) / (1 + z**2 / N)
    half = z * math.sqrt(p * (1 - p) / N + z**2 / (4 * N**2)) / (1 + z**2 / N)
    assert pt.ci_high - centre == pytest.approx(half, abs=1e-12)
    assert centre - pt.ci_low == pytest.approx(half, abs=1e-12)


def test_run_curve_and_csv(hamming, tmp_path):
    cfg = SimConfig(rhos=(0.02, 0.1), max_frames=300, target_errors=10**9,
                    batch=100, seed=2)
    out = tmp_path / "curve.csv"
    points = run_curve(NullDecoder(hamming), 7, cfg, csv_path=out)
    assert [pt.rho for pt in points] == [0.02, 0.1]
    assert points[0].fer < points[1].fer
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["rho", "frames", "frame_errors"]
    row = lines[1].split(",")
    assert float(row[0]) == 0.02 and int(row[1]) == 300
    # floats are written with repr so the table reloads exactly
    assert float(row[4]) == points[0].fer


def test_write_curve_gnuplot_style(hamming, tmp_path):
    cfg = SimConfig(rhos=(0.1,), max_frames=100, batch=100, seed=0)
    points = run_curve(NullDecoder(hamming), 7, cfg)
    out = tmp_path / "curve.dat"
    write_curve(points, out, gnuplot=True)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# rho frames")
    assert len(lines[1].split()) == 8


def test_run_point_decodes_each_syndrome_once_and_keeps_no_memo(small_qc):
    # the memo reaches across the slices of one point: its Q rows are those
    # of one call over all the frames; and a second point reads them again
    from test_decoders import CountingQ
    qsrc = CountingQ(small_qc.n, 4)
    decoder = Decoder("greedy", qsrc, small_qc)
    cfg = SimConfig(max_frames=400, target_errors=10**6, batch=50, seed=3)
    first = run_point(decoder, small_qc.n, 0.04, cfg)
    rows, qsrc.rows = qsrc.rows, 0
    assert run_point(decoder, small_qc.n, 0.04, cfg) == first
    assert qsrc.rows == rows > 0
    qsrc.rows = 0
    decoder.decode_batch(sample_errors(BscConfig(0.04, 3), small_qc.n, 0, 400))
    assert qsrc.rows == rows
