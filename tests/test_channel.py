import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.channel import (BscConfig, frame_rng, sample_error,
                          sample_error_bits, sample_errors)
from synq.codes import bits_to_int


def test_same_key_same_noise():
    cfg = BscConfig(rho=0.1, seed=42)
    a = sample_error_bits(cfg, 200, stream_index=7)
    b = sample_error_bits(cfg, 200, stream_index=7)
    assert np.array_equal(a, b)


def test_streams_are_independent_of_order():
    # frame i depends only on (seed, i), never on which frames ran before
    cfg = BscConfig(rho=0.2, seed=1)
    direct = {i: sample_error(cfg, 64, i) for i in (9, 1, 5)}
    again = {i: sample_error(cfg, 64, i) for i in (1, 5, 9)}
    assert direct == again


def test_distinct_streams_differ():
    cfg = BscConfig(rho=0.5, seed=3)
    frames = {sample_error(cfg, 128, i) for i in range(32)}
    assert len(frames) == 32


def test_seed_changes_noise():
    a = sample_error(BscConfig(rho=0.5, seed=0), 128, 0)
    b = sample_error(BscConfig(rho=0.5, seed=1), 128, 0)
    assert a != b


def test_degenerate_rates():
    assert sample_error(BscConfig(rho=0.0, seed=0), 100, 3) == 0
    assert sample_error(BscConfig(rho=1.0, seed=0), 100, 3) == (1 << 100) - 1


def test_empirical_rate_near_rho():
    cfg = BscConfig(rho=0.03, seed=11)
    total = sum(
        int(sample_error_bits(cfg, 155, i).sum()) for i in range(2000)
    )
    rate = total / (155 * 2000)
    assert abs(rate - 0.03) < 0.003  # ~17 sigma; deterministic given the seed


def test_packed_matches_bits():
    cfg = BscConfig(rho=0.4, seed=5)
    for i in range(10):
        assert sample_error(cfg, 90, i) == bits_to_int(sample_error_bits(cfg, 90, i))


def test_rho_validation():
    with pytest.raises(ValueError):
        BscConfig(rho=-0.1)
    with pytest.raises(ValueError):
        BscConfig(rho=1.5)


def test_frame_rng_handles_wide_indices():
    # indices above 2^64 wrap into the key without error
    g = frame_rng(seed=0, stream_index=(1 << 70) + 3)
    assert g.random() == frame_rng(0, 3 | (1 << 70)).random()


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**66)),
       lo=st.one_of(st.integers(0, 2**20), st.integers(2**64 - 3, 2**65)),
       count=st.integers(0, 5), n=st.sampled_from([0, 1, 3, 155]),
       rho=st.sampled_from([0.0, 1e-300, 0.003, 0.5, 1.0]))
def test_sample_errors_rows_are_the_reference_streams(seed, lo, count, n, rho):
    cfg = BscConfig(rho, seed)
    E = sample_errors(cfg, n, lo, lo + count)
    assert E.shape == (count, n) and E.dtype == np.uint8
    for r in range(count):
        want = (frame_rng(seed, lo + r).random(n) < rho).astype(np.uint8)
        assert np.array_equal(E[r], want)
        assert np.array_equal(sample_error_bits(cfg, n, lo + r), want)

