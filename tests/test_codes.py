import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.codes import (TANNER_SPEC, ParityCheckMatrix, QcLdpcSpec, ball_size,
                        ball_syndrome_weights, bits_to_int, build_qc_ldpc,
                        gf2_rank, hamming_ball_syndromes, int_to_bits,
                        is_prime, load_alist, multiplicative_order,
                        random_parity_check, save_alist, support)
from conftest import rng_for_tests


# ---------------------------------------------------------------------------
# packed-bit helpers
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**200 - 1), st.integers(1, 220))
def test_bits_roundtrip(x, length):
    x &= (1 << length) - 1
    bits = int_to_bits(x, length)
    assert bits.dtype == np.uint8
    assert bits.shape == (length,)
    assert bits_to_int(bits) == x


def test_int_to_bits_is_lsb_first():
    assert int_to_bits(0b1101, 6).tolist() == [1, 0, 1, 1, 0, 0]


def test_support():
    assert support(0) == []
    assert support(0b10010001) == [0, 4, 7]


def ref_bits_to_int(bits) -> int:
    """Bit-by-bit packing, the reference for `bits_to_int`."""
    x = 0
    for i, b in enumerate(bits):
        if b:
            x |= 1 << i
    return x


def ref_support(x: int) -> list[int]:
    """Bit-by-bit scan, the reference for `support`."""
    idx = []
    i = 0
    while x:
        if x & 1:
            idx.append(i)
        x >>= 1
        i += 1
    return idx


# widths that are not multiples of 8, the two code sizes, and the empty vector
WIDTHS = st.one_of(st.sampled_from([0, 93, 155]), st.integers(0, 200))


@given(WIDTHS.flatmap(lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)))
def test_bits_to_int_matches_reference_loop(values):
    arr = np.array(values, dtype=np.int64)  # entries > 1 count as set bits
    want = ref_bits_to_int(values)
    for bits in (values, [v != 0 for v in values], arr, arr != 0,
                 arr.astype(np.uint8)):
        assert bits_to_int(bits) == want


@given(WIDTHS.flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_unpacking_matches_reference_loops(width_and_value):
    n, x = width_and_value
    assert int_to_bits(x, n).tolist() == [x >> i & 1 for i in range(n)]
    got = support(x)
    assert got == ref_support(x) and all(type(i) is int for i in got)


def test_gf2_rank():
    assert gf2_rank([1, 2, 4, 8]) == 4
    assert gf2_rank([0b110, 0b011, 0b101]) == 2  # third row = sum of first two
    assert gf2_rank([0, 0, 0]) == 0


# ---------------------------------------------------------------------------
# parity-check matrices
# ---------------------------------------------------------------------------


def test_matrix_views_match_bits(hamming):
    H = hamming
    for i in range(H.n):
        assert H.cols_int[i] == bits_to_int(H.bits[:, i])
    for r in range(H.m):
        assert H.rows_int[r] == bits_to_int(H.bits[r, :])


def test_hamming_rank_and_k(hamming):
    assert hamming.rank == 3
    assert hamming.k == 4


def test_syndrome_matches_matmul(hamming):
    rng = rng_for_tests(1)
    for _ in range(100):
        e = int(rng.integers(0, 1 << 7))
        expect = bits_to_int(hamming.bits @ int_to_bits(e, 7) % 2)
        assert hamming.syndrome(e) == expect


def test_syndrome_of_unit_error_is_the_column(hamming):
    for i in range(7):
        assert hamming.syndrome(1 << i) == i + 1  # columns are 1..7 in binary


@given(st.integers(0, 2**7 - 1), st.integers(0, 2**7 - 1))
def test_syndrome_linearity(x, y):
    bits = np.array([[(c + 1) >> r & 1 for c in range(7)] for r in range(3)],
                    dtype=np.uint8)
    H = ParityCheckMatrix(bits)
    assert H.syndrome(x ^ y) == H.syndrome(x) ^ H.syndrome(y)


def test_syndrome_batch_matches_loop(tanner):
    rng = rng_for_tests(2)
    patterns = (rng.random((50, tanner.n)) < 0.05).astype(np.uint8)
    batch = tanner.syndrome_batch(patterns)
    assert batch.shape == (50, tanner.m)
    for row, want in zip(batch, patterns):
        assert bits_to_int(row) == tanner.syndrome(bits_to_int(want))


def test_syndrome_batch_rows_wider_than_a_byte():
    # row weights above 255 cannot be cast from float32 to uint8 directly
    rng = rng_for_tests(3)
    H = ParityCheckMatrix((rng.random((4, 600)) < 0.7).astype(np.uint8))
    assert H.bits.sum(axis=1).min() > 255
    patterns = (rng.random((20, H.n)) < 0.6).astype(np.uint8)
    for row, want in zip(H.syndrome_batch(patterns), patterns):
        assert bits_to_int(row) == H.syndrome(bits_to_int(want))


def test_bits_are_read_only(hamming):
    with pytest.raises(ValueError):
        hamming.bits[0, 0] = 1


def test_code_hash_distinguishes_matrices(hamming, small_qc):
    assert hamming.code_hash != small_qc.code_hash
    clone = ParityCheckMatrix(hamming.bits.copy())
    assert clone.code_hash == hamming.code_hash
    assert clone == hamming


# ---------------------------------------------------------------------------
# quasi-cyclic construction
# ---------------------------------------------------------------------------


def test_tanner_dimensions(tanner):
    assert (tanner.m, tanner.n) == (93, 155)
    assert tanner.rank == 91
    assert tanner.k == 64


def test_tanner_regularity(tanner):
    assert set(tanner.bits.sum(axis=0).tolist()) == {3}
    assert set(tanner.bits.sum(axis=1).tolist()) == {5}


def test_tanner_block_structure(tanner):
    p, a, b = TANNER_SPEC.p, TANNER_SPEC.a, TANNER_SPEC.b
    rng = rng_for_tests(3)
    for _ in range(40):
        s = int(rng.integers(3))
        t = int(rng.integers(5))
        r = int(rng.integers(p))
        shift = pow(b, s, p) * pow(a, t, p) % p
        row = s * p + r
        col = t * p + (r + shift) % p
        assert tanner.bits[row, col] == 1


def test_qc_spec_validation():
    with pytest.raises(ValueError):
        QcLdpcSpec(p=6, j=3, k_blocks=5, a=2, b=5)  # p not prime
    with pytest.raises(ValueError):
        QcLdpcSpec(p=31, j=3, k_blocks=5, a=3, b=5)  # ord(3) = 30, not 5
    with pytest.raises(ValueError):
        QcLdpcSpec(p=31, j=4, k_blocks=5, a=2, b=5)  # ord(5) = 3, not 4
    with pytest.raises(ValueError):
        QcLdpcSpec(p=7, j=3, k_blocks=3, a=2, b=2)  # a == b


def test_prime_and_order_helpers():
    assert [x for x in range(2, 20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert multiplicative_order(2, 31) == 5
    assert multiplicative_order(5, 31) == 3
    assert multiplicative_order(2, 7) == 3


# ---------------------------------------------------------------------------
# Hamming balls of syndromes
# ---------------------------------------------------------------------------


def test_ball_size_formula():
    assert ball_size(155, 2) == 1 + 155 + math.comb(155, 2)
    assert ball_size(7, 7) == 128


def test_ball_weights_on_perfect_code(hamming):
    weights = ball_syndrome_weights(hamming, 1)
    # perfect code: the 7 unit errors hit all nonzero syndromes exactly once
    assert weights == {0: 0, **{i: 1 for i in range(1, 8)}}
    # radius 2 adds no new syndromes, and minima stay at the leader weight
    assert ball_syndrome_weights(hamming, 2) == weights


def test_tanner_ball_counts_small(tanner):
    assert len(hamming_ball_syndromes(tanner, 1)) == 156
    assert len(hamming_ball_syndromes(tanner, 2)) == 12091


def test_ball_budget_guard(tanner):
    with pytest.raises(ValueError):
        ball_syndrome_weights(tanner, 3, budget=1000)


# ---------------------------------------------------------------------------
# alist I/O
# ---------------------------------------------------------------------------


def test_alist_roundtrip(tmp_path, tanner):
    path = tmp_path / "tanner.alist"
    save_alist(tanner, path)
    assert load_alist(path) == tanner


def test_alist_roundtrip_irregular(tmp_path, hamming):
    path = tmp_path / "h.alist"
    save_alist(hamming, path)
    assert load_alist(path) == hamming


def test_alist_accepts_zero_padding(tmp_path, hamming):
    # many published alist files pad adjacency rows with zeros
    path = tmp_path / "padded.alist"
    save_alist(hamming, path)
    lines = path.read_text().splitlines()
    dmax_col, dmax_row = (int(v) for v in lines[1].split())
    for i in range(4, 4 + hamming.n + hamming.m):
        want = dmax_col if i < 4 + hamming.n else dmax_row
        entries = lines[i].split()
        lines[i] = " ".join(entries + ["0"] * (want - len(entries)))
    path.write_text("\n".join(lines) + "\n")
    assert load_alist(path) == hamming


def test_alist_rejects_inconsistent_adjacency(tmp_path, hamming):
    path = tmp_path / "bad.alist"
    save_alist(hamming, path)
    lines = path.read_text().splitlines()
    lines[4] = "2"  # column 0 actually attaches to check 1 only
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_alist(path)


def test_random_parity_check_deterministic():
    A = random_parity_check(n=12, m=6, seed=9)
    B = random_parity_check(n=12, m=6, seed=9)
    C = random_parity_check(n=12, m=6, seed=10)
    assert A == B
    assert A != C
    assert A.bits.shape == (6, 12)
