import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from synq.codes import (TANNER_SPEC, ParityCheckMatrix, QcLdpcSpec,
                        build_qc_ldpc, random_parity_check)


@pytest.fixture(scope="session")
def tanner():
    return build_qc_ldpc(TANNER_SPEC)


@pytest.fixture(scope="session")
def small_spec():
    return QcLdpcSpec(p=7, j=3, k_blocks=3, a=2, b=4)


@pytest.fixture(scope="session")
def small_qc(small_spec):
    return build_qc_ldpc(small_spec)


@pytest.fixture(scope="session")
def hamming():
    # columns are the binary expansions of 1..7, so the syndrome of a
    # single-bit error at position i is i+1 -- handy as an exact oracle
    bits = np.array(
        [[(c + 1) >> r & 1 for c in range(7)] for r in range(3)], dtype=np.uint8
    )
    return ParityCheckMatrix(bits)


def rng_for_tests(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([tag, 0xC0FFEE], np.uint64)))


#: random codes with n <= 24 and m <= 10: at w <= 3 many patterns share a
#: syndrome (m >= 4 keeps a 24-column draw without zero columns likely)
random_codes = st.builds(random_parity_check, st.integers(4, 24),
                         st.integers(4, 10), st.integers(0, 2**16))


def ball_reference(H, w):
    """(syndrome, weight, pattern) of every error of weight <= w, weight by
    weight and each weight in itertools.combinations order; the syndrome is
    the XOR of the columns at the pattern's support."""
    out = []
    for u in range(w + 1):
        for combo in itertools.combinations(range(H.n), u):
            s = x = 0
            for i in combo:
                s ^= H.cols_int[i]
                x |= 1 << i
            out.append((s, u, x))
    return out
