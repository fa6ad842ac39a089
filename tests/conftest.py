import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from synq.automorphism import shift_pair
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


def beam_reference(qsrc, s0, H, cfg):
    """The action-list beam one root at a time: (converged, flips, steps,
    score, actions).  The root expands to its top k actions; each deeper
    depth pools the top-k children that strictly improve their parent,
    sorts them stably on (-value, action), so equal keys keep their
    parent's rank, and keeps k; the first zero-syndrome path wins."""
    if s0 == 0:
        return True, 0, 0, 0.0, []
    q0 = qsrc.q_values(s0)
    beam = [(s0 ^ H.cols_int[a], [int(a)], float(q0[a]))
            for a in np.argsort(-q0, kind="stable")[: cfg.k]]
    depth = 1
    while True:
        hit = next((path for path in beam if path[0] == 0), None)
        if hit is not None:
            flips = 0
            for a in hit[1]:
                flips ^= 1 << a
            return True, flips, depth, hit[2], hit[1]
        if depth >= cfg.d_max or not beam:
            return False, 0, depth, None, None
        pool = []  # (-value, action, parent rank)
        for p, (tail, _, score) in enumerate(beam):
            q = qsrc.q_values(tail)
            for a in np.argsort(-q, kind="stable")[: cfg.k]:
                if float(q[a]) > score:
                    pool.append((-float(q[a]), int(a), p))
        pool.sort(key=lambda item: item[:2])
        beam = [(beam[p][0] ^ H.cols_int[a], beam[p][1] + [a], -neg)
                for neg, a, p in pool[: cfg.k]]
        depth += 1


def ensemble_reference(qsrc, y, H, cfg, shifts):
    """The automorphism ensemble one shift at a time, as beam_reference's
    tuple: every shifted word is beam-decoded, each converged flip set is
    pulled back and checked, and the least (weight, delta) wins; its
    actions are pulled back into y's coordinates.  A codeword converges
    with no flips; with no converged shift the result fails in 0 steps."""
    if H.syndrome(y) == 0:
        return True, 0, 0, 0.0, []
    best = None
    for delta in shifts:
        perm = shift_pair(H.qc, delta).var
        inverse = perm.inverse()
        conv, flips, steps, score, actions = beam_reference(
            qsrc, H.syndrome(perm.apply_int(y)), H, cfg)
        if not conv:
            continue
        flips = inverse.apply_int(flips)
        assert H.syndrome(y ^ flips) == 0
        if best is None or (flips.bit_count(), delta) < best[0]:
            best = ((flips.bit_count(), delta),
                    (True, flips, steps, score,
                     [int(inverse.mapping[a]) for a in actions]))
    return best[1] if best is not None else (False, 0, 0, None, None)


def bf_batch_reference(patterns, H, cfg):
    """Bit flipping over the rows of a (B, n) uint8 matrix, every iteration
    run: each pass flips every bit with >= tau unsatisfied checks in the rows
    that have a nonzero syndrome and a nonzero flip set, and stops when no
    row has both or after max_iter passes.  (flips, converged, iterations)
    as uint8, bool and int32 arrays."""
    X = np.ascontiguousarray(patterns, dtype=np.uint8)
    flips = np.zeros_like(X)
    iters = np.zeros(X.shape[0], dtype=np.int32)
    active = np.arange(X.shape[0])
    work = X.copy()
    S = H.syndrome_batch(work)
    for _ in range(cfg.max_iter):
        flip = (S.astype(np.float32) @ H._HT.T >= cfg.tau).astype(np.uint8)
        alive = S.any(axis=1) & flip.any(axis=1)
        if not alive.any():
            break
        active, flip = active[alive], flip[alive]
        work[active] ^= flip
        flips[active] ^= flip
        iters[active] += 1
        S = H.syndrome_batch(work[active])
    return flips, ~H.syndrome_batch(work).any(axis=1), iters
