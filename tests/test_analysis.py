import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq import analysis
from synq.analysis import (WeightEnumerator, bdd_fer, bounded_sets,
                           classify_syndromes, combo_unrank_colex,
                           count_optimal_policies, enumerate_failures,
                           error_floor_estimate, feedback_guarantee,
                           greedy_ball_sweep, patterns_colex, syndrome_bounds,
                           write_enumeration_csv)
from synq.codes import (ParityCheckMatrix, ball_size, bits_to_int,
                        bits_to_ints, hamming_ball_syndromes, random_parity_check)
from synq.decoders import (BitFlipConfig, ZeroQ, bf_decode_batch,
                           bit_flipping_decode, greedy_decode)
from conftest import ball_reference, random_codes, rng_for_tests
from test_decoders import OneHotQ


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _bdd_direct(n, w, rho):
    # plain-float reference, no log-domain tricks
    return 1.0 - sum(
        math.comb(n, i) * rho**i * (1 - rho) ** (n - i) for i in range(w + 1)
    )


def test_bdd_fer_matches_direct_sum():
    for n, w, rho in [(7, 1, 0.1), (15, 2, 0.05), (155, 3, 0.02)]:
        assert bdd_fer(n, w, rho) == pytest.approx(_bdd_direct(n, w, rho), rel=1e-10)


def test_bdd_fer_stable_at_tiny_rho():
    # the leading term dominates: C(155,3) rho^3
    got = bdd_fer(155, 2, 1e-8)
    assert got == pytest.approx(math.comb(155, 3) * 1e-24, rel=1e-4)


def test_bdd_fer_edges():
    assert bdd_fer(10, 2, 0.0) == 0.0
    assert bdd_fer(10, 2, 1.0) == 1.0
    assert bdd_fer(10, 10, 0.3) == 0.0
    assert bdd_fer(10, 10, 1.0) == 0.0


def test_bdd_fer_monotone():
    grid = np.linspace(0.001, 0.4, 25)
    vals = [bdd_fer(63, 2, r) for r in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert bdd_fer(63, 3, 0.05) < bdd_fer(63, 2, 0.05)


def test_bdd_fer_validation():
    with pytest.raises(ValueError):
        bdd_fer(10, 11, 0.1)
    with pytest.raises(ValueError):
        bdd_fer(10, 2, 1.5)


def test_weight_enumerator_basics():
    E = WeightEnumerator(10, {5: 2, 3: 10, 7: 0})
    assert E.min_weight == 3 and E[3] == 10 and E[4] == 0
    assert E.polynomial_str() == "2 x^5 + 10 x^3"
    empty = WeightEnumerator(10)
    assert math.isinf(empty.min_weight)
    assert empty.polynomial_str() == "0"


@pytest.mark.parametrize("counts", [{0: 1}, {11: 1}, {3: -1}, {3: 121}])
def test_weight_enumerator_rejects_impossible_counts(counts):
    with pytest.raises(ValueError):
        WeightEnumerator(10, counts)
    WeightEnumerator(10, {1: 10, 3: 120, 10: 1})  # every bound itself is fine


def test_error_floor_estimate_by_hand():
    E = WeightEnumerator(10, {3: 10, 5: 2})
    rho = 0.01
    est = error_floor_estimate(E, rho)
    want_dom = 10 * rho**3 * (1 - rho) ** 7
    assert est.dominant == pytest.approx(want_dom, rel=1e-12)
    assert est.full == pytest.approx(want_dom + 2 * rho**5 * (1 - rho) ** 5, rel=1e-12)
    assert est.min_weight == 3 and est.slope == 3
    assert est.intercept == pytest.approx(1.0)


def test_error_floor_empty_enumerator():
    est = error_floor_estimate(WeightEnumerator(10), 0.01)
    assert est.full == 0.0 and est.dominant == 0.0
    assert math.isinf(est.min_weight) and est.intercept == -math.inf


def test_error_floor_validation():
    with pytest.raises(ValueError):
        error_floor_estimate(WeightEnumerator(5), 0.0)


def _binomial_sum_exact(n, counts, rho):
    r = Fraction(rho)
    return sum(c * r**u * (1 - r) ** (n - u) for u, c in counts.items())


def _within(got, exact):
    # relative error 1e-12, or an underflow to below 1e-300 on both sides
    return abs(got - exact) <= 1e-12 * exact + 1e-300


_RHOS = st.one_of(st.floats(1e-12, 0.999), st.sampled_from([1e-12, 0.003, 0.5, 0.999]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), data=st.data(), rho=_RHOS)
def test_bdd_fer_matches_exact_arithmetic(n, data, rho):
    w = data.draw(st.integers(0, n))
    exact = _binomial_sum_exact(n, {u: math.comb(n, u) for u in range(w + 1, n + 1)}, rho)
    got = bdd_fer(n, w, rho)
    assert _within(got, exact) and 0.0 <= got <= 1.0


@pytest.mark.parametrize("n, w, rho", [(10000, 150, 0.01), (20000, 40, 0.001),
                                       (5000, 60, 0.01), (20000, 10000, 0.5)])
def test_bdd_fer_keeps_relative_precision_at_large_n(n, w, rho):
    # exact rational arithmetic with rho = a / D, kept as integers over D^n:
    # the rate is (D^n - sum_{u<=w} C(n,u) a^u (D-a)^(n-u)) / D^n
    a, D = Fraction(rho).as_integer_ratio()
    lower, comb, tail = 0, math.comb(n, w), (D - a) ** (n - w)
    for u in range(w, -1, -1):
        lower += comb * a**u * tail
        comb = comb * u // (n - u + 1)  # C(n, u-1), exactly
        tail *= D - a
    num, den = D**n - lower, D**n
    got_num, got_den = bdd_fer(n, w, rho).as_integer_ratio()
    # |got - exact| <= 1e-13 * exact, cross-multiplied
    assert abs(got_num * den - num * got_den) * 10**13 <= num * got_den


def test_bdd_fer_near_one_does_not_exceed_it():
    # the rate is 1 minus the lower tail there, which is tiny
    assert bdd_fer(155, 0, 0.5) == 1.0 - 0.5**155
    assert bdd_fer(155, 1, 0.3) <= 1.0
    assert bdd_fer(10**5, 500, 0.01) == 1.0  # 1 - P(Binomial <= 500), mean 1000


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), data=st.data(), rho=_RHOS)
def test_error_floor_estimate_matches_exact_arithmetic(n, data, rho):
    weights = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=5, unique=True))
    counts = {u: data.draw(st.integers(0, math.comb(n, u))) for u in weights}
    est = error_floor_estimate(WeightEnumerator(n, counts), rho)
    assert _within(est.full, _binomial_sum_exact(n, counts, rho))
    present = {u: c for u, c in counts.items() if c}
    if present:
        u = min(present)
        assert _within(est.dominant, _binomial_sum_exact(n, {u: present[u]}, rho))


def test_error_floor_estimate_takes_counts_beyond_float_range():
    # C(2000, 500) ~ 1e486; the term is the Binomial(2000, 1/4) mode, about
    # 1 / sqrt(2 pi n rho (1 - rho))
    est = error_floor_estimate(WeightEnumerator(2000, {500: math.comb(2000, 500)}), 0.25)
    assert est.full == est.dominant == pytest.approx(0.0206, abs=5e-5)
    assert est.intercept == pytest.approx(math.log10(math.comb(2000, 500)))


def test_count_optimal_policies():
    assert count_optimal_policies(3, 0) == 1
    assert count_optimal_policies(3, 2) == 2**3
    assert count_optimal_policies(4, 3) == 2**6 * 3**4
    assert count_optimal_policies(10, 3) == 2**45 * 3**120
    with pytest.raises(ValueError):
        count_optimal_policies(3, 4)


def test_feedback_guarantee_theorem_form():
    assert feedback_guarantee(1, 4) == 2
    assert feedback_guarantee(2, 3) == 2
    assert feedback_guarantee(3, 3) == 2
    assert feedback_guarantee(None, 3) == math.inf
    assert feedback_guarantee(None, None, w_ball=3) == 3


def test_feedback_guarantee_reward_aware_form():
    assert feedback_guarantee(1, 4, variant="remark1", t=2) == 2
    assert feedback_guarantee(1, 2, variant="remark1", t=5) == 1
    assert feedback_guarantee(1, None, variant="remark1", t=5) == 5
    with pytest.raises(ValueError):
        feedback_guarantee(1, 4, variant="remark1")
    with pytest.raises(ValueError):
        feedback_guarantee(1, 4, variant="theorem3")


@pytest.mark.parametrize("args, kwargs", [
    ((0, 0), {}), ((0, 4), {}), ((3, 0), {}),
    ((3, 5), {"w_ball": -2}),
    ((None, 4), {"variant": "remark1", "t": -2}),
])
def test_feedback_guarantee_rejects_meaningless_inputs(args, kwargs):
    with pytest.raises(ValueError):
        feedback_guarantee(*args, **kwargs)
    assert feedback_guarantee(1, 1, w_ball=0) == 0
    assert feedback_guarantee(None, 1, variant="remark1", t=0) == 0


def test_syndrome_bounds(tanner):
    spec = tanner.qc
    total = 2**93 + 30 * 2**3 + 31 * 2 * 2**31
    assert total % 93 == 0
    full = total // 93
    lower, upper = syndrome_bounds(spec, tanner)
    assert upper == full
    assert lower == Fraction(full, 1 << (93 - 91))


# ---------------------------------------------------------------------------
# colex enumeration
# ---------------------------------------------------------------------------


def test_colex_unrank_first_ranks():
    want = [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3], [0, 4]]
    assert [combo_unrank_colex(r, 2) for r in range(7)] == want


def test_colex_unrank_covers_all_combos():
    combos = [tuple(combo_unrank_colex(r, 3)) for r in range(math.comb(8, 3))]
    assert len(set(combos)) == math.comb(8, 3)
    assert all(c[0] < c[1] < c[2] for c in combos)
    # colex order: the largest differing element decides
    assert combos == sorted(combos, key=lambda c: c[::-1])


def test_patterns_colex_slices_agree():
    full = patterns_colex(9, 3, 0, math.comb(9, 3))
    assert full.shape == (84, 9)
    assert (full.sum(axis=1) == 3).all()
    assert len({bits_to_int(row) for row in full}) == 84
    part = patterns_colex(9, 3, 20, 50)
    assert np.array_equal(part, full[20:50])


def _colex_walk(n, w, start, stop):
    """patterns_colex one row at a time: unrank start, then step each index
    list to its colex successor (bump the lowest index that can move, reset
    those below it to 0, 1, ...)."""
    X = np.zeros((stop - start, n), dtype=np.uint8)
    combo = combo_unrank_colex(start, w) if stop > start else []
    for row in range(stop - start):
        X[row, combo] = 1
        i = next((i for i in range(w) if i + 1 == w or combo[i] + 1 < combo[i + 1]), 0)
        combo[:i + 1] = [*range(i), combo[i] + 1] if w else []
    return X


def test_patterns_colex_matches_walk_on_small_codes():
    for n in range(13):
        for w in range(n + 1):
            total = math.comb(n, w)
            for start, stop in ((0, total), (total // 3, total - total // 4)):
                got = patterns_colex(n, w, start, stop)
                assert got.dtype == np.uint8
                assert np.array_equal(got, _colex_walk(n, w, start, stop)), (n, w)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_patterns_colex_matches_walk_across_chunks(w):
    # Tanner-length slices around the 8192-pattern chunk edges and the end
    total = math.comb(155, w)
    for edge in [e for e in (8192, 3 * 8192, 70 * 8192) if e < total] + [total]:
        start, stop = max(edge - 150, 0), min(edge + 150, total)
        assert np.array_equal(patterns_colex(155, w, start, stop),
                              _colex_walk(155, w, start, stop)), (w, edge)


def test_patterns_colex_ranks_past_int64():
    total = math.comb(155, 40)
    assert total > 2**64
    for start in (2**63 - 40, 2**64 - 7, total // 2, total - 60):
        stop = min(start + 60, total)
        got = patterns_colex(155, 40, start, stop)
        assert (got.sum(axis=1) == 40).all()
        assert np.array_equal(got, _colex_walk(155, 40, start, stop)), start


def test_patterns_colex_edges():
    assert patterns_colex(7, 0, 0, 1).tolist() == [[0] * 7]
    assert patterns_colex(7, 2, 5, 5).shape == (0, 7)
    with pytest.raises(ValueError):
        patterns_colex(7, 2, 0, 22)


# ---------------------------------------------------------------------------
# exhaustive failure enumeration
# ---------------------------------------------------------------------------


def _brute_counts(H, cfg, w):
    fail = misc = 0
    for row in patterns_colex(H.n, w, 0, math.comb(H.n, w)):
        e = bits_to_int(row)
        res = bit_flipping_decode(e, H, cfg)
        if not res.converged:
            fail += 1
        elif res.flips != e:
            misc += 1
    return fail, misc


def test_enumerate_failures_matches_scalar_loop(hamming):
    cfg = BitFlipConfig(tau=2, max_iter=30)
    enum = enumerate_failures(hamming, cfg, w_max=2, chunk=5)
    for w in (1, 2):
        fail, misc = _brute_counts(hamming, cfg, w)
        assert enum.failures[w] == fail and enum.miscorrections[w] == misc
        assert enum.totals[w] == math.comb(7, w)


def test_enumerate_failures_tanner_low_weights(tanner):
    enum = enumerate_failures(tanner, BitFlipConfig(tau=2, max_iter=30), w_max=2)
    assert enum.totals == {1: 155, 2: 11935}
    assert enum.failures.counts == {1: 0, 2: 620}
    assert enum.miscorrections.counts == {1: 0, 2: 0}


def test_enumerate_failures_budget():
    H = random_parity_check(40, 10, seed=1)
    with pytest.raises(ValueError):
        enumerate_failures(H, w_max=5, budget=1000)


@pytest.mark.parametrize("w_max", [-1, 8])
def test_enumerate_failures_radius_outside_the_code(hamming, tmp_path, w_max):
    ck = tmp_path / "ck.json"
    with pytest.raises(ValueError, match=f"w_max {w_max} outside 0..7"):
        enumerate_failures(hamming, w_max=w_max, checkpoint=str(ck))
    assert not ck.exists()  # rejected before any work


def test_enumeration_checkpoint_resume(hamming, tmp_path):
    import synq.decoders as dec

    cfg = BitFlipConfig(tau=2, max_iter=30)
    fresh = enumerate_failures(hamming, cfg, w_max=2)
    # hand-build a checkpoint that is 8 weight-2 patterns in
    X = patterns_colex(7, 2, 0, 8)
    flips, conv, _ = dec.bf_decode_batch(X, hamming, cfg)
    partial = {
        "params": {"code_hash": hamming.code_hash, "n": 7, "tau": 2,
                   "max_iter": 30, "w_max": 2},
        "weights": {"2": {"done": 8, "fail": int((~conv).sum()),
                          "misc": int((conv & (flips != X).any(axis=1)).sum())}},
    }
    ck = tmp_path / "enum.json"
    for workers in (1, 2):
        ck.write_text(json.dumps(partial))
        resumed = enumerate_failures(hamming, cfg, w_max=2, chunk=4,
                                     workers=workers, checkpoint=str(ck))
        assert resumed.failures.counts == fresh.failures.counts
        assert resumed.miscorrections.counts == fresh.miscorrections.counts
        done = json.loads(ck.read_text())
        assert done["weights"]["2"]["done"] == 21


def test_enumeration_checkpoint_param_mismatch(hamming, tmp_path):
    ck = tmp_path / "enum.json"
    ck.write_text(json.dumps({"params": {"w_max": 9}, "weights": {}}))
    with pytest.raises(ValueError):
        enumerate_failures(hamming, BitFlipConfig(), w_max=2, checkpoint=str(ck))


def _plain_sweep(H, cfg, w_max, chunk=1 << 16):
    """enumerate_failures without the orbit rule: decode every colex pattern
    of weight 1..w_max; (failures, miscorrections) by weight."""
    fails, miscs = {}, {}
    for w in range(1, w_max + 1):
        fails[w] = miscs[w] = 0
        total = math.comb(H.n, w)
        for start in range(0, total, chunk):
            X = patterns_colex(H.n, w, start, min(start + chunk, total))
            flips, conv, _ = bf_decode_batch(X, H, cfg)
            fails[w] += int((~conv).sum())
            miscs[w] += int((conv & (flips != X).any(axis=1)).sum())
    return fails, miscs


def _counts(enum):
    return enum.failures.counts, enum.miscorrections.counts


@pytest.mark.long
@pytest.mark.parametrize("tau", [1, 2])
def test_orbit_sweep_matches_plain_sweep_at_every_weight(small_qc, tau):
    # weights 7, 14 and 21 include orbits smaller than p = 7 (whole blocks)
    cfg = BitFlipConfig(tau=tau, max_iter=30)
    assert _counts(enumerate_failures(small_qc, cfg, w_max=21)) == \
        _plain_sweep(small_qc, cfg, 21)


@pytest.mark.parametrize("workers", [1, 2])
def test_orbit_sweep_chunks_cross_block_ranges(small_qc, workers):
    cfg = BitFlipConfig(tau=1, max_iter=30)
    enum = enumerate_failures(small_qc, cfg, w_max=4, chunk=5, workers=workers)
    assert _counts(enum) == _plain_sweep(small_qc, cfg, 4)
    assert enum.totals == {w: math.comb(21, w) for w in range(1, 5)}


def _circulant_code(p, j, k_blocks, seed):
    """A random (j x k_blocks)-block matrix of p x p circulants: invariant
    under the simultaneous cyclic shift of every block."""
    rng = rng_for_tests(seed)
    first = rng.integers(0, 2, size=(j, k_blocks, p), dtype=np.uint8)
    rows = [np.hstack([np.stack([np.roll(c, i) for i in range(p)]) for c in block_row])
            for block_row in first]
    # enumerate_failures reads only the circulant size from H.qc, so p need
    # not be a prime that QcLdpcSpec accepts
    return ParityCheckMatrix(np.vstack(rows), qc=SimpleNamespace(p=p))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**16),
       st.integers(1, 3), st.integers(1, 9))
def test_orbit_sweep_matches_plain_sweep_on_random_circulant_codes(p, j, k_blocks, seed,
                                                                   tau, chunk):
    H = _circulant_code(p, j, min(k_blocks, 12 // p), seed)
    cfg = BitFlipConfig(tau=tau, max_iter=30)
    enum = enumerate_failures(H, cfg, w_max=H.n, chunk=chunk)
    assert _counts(enum) == _plain_sweep(H, cfg, H.n)


@settings(max_examples=25, deadline=None)
@given(random_codes, st.integers(1, 3), st.integers(1, 40))
def test_plain_codes_sweep_every_pattern(H, tau, chunk):
    cfg = BitFlipConfig(tau=tau, max_iter=30)
    w_max = min(H.n, 3)
    enum = enumerate_failures(H, cfg, w_max=w_max, chunk=chunk)
    assert _counts(enum) == _plain_sweep(H, cfg, w_max)
    assert "shift_orbits" not in enum.params


def test_orbit_checkpoint_resume(small_qc, tmp_path, monkeypatch):
    import synq.analysis as an

    class Stop(Exception):
        pass

    cfg = BitFlipConfig(tau=1, max_iter=30)
    fresh = enumerate_failures(small_qc, cfg, w_max=3)
    real, calls = an._enum_chunk, []

    def stop_at_the_fourth_chunk(*args):
        if len(calls) == 3:
            raise Stop
        calls.append(args)
        return real(*args)

    ck = tmp_path / "enum.json"
    monkeypatch.setattr(an, "_enum_chunk", stop_at_the_fourth_chunk)
    with pytest.raises(Stop):
        enumerate_failures(small_qc, cfg, w_max=3, chunk=40, checkpoint=str(ck))
    monkeypatch.undo()
    half = json.loads(ck.read_text())
    # 3, 39 and 283 representatives of weight 1, 2, 3: one chunk each for
    # weights 1 and 2, then the first of weight 3
    assert half["params"]["shift_orbits"] == 7
    assert {w: rec["done"] for w, rec in half["weights"].items()} == \
        {"1": 3, "2": 39, "3": 40}
    for workers in (1, 2):
        ck.write_text(json.dumps(half))
        resumed = enumerate_failures(small_qc, cfg, w_max=3, chunk=40,
                                     workers=workers, checkpoint=str(ck))
        assert _counts(resumed) == _counts(fresh)
        assert json.loads(ck.read_text())["weights"]["3"]["done"] == 283


@pytest.mark.parametrize("done", [-1, 284, 10**6])
def test_checkpoint_progress_outside_the_sweep_is_refused(small_qc, tmp_path, done):
    # weight 3 has 283 representatives; progress past them must not resume
    # as a finished weight with no failures
    cfg = BitFlipConfig(tau=1, max_iter=30)
    ck = tmp_path / "enum.json"
    enumerate_failures(small_qc, cfg, w_max=3, checkpoint=str(ck))
    state = json.loads(ck.read_text())
    state["weights"]["3"] = {"done": done, "fail": 0, "misc": 0}
    ck.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="enum.json"):
        enumerate_failures(small_qc, cfg, w_max=3, checkpoint=str(ck))


def test_write_enumeration_csv(hamming, tmp_path):
    enum = enumerate_failures(hamming, BitFlipConfig(tau=2), w_max=2)
    out = tmp_path / "enum.csv"
    write_enumeration_csv(enum, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# bit-flipping tau=2 max_iter=30 n=7")
    assert lines[1] == "weight,patterns,failures,miscorrections"
    w, total, fail, misc = lines[2].split(",")
    assert (int(w), int(total)) == (1, 7)
    assert int(fail) == enum.failures[1] and int(misc) == enum.miscorrections[1]


# ---------------------------------------------------------------------------
# syndrome classification
# ---------------------------------------------------------------------------


def test_classify_hamming_by_hand(hamming):
    cls = classify_syndromes(hamming, BitFlipConfig(tau=2, max_iter=30))
    assert cls.leader_weight.max() == 1  # perfect code: every syndrome within 1
    correct, fail, misc = cls.status_sets()
    # weight-1 syndromes stall (no check pair agrees); the rest miscorrect
    assert correct == {0}
    assert fail == {1, 2, 4}
    assert misc == {3, 5, 6, 7}


def test_classify_leaders_are_minimal(hamming):
    cls = classify_syndromes(hamming)
    by_s = dict(zip(cls.syndromes.tolist(), cls.leader_weight.tolist()))
    assert by_s[0] == 0
    for s in range(1, 8):
        assert by_s[s] == 1  # every column of the [7,4] code is distinct


def _bfs_distances(H):
    """Reference BFS over the syndrome graph with plain dicts: the leader
    weight of every reachable syndrome."""
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for c in H.cols_int:
                t = s ^ c
                if t not in dist:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


def test_classify_random_code_against_bfs(hamming):
    H = random_parity_check(10, 4, seed=5)
    cls = classify_syndromes(H)
    dist = _bfs_distances(H)
    assert set(cls.syndromes.tolist()) == set(dist)
    for s, w in zip(cls.syndromes.tolist(), cls.leader_weight.tolist()):
        assert w == dist[s]


def test_classify_size_guards(tanner):
    with pytest.raises(ValueError):
        classify_syndromes(tanner)  # m = 93
    # leaders are 0/1 rows, so codes longer than 63 bits classify too
    H = random_parity_check(64, 10, seed=0)
    cls = classify_syndromes(H)
    assert dict(zip(cls.syndromes.tolist(), cls.leader_weight.tolist())) == _bfs_distances(H)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classification_agrees_with_bounded_sets(hamming, data):
    # two independent paths: BFS leaders rebuilt from their last bits, and
    # the ball walk's first least-weight patterns.  Bit flipping's flips
    # depend only on the syndrome, so both must put every syndrome in the
    # same region
    H = data.draw(st.just(hamming) | st.builds(
        random_parity_check, st.integers(2, 16), st.integers(1, 12), st.integers(0, 2**16)))
    cfg = BitFlipConfig(tau=data.draw(st.integers(1, 3)), max_iter=30)
    leaders = []

    def record(X, H, cfg):
        leaders.append(X.copy())
        return leader_status(X, H, cfg)

    leader_status = analysis._leader_status
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_leader_status", record)
        cls = classify_syndromes(H, cfg)
    X = np.concatenate(leaders)
    # each rebuilt leader has its syndrome and its weight
    assert bits_to_ints(H.syndrome_batch(X)) == cls.syndromes.tolist()
    assert X.sum(axis=1).tolist() == cls.leader_weight.tolist()
    sets = bounded_sets(H, int(cls.leader_weight.max()), cfg)
    assert sets["ball"] == set(cls.syndromes.tolist())
    assert (sets["bcorrect"], sets["bfail"], sets["bmisc"]) == cls.status_sets()


# ---------------------------------------------------------------------------
# ball-restricted decoder regions
# ---------------------------------------------------------------------------


def test_bounded_sets_hamming_w1(hamming):
    sets = bounded_sets(hamming, 1, BitFlipConfig(tau=2, max_iter=30))
    assert sets["ball"] == frozenset(range(8))
    assert sets["bcorrect"] == {0}
    assert sets["bfail"] == {1, 2, 4}
    assert sets["bmisc"] == {3, 5, 6, 7}


def test_bounded_sets_partition(small_qc):
    sets = bounded_sets(small_qc, 2, BitFlipConfig(tau=1, max_iter=30))
    assert sets["ball"] == sets["bcorrect"] | sets["bfail"] | sets["bmisc"]
    assert not (sets["bcorrect"] & sets["bfail"])
    assert not (sets["bcorrect"] & sets["bmisc"])
    assert not (sets["bfail"] & sets["bmisc"])


def test_bounded_sets_small_qc_tau1(small_qc):
    # at tau=1 the flooding decoder fails on every nonzero ball syndrome
    sets = bounded_sets(small_qc, 2, BitFlipConfig(tau=1, max_iter=30))
    assert len(sets["ball"]) == 232
    assert sets["bcorrect"] == {0}
    assert len(sets["bfail"]) == 231 and not sets["bmisc"]


def test_bounded_sets_budget(tanner):
    with pytest.raises(ValueError):
        bounded_sets(tanner, 3, budget=1000)
    for w in (-1, tanner.n + 1):
        with pytest.raises(ValueError):
            bounded_sets(tanner, w)


def test_bounded_sets_memory_is_bounded_by_the_slice(tanner):
    # the 12,091 weight-<=2 Tanner patterns are read Q_CHUNK rows at a time;
    # decoding all 12,091 leaders at once peaks at 22 MiB
    tracemalloc.start()
    try:
        sets = bounded_sets(tanner, 2, BitFlipConfig(tau=2, max_iter=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sets["ball"]) == 1 + 155 + math.comb(155, 2)
    assert peak < 8 * 2**20


def _bounded_sets_reference(H, w, cfg):
    """The regions by definition: each ball syndrome's first least-weight
    pattern, decoded by the scalar bit-flipping decoder."""
    reps = {}
    for s, u, x in ball_reference(H, w):
        reps.setdefault(s, (u, x))
    sets = {"ball": set(reps), "bcorrect": set(), "bfail": set(), "bmisc": set()}
    for s, (u, x) in reps.items():
        res = bit_flipping_decode(x, H, cfg)
        exact = res.flips.bit_count() == u
        sets["bfail" if not res.converged else "bcorrect" if exact else "bmisc"].add(s)
    return sets


def _greedy_sweep_reference(qsrc, H, w, L=10):
    out = {}
    for _, u, y in ball_reference(H, w):
        if u:
            res = greedy_decode(qsrc, y, H, max_steps=L)
            total, wrong = out.get(u, (0, 0))
            out[u] = (total + 1, wrong + (not res.converged or res.flips != y
                                          or res.steps != u))
    return out


class _HashedQ:
    """An arbitrary fixed policy: each syndrome hashes to a random table row."""

    def __init__(self, n):
        self.table = rng_for_tests(n).random((251, n))

    def q_values(self, s):
        return self.table[s % 251]

    def q_values_batch(self, states):
        return self.table[[s % 251 for s in states]]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ball_consumers_match_their_references(hamming, small_qc, data):
    H = data.draw(st.sampled_from([hamming, small_qc]) | random_codes)
    w = data.draw(st.integers(0, min(3, H.n)))
    for tau in (1, 2):
        cfg = BitFlipConfig(tau=tau, max_iter=30)
        assert bounded_sets(H, w, cfg) == _bounded_sets_reference(H, w, cfg)
    for q in (OneHotQ(H), _HashedQ(H.n)):
        assert greedy_ball_sweep(q, H, w) == _greedy_sweep_reference(q, H, w)


class _Unwalkable:
    """A length-n code whose columns must not be read."""

    def __init__(self, n):
        self.n = n

    @property
    def cols_int(self):
        raise AssertionError("the ball walk started")


@given(st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-3, n + 3))))
def test_ball_guards_raise_before_any_work(nw):
    n, w = nw
    H = _Unwalkable(n)
    # a radius outside [0, n] is refused even under a budget it would fit
    budget = ball_size(n, w) - 1 if 0 <= w <= n else 2**n
    for walk in (hamming_ball_syndromes,
                 lambda H, w, budget: bounded_sets(H, w, budget=budget),
                 lambda H, w, budget: greedy_ball_sweep(ZeroQ(n), H, w,
                                                        budget=budget)):
        with pytest.raises(ValueError):
            walk(H, w, budget)


# ---------------------------------------------------------------------------
# greedy ball sweeps
# ---------------------------------------------------------------------------


def test_greedy_sweep_ideal_policy(hamming):
    out = greedy_ball_sweep(OneHotQ(hamming), hamming, 2)
    assert out[1] == (7, 0)
    # weight-2 errors collapse onto the wrong weight-1 coset leader
    assert out[2] == (21, 21)


def test_greedy_sweep_zero_policy(hamming):
    out = greedy_ball_sweep(ZeroQ(7), hamming, 1)
    assert out[1] == (7, 6)  # only the bit-0 error decodes itself


def test_greedy_sweep_budget(tanner):
    with pytest.raises(ValueError):
        greedy_ball_sweep(ZeroQ(tanner.n), tanner, 4, budget=10_000)
    for w in (-1, tanner.n + 1):
        with pytest.raises(ValueError):
            greedy_ball_sweep(ZeroQ(tanner.n), tanner, w)
