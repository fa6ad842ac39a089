"""Capability gate: one test per advertised end-to-end guarantee.

Each test states a measurable claim about the package and verifies it at its
stated tolerance -- syndrome-space geometry, exhaustive training guarantees,
Monte Carlo agreement with closed forms, group-theoretic machinery, and
bit-for-bit reproducibility.  Tests marked `long` take minutes;
``pytest -m "not long"`` runs the quick tier only.

Numbered prefixes fix the report order; every claim is independent.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from synq import (TANNER_SPEC, BeamConfig, BitFlipConfig, DqnConfig,
                  MdpConfig, SyndromeMdp, SyndromeSets, action_list_decode,
                  bit_flipping_decode, feedback_decode, finite_horizon_q,
                  greedy_decode, hamming_ball_syndromes, int_to_bits,
                  train_dqn)
from synq.analysis import (bdd_fer, bounded_sets, count_optimal_policies,
                           enumerate_failures, feedback_guarantee,
                           greedy_ball_sweep)
from synq.automorphism import (GroupElement, burnside_count,
                               canonical_representative, element_pair,
                               verify_commutation)
from synq.cli import main
from synq.neural import dqn_loss, MlpNetwork
from synq.sim import BeamDecoder, GreedyDecoder, SimConfig, run_point
from synq.tabular import BallSampler, SetSampler, TrainConfig, train_q


# ---------------------------------------------------------------------------
# shared trained artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def w1_table(tanner):
    """Converged weight-1 tabular policy on the (155, 64) code."""
    ball = hamming_ball_syndromes(tanner, 1)
    env = SyndromeMdp(tanner, MdpConfig(variant="truncated", w=1),
                      SyndromeSets(ball=frozenset(ball)))
    return train_q(env, TrainConfig(episodes=60_000, seed=0),
                   BallSampler(tanner, 1))


# ---------------------------------------------------------------------------
# 01  syndrome-space geometry
# ---------------------------------------------------------------------------


def test_01_syndrome_ball_sizes(tanner):
    """|S(w)| of the (155, 64) code is 156 / 12,091 / 620,776 for w = 1..3."""
    assert len(hamming_ball_syndromes(tanner, 1)) == 156
    assert len(hamming_ball_syndromes(tanner, 2)) == 12_091
    assert len(hamming_ball_syndromes(tanner, 3)) == 620_776


# ---------------------------------------------------------------------------
# 02/03  exhaustive tabular guarantees
# ---------------------------------------------------------------------------


def test_02_tabular_w1_corrects_all_single_errors(tanner, w1_table):
    sweep = greedy_ball_sweep(w1_table, tanner, 1)
    assert sweep[1] == (155, 0)


@pytest.mark.long
def test_03_tabular_w2_corrects_all_double_errors(tanner):
    ball = frozenset(hamming_ball_syndromes(tanner, 2))
    env = SyndromeMdp(tanner, MdpConfig(variant="truncated", w=2),
                      SyndromeSets(ball=ball))
    Q = train_q(env, TrainConfig(episodes=5_000_000, seed=0),
                BallSampler(tanner, 2))
    sweep = greedy_ball_sweep(Q, tanner, 2)
    assert sweep[1] == (155, 0)
    assert sweep[2] == (11_935, 0)


# ---------------------------------------------------------------------------
# 04  Monte Carlo agreement with the bounded-distance closed form
# ---------------------------------------------------------------------------


def test_04_tabular_fer_matches_bdd_within_3_sigma(tanner, w1_table):
    """A converged weight-1 policy is a radius-1 bounded-distance decoder."""
    cfg = SimConfig(max_frames=10_000, target_errors=10_000, seed=1)
    for rho in (0.01, 0.02):
        pt = run_point(GreedyDecoder(w1_table, tanner), tanner.n, rho, cfg)
        ref = bdd_fer(tanner.n, 1, rho)
        sigma = math.sqrt(ref * (1.0 - ref) / pt.frames)
        assert abs(pt.fer - ref) <= 3.0 * sigma, (rho, pt.fer, ref)


# ---------------------------------------------------------------------------
# 05  bit-flipping failure enumerator
# ---------------------------------------------------------------------------


def test_05a_bf_enumerator_weight2_and_stability(tanner):
    """tau=2 bit flipping fails on exactly 620 double errors, never miscorrects,
    and the counts are identical across runs and worker counts."""
    cfg = BitFlipConfig(tau=2, max_iter=30)
    serial = enumerate_failures(tanner, cfg, w_max=2)
    assert serial.failures.counts == {1: 0, 2: 620}
    assert serial.miscorrections.counts == {1: 0, 2: 0}
    parallel = enumerate_failures(tanner, cfg, w_max=2, workers=2)
    assert parallel.failures.counts == serial.failures.counts
    assert parallel.miscorrections.counts == serial.miscorrections.counts


def test_05b_bf_enumerator_weight3(tanner):
    enum = enumerate_failures(tanner, BitFlipConfig(tau=2, max_iter=30), w_max=3)
    assert enum.failures[3] == 154_225


# ---------------------------------------------------------------------------
# 06  orbit counting against brute force
# ---------------------------------------------------------------------------


def _orbit_min_count(j: int, p: int, b: int) -> int:
    """Count orbit representatives of all 2^(j*p) colorings directly.

    For every group element, apply its bead permutation to every coloring at
    once (bit-sliced over a vector of all packed colorings) and keep the
    running orbit minimum; representatives are the fixed points of the map
    x -> min(orbit(x)).
    """
    nbits = j * p
    arr = np.arange(1 << nbits, dtype=np.uint32)
    low = arr.copy()
    for u in range(p):
        for s in range(j):
            mapping = GroupElement(u, s, p, j, b).check_perm().mapping
            out = np.zeros_like(arr)
            for i in range(nbits):
                out |= ((arr >> np.uint32(i)) & np.uint32(1)) << np.uint32(mapping[i])
            np.minimum(low, out, out=low)
    return int(np.count_nonzero(low == arr))


@pytest.mark.parametrize("j,p,b", [(1, 3, 1), (2, 3, 2), (3, 7, 2)])
def test_06_burnside_matches_brute_force(j, p, b):
    assert burnside_count(j, p, b) == _orbit_min_count(j, p, b)


# ---------------------------------------------------------------------------
# 07  syndrome/permutation commutation
# ---------------------------------------------------------------------------


def test_07_commutation_holds_for_random_pairs(tanner):
    """syndrome(var_perm(e)) == chk_perm(syndrome(e)), 10^4 random pairs."""
    rng = np.random.default_rng(2024)
    spec = TANNER_SPEC
    for _ in range(10_000):
        e = int.from_bytes(rng.bytes(20), "little") & ((1 << tanner.n) - 1)
        g = GroupElement(int(rng.integers(spec.p)), int(rng.integers(spec.j)),
                         spec.p, spec.j, spec.b)
        assert verify_commutation(e, element_pair(spec, g), tanner)


# ---------------------------------------------------------------------------
# 08  canonical representatives
# ---------------------------------------------------------------------------


def _exhaustive_orbit_min(v: np.ndarray, j: int, p: int, b: int) -> bytes:
    orbit = []
    for u in range(p):
        for s in range(j):
            perm = GroupElement(u, s, p, j, b).check_perm()
            w = np.empty_like(v)
            w[perm.mapping] = v
            orbit.append(w.tobytes())
    return min(orbit)


@pytest.mark.parametrize("j,p,b", [(1, 5, 1), (1, 7, 1), (2, 3, 2),
                                   (2, 5, 4), (3, 3, 1), (4, 3, 2)])
def test_08a_canonical_is_orbit_lexmin_exhaustive(j, p, b):
    """On every coloring of small bead spaces, the canonical form equals the
    lexicographic minimum of the full orbit."""
    for x in range(1 << (j * p)):
        v = int_to_bits(x, j * p)
        canon = canonical_representative(v, p, j, b)
        assert canon.tobytes() == _exhaustive_orbit_min(v, j, p, b)


def _check_canonical_invariants(trials: int) -> None:
    spec = TANNER_SPEC
    rng = np.random.default_rng(77)
    colorings = rng.integers(0, 2, size=(trials, spec.j * spec.p)).astype(np.uint8)
    us = rng.integers(0, spec.p, size=trials)
    ss = rng.integers(0, spec.j, size=trials)
    for v, u, s in zip(colorings, us, ss):
        canon = canonical_representative(v, spec.p, spec.j, spec.b)
        again = canonical_representative(canon, spec.p, spec.j, spec.b)
        assert np.array_equal(canon, again)
        perm = GroupElement(int(u), int(s), spec.p, spec.j, spec.b).check_perm()
        moved = np.empty_like(v)
        moved[perm.mapping] = v
        assert np.array_equal(
            canonical_representative(moved, spec.p, spec.j, spec.b), canon
        )


def test_08b_canonical_idempotent_and_orbit_invariant():
    _check_canonical_invariants(3_000)


@pytest.mark.long
def test_08c_canonical_idempotent_and_orbit_invariant_bulk():
    _check_canonical_invariants(100_000)


# ---------------------------------------------------------------------------
# 09  network gradients
# ---------------------------------------------------------------------------


def test_09_dqn_gradients_match_finite_differences():
    """Analytic TD-loss gradients vs central differences, random batches."""
    rng = np.random.default_rng(9)
    m, hidden, n, B = 10, 16, 12, 32
    for trial in range(3):
        net = MlpNetwork.init(m, hidden, n, seed=trial)
        target = MlpNetwork.init(m, hidden, n, seed=trial + 100)
        S = rng.integers(0, 2, size=(B, m)).astype(np.float64)
        S2 = rng.integers(0, 2, size=(B, m)).astype(np.float64)
        A = rng.integers(0, n, size=B)
        R = rng.normal(size=B)
        T = rng.random(B) < 0.5
        _, grads = dqn_loss(net, target, S, A, R, S2, T, 0.9)
        params = net.params()
        for name, g in grads.items():
            p = params[name]
            flat_idx = rng.choice(p.size, size=min(12, p.size), replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, p.shape)
                eps = 1e-6
                orig = p[idx]
                p[idx] = orig + eps
                up, _ = dqn_loss(net, target, S, A, R, S2, T, 0.9)
                p[idx] = orig - eps
                dn, _ = dqn_loss(net, target, S, A, R, S2, T, 0.9)
                p[idx] = orig
                fd = (up - dn) / (2 * eps)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                assert abs(fd - g[idx]) / denom < 1e-4


# ---------------------------------------------------------------------------
# 10  network training guarantee
# ---------------------------------------------------------------------------


@pytest.mark.long
def test_10_dqn_w1_corrects_all_single_errors(tanner):
    """A 512-hidden net trained on weight-1 syndromes (batch 128, lr 1e-4,
    epsilon 0.9 -> 0.05, <= 1e5 episodes) pins the right flip for all 155.

    Episode starts adapt to the policy: half target the syndromes the net
    still gets wrong (refreshed every 2,000 episodes), the rest stay uniform
    so solved states keep reinforcing.  With one-step episodes the only way
    to learn a state is to sample it, and uniform starts spread 1e5 samples
    too thin over 155 x 155 state-action pairs.
    """
    ball = hamming_ball_syndromes(tanner, 1)
    env = SyndromeMdp(tanner, MdpConfig(variant="truncated", w=1),
                      SyndromeSets(ball=frozenset(ball)))
    singles = [tanner.cols_int[i] for i in range(tanner.n)]
    focus: list[int] = []

    def sampler(rng: np.random.Generator) -> int:
        if focus and rng.random() < 0.5:
            return focus[int(rng.integers(len(focus)))]
        return singles[int(rng.integers(len(singles)))]

    def refocus(net, _ep):
        picks = np.argmax(net.q_values_batch(singles), axis=1)
        focus[:] = [singles[i] for i in range(tanner.n) if picks[i] != i]
        return not focus

    cfg = DqnConfig(episodes=100_000, hidden=512, batch=128, lr=1e-4,
                    eps_max=0.9, eps_min=0.05, buffer_capacity=5_000,
                    sync_every=1000, seed=0, check_every=2_000)
    net = train_dqn(env, cfg, sampler, stop_when=refocus)
    for i in range(tanner.n):
        res = greedy_decode(net, 1 << i, tanner)
        assert res.converged and res.flips == (1 << i), i


# ---------------------------------------------------------------------------
# 11  action lists beat greedy on a common channel sample
# ---------------------------------------------------------------------------


@pytest.mark.long
def test_11_action_list_improves_fer(tanner):
    """FER(k=5) < FER(k=1) at rho=0.02 on a shared 1e5-frame sample, with
    non-overlapping 95% intervals."""
    ball = frozenset(hamming_ball_syndromes(tanner, 3))
    env = SyndromeMdp(tanner, MdpConfig(variant="truncated", w=3),
                      SyndromeSets(ball=ball))
    cfg = DqnConfig(episodes=30_000, hidden=128, batch=128, lr=1e-4,
                    eps_max=0.9, eps_min=0.05, buffer_capacity=5_000,
                    sync_every=1000, seed=0)
    net = train_dqn(env, cfg, BallSampler(tanner, 3))
    sim = SimConfig(max_frames=100_000, target_errors=100_000, seed=3)
    narrow = run_point(BeamDecoder(net, tanner, BeamConfig(k=1)),
                       tanner.n, 0.02, sim)
    wide = run_point(BeamDecoder(net, tanner, BeamConfig(k=5)),
                     tanner.n, 0.02, sim)
    assert wide.fer < narrow.fer
    assert wide.ci_high < narrow.ci_low


# ---------------------------------------------------------------------------
# 12  k=1 action list retraces greedy exactly
# ---------------------------------------------------------------------------


def test_12_beam_k1_matches_greedy_flip_sequences(tanner, w1_table):
    rng = np.random.default_rng(12)
    agree = 0
    for _ in range(1_000):
        w = int(rng.integers(1, 4))
        e = 0
        for i in rng.choice(tanner.n, size=w, replace=False):
            e |= 1 << int(i)
        beam = action_list_decode(w1_table, tanner.syndrome(e), tanner,
                                  BeamConfig(k=1))
        if not beam.converged:
            continue
        trace: list = []
        g = greedy_decode(w1_table, e, tanner, trace=trace)
        assert g.converged
        assert [a for _, a, _ in trace] == beam.path.actions
        agree += 1
    assert agree > 0


# ---------------------------------------------------------------------------
# 13  feedback-decoder correction radius on a small code
# ---------------------------------------------------------------------------


def test_13_feedback_policy_meets_guaranteed_radius(small_qc):
    """With tau=1 bit flipping as the inner decoder, failures start at weight
    1 and miscorrections at weight 4, so the guaranteed radius is 2; the
    trained outer policy must correct every pattern of weight <= 2."""
    bf_cfg = BitFlipConfig(tau=1, max_iter=30)
    enum = enumerate_failures(small_qc, bf_cfg, w_max=4)
    min_fail = enum.failures.min_weight
    min_misc = enum.miscorrections.min_weight
    assert (min_fail, min_misc) == (1, 4)
    radius = feedback_guarantee(min_fail, min_misc)
    assert radius == 2

    sets = bounded_sets(small_qc, radius, bf_cfg)
    assert (len(sets["ball"]), len(sets["bfail"])) == (232, 231)
    env = SyndromeMdp(small_qc,
                      MdpConfig(variant="bounded_feedback_miscorrect", w=radius),
                      SyndromeSets(**sets))
    Q = train_q(env, TrainConfig(episodes=50_000, seed=0),
                SetSampler(sorted(sets["bfail"])))

    def phi(word):
        return bit_flipping_decode(word, small_qc, bf_cfg)

    for u in range(radius + 1):
        for combo in itertools.combinations(range(small_qc.n), u):
            e = 0
            for i in combo:
                e |= 1 << i
            res = feedback_decode(phi, Q, e, small_qc)
            assert res.converged and res.flips == e, bin(e)


# ---------------------------------------------------------------------------
# 14  closed-form calculators
# ---------------------------------------------------------------------------


def _bdd_fer_exact(n: int, w: int, rho: Fraction) -> Fraction:
    good = sum(
        math.comb(n, i) * rho**i * (1 - rho) ** (n - i) for i in range(w + 1)
    )
    return 1 - good


def test_14_closed_form_calculators():
    assert count_optimal_policies(4, 2) == 64
    assert abs(finite_horizon_q(5, r=1.0, p=0.1, gamma=0.9) - 0.24659) < 1e-12
    for n, w, rho in [(155, 1, Fraction(1, 100)), (155, 1, Fraction(1, 50)),
                      (155, 2, Fraction(1, 100)), (63, 3, Fraction(1, 20)),
                      (15, 1, Fraction(1, 10))]:
        exact = float(_bdd_fer_exact(n, w, rho))
        got = bdd_fer(n, w, float(rho))
        assert abs(got - exact) / exact < 1e-12, (n, w, rho)


# ---------------------------------------------------------------------------
# 15  byte-identical artifacts, serial vs parallel
# ---------------------------------------------------------------------------


SMALL = ["--qc", "7", "3", "3", "2", "4"]


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_15_byte_identical_outputs(tmp_path, capsys):
    # model training: same seed, same bytes
    for stem in ("a", "b"):
        main(["train-q", *SMALL, "--variant", "truncated", "--w", "1",
              "--episodes", "2000", "--seed", "0",
              "--out", str(tmp_path / f"{stem}.qtab")])
        main(["train-dqn", *SMALL, "--variant", "truncated", "--w", "1",
              "--episodes", "150", "--hidden", "16", "--seed", "0",
              "--out", str(tmp_path / f"{stem}.qnet")])
    assert _file_bytes(tmp_path / "a.qtab") == _file_bytes(tmp_path / "b.qtab")
    assert _file_bytes(tmp_path / "a.qnet") == _file_bytes(tmp_path / "b.qnet")

    # simulation: serial, parallel, and a serial rerun agree byte for byte
    for stem, workers in (("s1", "1"), ("p2", "2"), ("s2", "1")):
        main(["simulate", *SMALL, "--decoder", "bf", "--tau", "1",
              "--rhos", "0.02,0.05", "--max-frames", "2000",
              "--target-errors", "2000", "--seed", "0",
              "--workers", workers, "--out", str(tmp_path / f"{stem}.csv")])
    ref = _file_bytes(tmp_path / "s1.csv")
    assert _file_bytes(tmp_path / "p2.csv") == ref
    assert _file_bytes(tmp_path / "s2.csv") == ref

    # exhaustive enumeration: worker count cannot change the table
    for stem, workers in (("e1", "1"), ("e2", "2")):
        main(["enum-failures", *SMALL, "--tau", "1", "--w-max", "2",
              "--workers", workers, "--out", str(tmp_path / f"{stem}.csv")])
    assert _file_bytes(tmp_path / "e1.csv") == _file_bytes(tmp_path / "e2.csv")
    capsys.readouterr()
