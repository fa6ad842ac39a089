import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synq import decoders
from synq.automorphism import _necklace_rows, group_table
from synq.channel import BscConfig, sample_errors
from synq.codes import bits_to_int, hamming_ball_syndromes, int_to_bits, random_parity_check
from synq.decoders import (KINDS, BeamConfig, BitFlipConfig, CandidatePath,
                           DecodeResult, Decoder, ZeroQ, action_list_decode,
                           automorphism_list_decode, bf_decode_batch,
                           bit_flipping_decode, feedback_decode, greedy_decode,
                           _top_k)
from synq.mdp import MdpConfig, SyndromeMdp, SyndromeSets
from synq.neural import MlpNetwork
from synq.tabular import BallSampler, QTable, TrainConfig, train_q
from conftest import (ball_reference, beam_reference, bf_batch_reference,
                      ensemble_reference, rng_for_tests)


class StackedQ:
    """q_values_batch as the stack of q_values rows, for the doubles below."""

    def q_values_batch(self, states):
        return np.array([self.q_values(s) for s in states]).reshape(len(states), self.n)


class OneHotQ(StackedQ):
    """Ideal single-error policy: spike at the bit whose column equals s."""

    def __init__(self, H):
        self.n = H.n
        self._lut = {c: i for i, c in enumerate(H.cols_int)}

    def q_values(self, s):
        q = np.zeros(self.n)
        a = self._lut.get(s)
        if a is not None:
            q[a] = 1.0
        return q


class FakeQ(StackedQ):
    """Q-source backed by an explicit {syndrome: values} table."""

    def __init__(self, n, table):
        self.n = n
        self.table = {s: np.asarray(v, dtype=float) for s, v in table.items()}

    def q_values(self, s):
        return self.table.get(s, np.zeros(self.n))


class RandomQ(StackedQ):
    """A random Q-table: the row of syndrome s is a fixed draw keyed (seed, s)."""

    def __init__(self, n, seed):
        self.n, self.seed = n, seed

    def q_values(self, s):
        return np.random.default_rng([self.seed, s]).standard_normal(self.n)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


def test_candidate_path_verify_and_flips(hamming):
    cols = hamming.cols_int
    s0 = 3
    path = CandidatePath([s0, s0 ^ cols[1], s0 ^ cols[1] ^ cols[4]], [1, 4], 0.7)
    assert path.verify(hamming)
    assert path.flips == (1 << 1) | (1 << 4)
    bad = CandidatePath([s0, 0], [1], 0.0)
    assert not bad.verify(hamming)


def test_candidate_path_flips_cancel():
    # flipping the same bit twice is a no-op on the flip set
    assert CandidatePath([1, 2, 1], [3, 3], 0.0).flips == 0


def test_decode_result_consistency_enforced():
    with pytest.raises(ValueError):
        DecodeResult(True, 0, 5, 1)
    with pytest.raises(ValueError):
        DecodeResult(False, 0, 0, 1)


def test_decode_result_status():
    assert DecodeResult(True, 0, 0, 0).status == "Converged"
    assert DecodeResult(False, 0, 9, 3).status == "Failed"


def test_zero_q():
    q = ZeroQ(5).q_values(17)
    assert q.shape == (5,) and not q.any()


def test_zero_q_batch():
    assert np.array_equal(ZeroQ(5).q_values_batch([17, 0, 17]), np.zeros((3, 5)))
    assert ZeroQ(5).q_values_batch([]).shape == (0, 5)


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------


def test_greedy_zero_syndrome_is_a_no_op(hamming):
    # 0b111 is a codeword: columns 1, 2, 3 XOR to zero
    for y in (0, 0b111):
        res = greedy_decode(ZeroQ(7), y, hamming)
        assert res.converged and res.steps == 0 and res.flips == 0


def test_greedy_corrects_singles_with_ideal_policy(hamming):
    qsrc = OneHotQ(hamming)
    for i in range(7):
        res = greedy_decode(qsrc, 1 << i, hamming)
        assert res.converged and res.steps == 1 and res.flips == 1 << i


def test_greedy_trace(hamming):
    trace = []
    greedy_decode(OneHotQ(hamming), 1 << 4, hamming, trace=trace)
    assert trace == [(5, 4, 1.0)]


def test_greedy_step_cap(hamming):
    # all-zero values keep flipping bit 0, which never clears syndrome 2
    res = greedy_decode(ZeroQ(7), 1 << 1, hamming)
    assert not res.converged and res.steps == 10
    assert res.flips == 0  # ten flips of the same bit cancel out
    res = greedy_decode(ZeroQ(7), 1 << 1, hamming, max_steps=3)
    assert not res.converged and res.steps == 3 and res.flips == 1


def test_greedy_weight2_lands_on_the_weight1_coset_leader(hamming):
    # syndrome of {0,1} equals column 2, so the ideal policy miscorrects
    # to the nearer codeword -- still a valid zero-syndrome flip set
    res = greedy_decode(OneHotQ(hamming), 0b11, hamming)
    assert res.converged and res.flips == 0b100
    assert hamming.syndrome(0b11 ^ res.flips) == 0


# ---------------------------------------------------------------------------
# action-list decoding
# ---------------------------------------------------------------------------


def test_beam_zero_syndrome_immediate(hamming):
    res = action_list_decode(ZeroQ(7), 0, hamming)
    assert res.converged and res.steps == 0 and res.flips == 0
    assert res.path.states == [0] and res.score == 0.0


def test_beam_single_step(hamming):
    res = action_list_decode(OneHotQ(hamming), 5, hamming)
    assert res.converged and res.steps == 1 and res.flips == 1 << 4
    assert res.score == 1.0 and res.path.verify(hamming)


def test_beam_root_expansion_ignores_score_sign(hamming):
    # the root is expanded to its top-k actions even at negative values
    q = np.full(7, -1.0)
    q[2] = -0.5  # column 3 clears syndrome 3
    res = action_list_decode(FakeQ(7, {3: q}), 3, hamming, BeamConfig(k=2, d_max=4))
    assert res.converged and res.flips == 0b100 and res.score == -0.5


def test_beam_requires_strict_improvement(hamming):
    # child values never exceed the root score, so the beam dies out
    q = np.zeros(7)
    q[5] = 0.9  # 3 ^ col(5) = 5, not a solution
    res = action_list_decode(FakeQ(7, {3: q}), 3, hamming, BeamConfig(k=1, d_max=5))
    assert not res.converged and res.flips == 0 and res.final_syndrome == 3


def test_beam_width_two_recovers_greedy_miss(hamming):
    table = {3: np.zeros(7)}
    table[3][5] = 0.9  # best-scoring action is a dead end
    table[3][2] = 0.8  # runner-up clears the syndrome
    narrow = action_list_decode(FakeQ(7, table), 3, hamming, BeamConfig(k=1))
    wide = action_list_decode(FakeQ(7, table), 3, hamming, BeamConfig(k=2))
    assert not narrow.converged
    assert wide.converged and wide.flips == 0b100 and wide.score == 0.8


def test_beam_root_ties_resolve_to_low_actions(hamming):
    # all values equal: stable order tries bit 0 first, which fixes s0=1
    res = action_list_decode(ZeroQ(7), 1, hamming, BeamConfig(k=3))
    assert res.converged and res.flips == 1


@pytest.mark.parametrize("from_tail3, d_max, actions", [
    ({2: 0.9}, 2, [4, 1]),          # to 0
    ({0: 0.9, 1: 0.9}, 3, [3, 1, 0]),  # to 2 and 1
])
def test_beam_ties_below_the_root(hamming, from_tail3, d_max, actions):
    # the root ranks paths [3] (tail 3) and [4] (tail 2), and every child
    # value at depth 2 is 0.9.  First case: [3, 2] and [4, 1] both reach
    # zero, and the lower action wins over the better-ranked parent.  Second
    # case: [3, 0], [3, 1] and [4, 1] compete for k = 2 slots; action 1 ties,
    # so the better-ranked parent keeps [3, 1], [4, 1] is cut, and [3, 1, 0]
    # converges one depth later
    table = {s: np.zeros(7) for s in (7, 3, 2, 1)}
    table[7][3], table[7][4] = 0.5, 0.4
    table[2][1] = 0.9   # 2 ^ col(1) = 0
    table[1][0] = 1.0   # 1 ^ col(0) = 0
    for a, v in from_tail3.items():
        table[3][a] = v
    res = action_list_decode(FakeQ(7, table), 7, hamming, BeamConfig(k=2, d_max=d_max))
    assert res.converged and res.path.actions == actions and res.path.verify(hamming)
    assert res.steps == len(actions)


#: few distinct values, so that rows tie heavily, -0.0 and 0.0 among them
TIED = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0])


@settings(max_examples=150, deadline=None)
@given(B=st.sampled_from([0, 1, 2, 7]), n=st.sampled_from([1, 2, 5, 12, 155]),
       dtype=st.sampled_from([np.float32, np.float64]), equal_rows=st.booleans(),
       data=st.data())
def test_top_k_is_the_stable_argsort_prefix(B, n, dtype, equal_rows, data):
    elements = st.one_of(TIED, st.floats(-1e6, 1e6, width=32))
    q = data.draw(hnp.arrays(dtype, (B, n), elements=elements))
    if equal_rows:
        q[:] = q[:, :1]
    source = q.copy()
    for k in (1, 2, 5, n, n + 45):
        want = np.argsort(-source, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(_top_k(q, k), want)
        # the Q-source's rows are left as they were, signs of zero included
        assert np.array_equal(q, source) and (np.signbit(q) == np.signbit(source)).all()


def test_beam_depth_cap(hamming):
    # strictly increasing scores along a chain that never reaches zero
    table = {
        1: np.zeros(7), 3: np.zeros(7), 7: np.zeros(7),
    }
    table[1][1] = 0.1   # 1 ^ col(1) = 3
    table[3][3] = 0.2   # 3 ^ col(3) = 7
    table[7][1] = 0.3   # 7 ^ col(1) = 5, then default zeros end the walk
    res = action_list_decode(FakeQ(7, table), 1, hamming, BeamConfig(k=1, d_max=3))
    assert not res.converged and res.steps == 3 and res.final_syndrome == 1


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(k=0)
    with pytest.raises(ValueError):
        BeamConfig(d_max=0)


def test_beam_outputs_are_internally_consistent(hamming):
    # random tables: any convergence must carry a verifiable path
    rng = rng_for_tests(20)
    for trial in range(60):
        table = {s: rng.normal(size=7) for s in range(1, 8)}
        s0 = int(rng.integers(1, 8))
        res = action_list_decode(FakeQ(7, table), s0, hamming, BeamConfig(k=2, d_max=6))
        if res.converged:
            assert res.final_syndrome == 0
            assert res.path.verify(hamming) and res.path.states[0] == s0
            assert res.steps == len(res.path.actions)
            assert hamming.syndrome(res.flips) == s0
        else:
            assert res.flips == 0 and res.final_syndrome == s0


# ---------------------------------------------------------------------------
# parallel bit flipping
# ---------------------------------------------------------------------------


def test_bitflip_zero_syndrome(tanner):
    res = bit_flipping_decode(0, tanner)
    assert res.converged and res.steps == 0 and res.flips == 0


def test_bitflip_corrects_every_single_error(tanner):
    for i in range(tanner.n):
        res = bit_flipping_decode(1 << i, tanner)
        assert res.converged and res.flips == 1 << i, f"bit {i}"


def test_bitflip_one_iteration_by_hand(hamming):
    # s = 0b111: columns 3, 5, 6, 7 share >= 2 set bits with s, and the
    # four flips XOR to a zero-syndrome set in a single iteration
    res = bit_flipping_decode(1 << 6, hamming, BitFlipConfig(tau=2))
    assert res.converged and res.steps == 1 and res.flips == 0b1110100
    assert hamming.syndrome((1 << 6) ^ res.flips) == 0


def test_bitflip_fixed_point(hamming):
    # no column has four rows, so tau=4 stalls immediately
    res = bit_flipping_decode(1 << 2, hamming, BitFlipConfig(tau=4))
    assert not res.converged and res.steps == 0 and res.flips == 0
    assert res.final_syndrome == 3


def test_bitflip_config_validation():
    with pytest.raises(ValueError):
        BitFlipConfig(tau=0)
    with pytest.raises(ValueError):
        BitFlipConfig(max_iter=0)


def test_bf_batch_matches_scalar(tanner):
    rng = rng_for_tests(21)
    patterns = (rng.random((100, tanner.n)) < 0.02).astype(np.uint8)
    flips, converged, iters = bf_decode_batch(patterns, tanner)
    for b in range(100):
        ref = bit_flipping_decode(bits_to_int(patterns[b]), tanner)
        assert bits_to_int(flips[b]) == ref.flips
        assert bool(converged[b]) == ref.converged
        assert int(iters[b]) == ref.steps


#: weight-3 Tanner errors on which bit flipping (tau 2) is trapped: 2-cycles
#: first revisiting a word after 0, 1, 2, 3, 4, 5 and 15 iterations, and
#: 4-cycles after 2, 3 and 4
TRAPPED = [(0, 2, 12), (0, 1, 2), (0, 2, 5), (0, 1, 3), (0, 3, 10), (2, 5, 31),
           (0, 2, 10), (0, 10, 12), (0, 7, 11), (0, 2, 4)]


@settings(max_examples=30, deadline=None)
@given(trapped=st.lists(st.sampled_from(TRAPPED), max_size=len(TRAPPED)),
       rows=st.integers(0, 24), rho=st.floats(0.0, 0.1), seed=st.integers(0, 2**16),
       tau=st.integers(1, 3), max_iter=st.sampled_from((1, 2, 5, 9, 17, 30, 31, 40)))
@example(trapped=TRAPPED, rows=0, rho=0.0, seed=0, tau=2, max_iter=17)
@example(trapped=TRAPPED, rows=8, rho=0.05, seed=1, tau=2, max_iter=40)
@example(trapped=TRAPPED[-1:], rows=0, rho=0.0, seed=0, tau=2, max_iter=9)
@example(trapped=[], rows=0, rho=0.0, seed=0, tau=2, max_iter=30)
def test_bf_batch_cycle_fast_forward(tanner, trapped, rows, rho, seed, tau, max_iter):
    # rows that cycle finish early; every output must still be what the
    # all-iterations batch loop and the scalar decoder give
    X = np.zeros((len(trapped), tanner.n), dtype=np.uint8)
    for b, support in enumerate(trapped):
        X[b, list(support)] = 1
    X = np.concatenate([X, (rng_for_tests(seed).random((rows, tanner.n)) < rho)
                        .astype(np.uint8)])
    cfg = BitFlipConfig(tau, max_iter)
    got = bf_decode_batch(X, tanner, cfg)
    for g, want in zip(got, bf_batch_reference(X, tanner, cfg)):
        assert g.dtype == want.dtype and np.array_equal(g, want)
    for b, row in enumerate(X):
        ref = bit_flipping_decode(bits_to_int(row), tanner, cfg)
        assert (bits_to_int(got[0][b]), bool(got[1][b]), int(got[2][b])) == (
            ref.flips, ref.converged, ref.steps)


def test_bf_batch_shape_validation(tanner):
    with pytest.raises(ValueError):
        bf_decode_batch(np.zeros((4, tanner.n + 1), dtype=np.uint8), tanner)
    with pytest.raises(ValueError):
        bf_decode_batch(np.zeros(tanner.n, dtype=np.uint8), tanner)


# ---------------------------------------------------------------------------
# feedback decoding
# ---------------------------------------------------------------------------


def _always_fail(H):
    return lambda x: DecodeResult(False, 0, H.syndrome(x), 1)


def test_feedback_inner_converges_first_try(tanner):
    phi = lambda x: bit_flipping_decode(x, tanner)
    res = feedback_decode(phi, ZeroQ(tanner.n), 1 << 40, tanner)
    assert res.converged and res.flips == 1 << 40 and res.steps == 1


def test_feedback_policy_rescue(hamming):
    trace = []
    res = feedback_decode(
        _always_fail(hamming), OneHotQ(hamming), 1 << 4, hamming, trace=trace
    )
    assert res.converged and res.flips == 1 << 4 and res.steps == 1
    assert trace == [(5, 4, 1.0)]


def test_feedback_combines_policy_and_inner_flips(hamming):
    # tau=3 only fires on syndrome 0b111; steer syndrome 1 there via bit 5
    phi = lambda x: bit_flipping_decode(x, hamming, BitFlipConfig(tau=3))
    policy = FakeQ(7, {1: np.eye(7)[5]})
    res = feedback_decode(phi, policy, 1, hamming)
    assert res.converged and res.steps == 2
    assert res.flips == (1 << 5) | (1 << 6)
    assert hamming.syndrome(1 ^ res.flips) == 0


def test_feedback_batch_feeds_the_policy_flips_to_the_inner_decoder(hamming):
    # the case above through decode_batch: pass 2 must run bf on y ^ bit 5
    policy = FakeQ(7, {1: np.eye(7)[5]})
    decoder = Decoder("feedback", policy, hamming, bf=BitFlipConfig(tau=3))
    flips, converged, steps = decoder.decode_batch(np.eye(7, dtype=np.uint8)[[0, 0]])
    assert [bits_to_int(row) for row in flips] == [(1 << 5) | (1 << 6)] * 2
    assert converged.all() and steps.tolist() == [2, 2]


def test_feedback_outer_cap(hamming):
    res = feedback_decode(
        _always_fail(hamming), ZeroQ(7), 1 << 1, hamming, max_outer=4
    )
    assert not res.converged and res.steps == 4
    assert res.flips == 0 and res.final_syndrome == 2


# ---------------------------------------------------------------------------
# automorphism ensemble
# ---------------------------------------------------------------------------


def test_automorphism_requires_qc(hamming):
    H = random_parity_check(12, 6, seed=3)
    with pytest.raises(ValueError):
        automorphism_list_decode(ZeroQ(H.n), 1, H)


def test_automorphism_corrects_singles(small_qc):
    assert len(set(small_qc.cols_int)) == small_qc.n  # columns are distinct
    qsrc = OneHotQ(small_qc)
    for i in (0, 6, 7, 13, 20):
        res = automorphism_list_decode(qsrc, 1 << i, small_qc)
        assert res.converged and res.flips == 1 << i


def test_automorphism_shift_subset(small_qc):
    # a single shift still pulls the correction back to the original bit
    res = automorphism_list_decode(OneHotQ(small_qc), 1 << 9, small_qc, shifts=[2])
    assert res.converged and res.flips == 1 << 9
    # a codeword decodes to no flips whatever the shift set, even none
    res = automorphism_list_decode(ZeroQ(small_qc.n), 0, small_qc, shifts=())
    assert res.converged and res.flips == 0


def test_automorphism_path_is_in_the_received_words_coordinates(small_qc):
    # OneHotQ converges in two steps on many weight-2 errors under shift 3;
    # the returned path must walk y's syndromes, not the shifted word's
    qsrc = OneHotQ(small_qc)
    converged = 0
    for i in range(small_qc.n):
        for j in range(i):
            y = 1 << i | 1 << j
            res = automorphism_list_decode(qsrc, y, small_qc, shifts=[3])
            if res.converged:
                converged += 1
                assert res.path.verify(small_qc) and res.path.states[-1] == 0
                assert res.path.states[0] == small_qc.syndrome(y)
                assert res.path.flips == res.flips and res.steps == 2
    assert converged > 0
    res = automorphism_list_decode(qsrc, 1 << 9, small_qc, shifts=[2])
    assert res.path.actions == [9] and res.path.states[0] == small_qc.syndrome(1 << 9)


def test_automorphism_reports_failure(small_qc):
    # zero table: the identity-shift beam expands actions 0..4 and dies at
    # depth 1, so a bit whose column is outside that set cannot converge
    qsrc = ZeroQ(small_qc.n)
    cols = small_qc.cols_int
    i = next(i for i in range(small_qc.n) if cols[i] not in cols[:5])
    res = automorphism_list_decode(qsrc, 1 << i, small_qc, shifts=[0])
    assert not res.converged
    assert res.flips == 0 and res.final_syndrome == small_qc.syndrome(1 << i)


def test_automorphism_prefers_light_flip_sets(small_qc):
    # ideal policy: every shift converges with the same weight-1 set
    qsrc = OneHotQ(small_qc)
    e = 1 << 11
    res = automorphism_list_decode(qsrc, e, small_qc)
    assert res.converged and res.flips.bit_count() == 1
    assert small_qc.syndrome(e ^ res.flips) == 0


# ---------------------------------------------------------------------------
# the decode protocol
# ---------------------------------------------------------------------------


def _direct(kind, qsrc, y, H, beam, bf):
    """The free-function call that a Decoder of `kind` stands for."""
    if kind == "greedy":
        return greedy_decode(qsrc, y, H, beam.d_max)
    if kind == "list":
        return action_list_decode(qsrc, H.syndrome(y), H, beam)
    if kind == "bf":
        return bit_flipping_decode(y, H, bf)
    if kind == "feedback":
        return feedback_decode(lambda x: bit_flipping_decode(x, H, bf), qsrc, y, H,
                               beam.d_max)
    return automorphism_list_decode(qsrc, y, H, beam)


@settings(max_examples=30, deadline=None)
@given(positions=st.sets(st.integers(0, 20), max_size=5), seed=st.integers(0, 2**16),
       k=st.integers(1, 4), d_max=st.integers(1, 8), tau=st.integers(1, 3),
       max_iter=st.integers(1, 10))
def test_decoder_matches_the_free_functions(small_qc, positions, seed, k, d_max,
                                            tau, max_iter):
    y = sum(1 << i for i in positions)  # small_qc has n = 21
    qsrc = RandomQ(small_qc.n, seed)
    beam, bf = BeamConfig(k, d_max), BitFlipConfig(tau, max_iter)
    for kind in KINDS:
        got = Decoder(kind, qsrc, small_qc, beam, bf)(y)
        want = _direct(kind, qsrc, y, small_qc, beam, bf)
        assert (got.converged, got.flips, got.final_syndrome, got.steps) == (
            want.converged, want.flips, want.final_syndrome, want.steps), kind


def test_decoder_rejects_an_unknown_kind(hamming):
    with pytest.raises(ValueError, match="beam"):
        Decoder("beam", ZeroQ(hamming.n), hamming)(0)
    with pytest.raises(ValueError, match="beam"):
        Decoder("beam", ZeroQ(hamming.n), hamming).decode_batch(np.zeros((1, 7)))


def _q_source(name, H, seed):
    if name == "random":
        return RandomQ(H.n, seed)
    if name == "onehot":
        return OneHotQ(H)
    return MlpNetwork.init(H.m, 8, H.n, seed)


@settings(max_examples=40, deadline=None)
@given(code=st.sampled_from(["small_qc", "tanner"]),
       source=st.sampled_from(["random", "onehot", "mlp"]), seed=st.integers(0, 2**16),
       B=st.integers(0, 16), rho=st.sampled_from([0.0, 0.05, 0.15]),
       clean=st.sets(st.integers(0, 15)),
       k=st.integers(1, 3), d_max=st.integers(1, 4), tau=st.integers(1, 3),
       max_iter=st.integers(1, 10))
@example(code="small_qc", source="random", seed=0, B=0, rho=0.15, clean=set(),
         k=2, d_max=3, tau=2, max_iter=5)
@example(code="tanner", source="mlp", seed=1, B=1, rho=0.05, clean=set(),
         k=2, d_max=3, tau=2, max_iter=5)
def test_decode_batch_matches_the_scalar_decoder(small_qc, tanner, code, source, seed,
                                                 B, rho, clean, k, d_max, tau,
                                                 max_iter):
    H = small_qc if code == "small_qc" else tanner
    E = sample_errors(BscConfig(rho, seed), H.n, 0, B)
    E[[r for r in clean if r < B]] = 0
    qsrc = _q_source(source, H, seed)
    for kind in KINDS:
        decoder = Decoder(kind, qsrc, H, BeamConfig(k, d_max), BitFlipConfig(tau, max_iter))
        flips, converged, steps = decoder.decode_batch(E)
        assert flips.shape == E.shape and flips.dtype == np.uint8
        assert converged.shape == steps.shape == (B,)
        for b, e in enumerate(E):
            want = decoder(bits_to_int(e))
            assert (bits_to_int(flips[b]), bool(converged[b]), int(steps[b])) == (
                want.flips, want.converged, want.steps), (kind, b)


@pytest.mark.parametrize("kind", KINDS)
def test_decode_batch_zero_and_codeword_rows_take_no_step(hamming, small_qc, kind):
    # 0b111 is a Hamming codeword; and in small_qc every check has one bit
    # in each column block, so two whole blocks make a codeword
    block_pair = bits_to_int([1] * 2 * small_qc.qc.p)
    for H, codeword in ((hamming, 0b111), (small_qc, block_pair)):
        if kind == "auto-list" and H.qc is None:
            continue
        assert codeword and H.syndrome(codeword) == 0
        E = sample_errors(BscConfig(0.15, 3), H.n, 0, 12)
        E[[0, 5, 9]] = 0
        E[[2, 7, 10]] = int_to_bits(codeword, H.n)
        assert H.syndrome_batch(E).any(axis=1).sum() >= 3  # some rows carry an error
        decoder = Decoder(kind, RandomQ(H.n, 1), H)
        flips, converged, steps = decoder.decode_batch(E)
        for b, e in enumerate(E):
            want = decoder(bits_to_int(e))
            assert (bits_to_int(flips[b]), bool(converged[b]), int(steps[b])) == (
                want.flips, want.converged, want.steps), (kind, b)
            if b in (0, 2, 5, 7, 9, 10):
                assert (want.flips, want.converged, want.steps) == (0, True, 0)


def test_decode_batch_shape_validation(hamming):
    decoder = Decoder("bf", None, hamming)
    with pytest.raises(ValueError):
        decoder.decode_batch(np.zeros((2, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        decoder.decode_batch(np.zeros(7, dtype=np.uint8))


# ---------------------------------------------------------------------------
# the one beam against the one-root-at-a-time references
# ---------------------------------------------------------------------------


def _tied_source(name, H, seed):
    """A Q-source with exact ties.  The table values action a at syndrome s
    by minus the weight s ^ col(a) is left with, plus one of three 0/1 rows
    by s mod 3; so its beams go deep and equal values abound.  The MLP's
    output rows repeat."""
    rng = rng_for_tests(seed)
    if name == "table":
        rows = rng.integers(0, 2, size=(3, H.n))
        return FakeQ(H.n, {s: rows[s % 3] - [(s ^ c).bit_count() for c in H.cols_int]
                           for s, _, _ in ball_reference(H, 3)})
    net = MlpNetwork.init(H.m, 8, H.n, seed)
    twin = rng.integers(0, 4, size=H.n)
    return MlpNetwork(net.W1, net.b1, net.W2[twin], net.b2[twin])


def _as_reference(res):
    actions = res.path.actions if res.path is not None else None
    return res.converged, res.flips, res.steps, res.score, actions


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(["table", "mlp"]), seed=st.integers(0, 2**16),
       k=st.integers(1, 4), d_max=st.integers(1, 6),
       words=st.lists(st.sets(st.integers(0, 20), max_size=5), min_size=1, max_size=6),
       shifts=st.sets(st.integers(0, 6)))
# two paths reach zero at depth 2, and the first in beam order wins
@example(source="table", seed=42, k=2, d_max=6, words=[{8, 13}], shifts=set())
# at depth 2 a tie on (value, action) straddles the cut of k = 3, and the
# better-ranked parent's child is the one that converges at depth 3
@example(source="table", seed=0, k=3, d_max=3, words=[{2, 8, 12}], shifts={0})
def test_one_beam_matches_the_references(small_qc, source, seed, k, d_max, words,
                                         shifts):
    H, cfg = small_qc, BeamConfig(k, d_max)
    qsrc = _tied_source(source, H, seed)
    E = np.zeros((len(words), H.n), dtype=np.uint8)
    for row, positions in zip(E, words):
        row[list(positions)] = 1
    ys = [bits_to_int(e) for e in E]
    for y in ys:
        s = H.syndrome(y)
        res = action_list_decode(qsrc, s, H, cfg)
        assert _as_reference(res) == beam_reference(qsrc, s, H, cfg)
        if res.converged:
            assert res.path.verify(H) and res.path.states[0] == s
        for subset in (sorted(shifts), range(H.qc.p)):
            res = automorphism_list_decode(qsrc, y, H, cfg, subset)
            assert _as_reference(res) == ensemble_reference(qsrc, y, H, cfg, subset)
            if res.converged:
                assert res.path.verify(H) and res.path.states[0] == s
    for kind in ("list", "auto-list"):
        flips, converged, steps = Decoder(kind, qsrc, H, cfg).decode_batch(E)
        for b, y in enumerate(ys):
            if kind == "list":
                want = beam_reference(qsrc, H.syndrome(y), H, cfg)
            else:
                want = ensemble_reference(qsrc, y, H, cfg, range(H.qc.p))
            assert (bool(converged[b]), bits_to_int(flips[b]), int(steps[b])) == want[:3]


# ---------------------------------------------------------------------------
# the policy loop's cycle fast-forward
# ---------------------------------------------------------------------------


def _few_rows_table(H, seed, rows):
    """A QTable holding random rows for `rows` syndromes of weight <= 2
    errors; every other syndrome reads zeros, whose argmax is bit 0."""
    rng = rng_for_tests(seed)
    table = QTable(H.n, H.m)
    for _ in range(rows):
        s = H.syndrome(sum(1 << int(i) for i in rng.choice(H.n, rng.integers(1, 3),
                                                            replace=False)))
        table.row(s)[:] = rng.standard_normal(H.n)
    return table


@settings(max_examples=40, deadline=None)
@given(code=st.sampled_from(["small_qc", "tanner"]),
       source=st.sampled_from(["zero", "random", "table"]), seed=st.integers(0, 2**16),
       B=st.integers(1, 8), rho=st.sampled_from([0.02, 0.1, 0.25]),
       d_max=st.integers(1, 20), tau=st.integers(1, 3), max_iter=st.integers(1, 8))
@example(code="tanner", source="zero", seed=0, B=8, rho=0.02, d_max=20, tau=2,
         max_iter=8)
@example(code="small_qc", source="table", seed=3, B=8, rho=0.1, d_max=17, tau=2,
         max_iter=3)
# a support drawn with replacement repeated bit n - 1 here, summing to 1 << n
@example(code="small_qc", source="table", seed=310, B=8, rho=0.1, d_max=10, tau=2,
         max_iter=8)
def test_policy_batch_cycle_fast_forward_matches_the_scalar_loop(
        small_qc, tanner, code, source, seed, B, rho, d_max, tau, max_iter):
    # greedy and feedback rows that cycle stop early in the batch; each
    # row's flips, convergence and steps must still be the scalar loop's
    H = small_qc if code == "small_qc" else tanner
    qsrc = {"zero": lambda: ZeroQ(H.n), "random": lambda: RandomQ(H.n, seed),
            "table": lambda: _few_rows_table(H, seed, 12)}[source]()
    E = sample_errors(BscConfig(rho, seed), H.n, 0, B)
    for kind in ("greedy", "feedback"):
        decoder = Decoder(kind, qsrc, H, BeamConfig(d_max=d_max),
                          BitFlipConfig(tau, max_iter))
        flips, converged, steps = decoder.decode_batch(E)
        for b, e in enumerate(E):
            want = decoder(bits_to_int(e))
            assert (bits_to_int(flips[b]), bool(converged[b]), int(steps[b])) == (
                want.flips, want.converged, want.steps), (kind, b)


def test_feedback_runs_no_bf_on_a_caught_cycle(tanner, monkeypatch):
    # ZeroQ flips bit 0 on every pass, so the policy flips after pass 2
    # equal those after pass 0: bf runs on passes 1 and 2 only
    y = bits_to_int([1 if i in (2, 5, 31) else 0 for i in range(tanner.n)])
    assert not any(bit_flipping_decode(x, tanner).converged for x in (y, y ^ 1))
    seen = []

    def recording(X, H, cfg):
        seen.append([bits_to_int(row) for row in X])
        return bf_decode_batch(X, H, cfg)

    monkeypatch.setattr(decoders, "bf_decode_batch", recording)
    decoder = Decoder("feedback", ZeroQ(tanner.n), tanner, BeamConfig(d_max=10))
    flips, converged, steps = decoder.decode_batch(int_to_bits(y, tanner.n)[None])
    assert seen == [[y], [y ^ 1]]
    assert (bits_to_int(flips[0]), bool(converged[0]), int(steps[0])) == (0, False, 10)
    want = decoder(y)
    assert (want.flips, want.converged, want.steps) == (0, False, 10)


def test_feedback_keeps_running_bf_on_rows_outside_a_cycle(tanner):
    # row 0 is caught in a 2-cycle at pass 2; row 1 is steered by two
    # policy flips from {1, 3, 4} to {1}, which bf corrects on pass 3
    E = np.zeros((2, tanner.n), dtype=np.uint8)
    E[0, [2, 5, 31]] = E[1, [1, 3, 4]] = 1
    policy = FakeQ(tanner.n, {tanner.syndrome(0b11010): np.eye(tanner.n)[4],
                              tanner.syndrome(0b1010): np.eye(tanner.n)[3]})
    assert not any(bit_flipping_decode(x, tanner).converged for x in (0b11010, 0b1010))
    decoder = Decoder("feedback", policy, tanner, BeamConfig(d_max=10))
    flips, converged, steps = decoder.decode_batch(E)
    assert converged.tolist() == [False, True] and steps.tolist() == [10, 3]
    assert bits_to_int(flips[1]) == 0b11010
    for b, e in enumerate(E):
        want = decoder(bits_to_int(e))
        assert (bits_to_int(flips[b]), bool(converged[b]), int(steps[b])) == (
            want.flips, want.converged, want.steps)


def test_auto_list_builds_no_group_table(small_qc):
    # the ensemble's inverse shifts come from the necklace formula, so
    # decoding never builds the code's whole automorphism group
    group_table.cache_clear()
    qsrc = OneHotQ(small_qc)
    automorphism_list_decode(qsrc, 1 << 9, small_qc)
    Decoder("auto-list", qsrc, small_qc).decode_batch(
        sample_errors(BscConfig(0.1, 5), small_qc.n, 0, 6))
    assert group_table.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the ensemble roots its beams at shifted syndromes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", ["small_qc", "tanner"])
def test_shifted_words_have_the_check_shifted_syndromes(request, code):
    # the syndrome of a word shifted by sigma^delta is sigma^delta's check
    # permutation of the word's syndrome: the ensemble's rows of sigma^-delta
    # gather both, the word's bits and the syndrome's checks
    H = request.getfixturevalue(code)
    spec, Y = H.qc, sample_errors(BscConfig(0.1, 7), H.n, 0, 16)
    for delta in range(spec.p):
        var = _necklace_rows(spec.k_blocks, spec.p, 0, 1, -delta)
        chk = _necklace_rows(spec.j, spec.p, 0, 1, -delta)
        assert np.array_equal(H.syndrome_batch(Y[:, var]), H.syndrome_batch(Y)[:, chk])


def test_auto_list_batch_matches_the_word_shifting_reference_on_tanner(tanner):
    # the reference shifts every word and takes the shifted word's syndrome;
    # with a w = 1 table a double error converges only through a shift that
    # brings one of its bits into 0..4, the top five of an all-zero row
    env = SyndromeMdp(tanner, MdpConfig(variant="truncated", w=1),
                      SyndromeSets(ball=frozenset(hamming_ball_syndromes(tanner, 1))))
    table = train_q(env, TrainConfig(episodes=60_000, seed=0), BallSampler(tanner, 1))
    cfg = BeamConfig(k=5)
    for seed in (0, 2):
        E = sample_errors(BscConfig(0.02, seed), tanner.n, 0, 12)
        flips, converged, steps = Decoder("auto-list", table, tanner, cfg).decode_batch(E)
        for b, e in enumerate(E):
            want = ensemble_reference(table, bits_to_int(e), tanner, cfg, range(tanner.qc.p))
            assert (bool(converged[b]), bits_to_int(flips[b]), int(steps[b])) == want[:3]
        assert converged[E.sum(axis=1) == 2].any()


# ---------------------------------------------------------------------------
# each distinct syndrome decoded once, and the memo across calls
# ---------------------------------------------------------------------------


class CountingQ(RandomQ):
    """RandomQ that counts the Q rows read through q_values_batch."""

    def __init__(self, n, seed):
        super().__init__(n, seed)
        self.rows = 0

    def q_values_batch(self, states):
        self.rows += len(states)
        return super().q_values_batch(states)


def _block_codeword(H, rng):
    # every check has one bit in each column block, so two whole blocks
    # make a codeword
    blocks = rng.choice(H.qc.k_blocks, 2, replace=False)
    return np.concatenate([np.full(H.qc.p, b in blocks, np.uint8)
                           for b in range(H.qc.k_blocks)])


def _syndrome_sharing_rows(H, seed, B, rho):
    """B channel words, then copies of them: repeated, plus a codeword (the
    same syndrome from another word) and cyclically shifted; in a random
    order, with zero rows among them."""
    rng = rng_for_tests(seed)
    Y = sample_errors(BscConfig(rho, seed), H.n, 0, B)
    rows = [Y, np.zeros((1, H.n), np.uint8)]
    for _ in range(2 * B):
        y = Y[rng.integers(B)]
        how = rng.integers(3)
        if how == 1:
            y = y ^ _block_codeword(H, rng)
        elif how == 2:
            y = y[_necklace_rows(H.qc.k_blocks, H.qc.p, 0, 1, int(rng.integers(1, H.qc.p)))]
        rows.append(y[None])
    E = np.concatenate(rows)
    return E[rng.permutation(len(E))]


@settings(max_examples=25, deadline=None)
@given(code=st.sampled_from(["small_qc", "tanner"]),
       source=st.sampled_from(["random", "onehot", "mlp"]), seed=st.integers(0, 2**16),
       B=st.integers(1, 6), rho=st.sampled_from([0.02, 0.05, 0.15]),
       k=st.integers(1, 3), d_max=st.integers(1, 4), tau=st.integers(1, 3),
       max_iter=st.integers(1, 10))
def test_decode_batch_on_rows_sharing_syndromes_matches_the_scalar_decoder(
        small_qc, tanner, code, source, seed, B, rho, k, d_max, tau, max_iter):
    H = small_qc if code == "small_qc" else tanner
    E = _syndrome_sharing_rows(H, seed, B, rho)
    qsrc = _q_source(source, H, seed)
    for kind in KINDS:
        decoder = Decoder(kind, qsrc, H, BeamConfig(k, d_max), BitFlipConfig(tau, max_iter))
        flips, converged, steps = decoder.decode_batch(E)
        for b, e in enumerate(E):
            want = decoder(bits_to_int(e))
            assert (bits_to_int(flips[b]), bool(converged[b]), int(steps[b])) == (
                want.flips, want.converged, want.steps), (kind, b)


@pytest.mark.parametrize("kind", KINDS)
def test_a_primed_memo_gives_the_output_of_no_memo(small_qc, kind):
    E = _syndrome_sharing_rows(small_qc, 5, 8, 0.1)
    first, second = E[:20], E[10:]  # they overlap in E[10:20]
    decoder = Decoder(kind, RandomQ(small_qc.n, 2), small_qc)
    memo = decoders.SyndromeMemo()
    for X in (first, second):
        got, want = decoder.decode_batch(X, memo), decoder.decode_batch(X)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert 0 < len(memo) == len(set(small_qc.syndrome(bits_to_int(e)) for e in E) - {0})


@pytest.mark.parametrize("kind", KINDS)
def test_a_memo_at_its_cap_stores_nothing_more(small_qc, kind, monkeypatch):
    monkeypatch.setattr(decoders, "MEMO_CAP", 3)
    E = _syndrome_sharing_rows(small_qc, 6, 8, 0.1)
    decoder = Decoder(kind, RandomQ(small_qc.n, 3), small_qc)
    memo = decoders.SyndromeMemo()
    for lo in range(0, len(E), 5):
        X = E[lo:lo + 5]
        got, want = decoder.decode_batch(X, memo), decoder.decode_batch(X)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(memo) <= 3
    assert len(memo) == 3


def test_rows_sharing_a_syndrome_are_decoded_once(tanner, monkeypatch):
    # y, y plus a codeword, and y again share one syndrome: one root for
    # the beam, one word for bit flipping; a memo carries it to the next call
    y = sample_errors(BscConfig(0.05, 1), tanner.n, 0, 1)[0]
    assert y.any()
    E = np.stack([y, y ^ _block_codeword(tanner, rng_for_tests(0)), y])
    qsrc = CountingQ(tanner.n, 0)
    decoder = Decoder("list", qsrc, tanner)
    decoder.decode_batch(E[:1])
    alone, qsrc.rows = qsrc.rows, 0
    decoder.decode_batch(E)
    assert qsrc.rows == alone > 0
    memo, qsrc.rows = decoders.SyndromeMemo(), 0
    decoder.decode_batch(E, memo)
    decoder.decode_batch(E[::-1], memo)
    assert qsrc.rows == alone
    seen = []

    def recording(X, H, cfg):
        seen.append(len(X))
        return bf_decode_batch(X, H, cfg)

    monkeypatch.setattr(decoders, "bf_decode_batch", recording)
    Decoder("bf", None, tanner).decode_batch(E)
    assert seen == [1]


def test_decode_batch_keeps_no_memo_of_its_own(small_qc):
    # without a memo, a second call decodes everything again
    qsrc = CountingQ(small_qc.n, 1)
    decoder = Decoder("greedy", qsrc, small_qc)
    E = _syndrome_sharing_rows(small_qc, 7, 6, 0.1)
    decoder.decode_batch(E)
    once, qsrc.rows = qsrc.rows, 0
    decoder.decode_batch(E)
    assert qsrc.rows == once > 0
