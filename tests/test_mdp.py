import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from synq.codes import ParityCheckMatrix, hamming_ball_syndromes
from synq.mdp import (EMPTY_SETS, VARIANTS, MdpConfig, SyndromeMdp,
                      SyndromeSets, episode, finite_horizon_q, transition)
from conftest import rng_for_tests

# a 1x1 H: action 0 flips syndrome bit 0, so step(s ^ 1, 0) arrives at s
ONE_BIT = ParityCheckMatrix(np.ones((1, 1), np.uint8))


def reward(cfg: MdpConfig, sets: SyndromeSets, s_next: int) -> float:
    """Step reward for arriving at syndrome s_next."""
    return SyndromeMdp(ONE_BIT, cfg, sets).step(s_next ^ 1, 0)[1]


def is_terminal(cfg: MdpConfig, sets: SyndromeSets, s: int) -> bool:
    return SyndromeMdp(ONE_BIT, cfg, sets).is_terminal(s)


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**7 - 1), st.integers(0, 6))
def test_transition_involution(s, a):
    import numpy as np
    from synq.codes import ParityCheckMatrix
    bits = np.array([[(c + 1) >> r & 1 for c in range(7)] for r in range(3)],
                    dtype=np.uint8)
    H = ParityCheckMatrix(bits)
    assert transition(transition(s, a, H), a, H) == s


def test_unit_error_clears(hamming):
    for i in range(7):
        s = hamming.syndrome(1 << i)
        assert transition(s, i, hamming) == 0


def test_transition_column_arithmetic(tanner):
    s = tanner.cols_int[0] ^ tanner.cols_int[7]
    assert transition(s, 7, tanner) == tanner.cols_int[0]


def test_transition_action_range(hamming):
    with pytest.raises(ValueError):
        transition(0, 7, hamming)
    with pytest.raises(ValueError):
        transition(0, -1, hamming)


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------


def test_basic_reward_values():
    cfg = MdpConfig(L=10, variant="basic")
    assert reward(cfg, EMPTY_SETS, 0) == pytest.approx(0.9)
    assert reward(cfg, EMPTY_SETS, 5) == pytest.approx(-0.1)


def test_truncated_reward_values():
    cfg = MdpConfig(L=10, variant="truncated", w=1)
    sets = SyndromeSets(ball=frozenset({0, 3, 5}))
    assert reward(cfg, sets, 0) == pytest.approx(0.9)
    assert reward(cfg, sets, 3) == pytest.approx(-0.1)
    assert reward(cfg, sets, 9) == pytest.approx(-1.1)


def test_feedback_reward_values():
    cfg = MdpConfig(L=10, variant="feedback")
    sets = SyndromeSets(fail=frozenset({1, 2}))
    assert reward(cfg, sets, 1) == pytest.approx(-0.1)
    assert reward(cfg, sets, 7) == pytest.approx(0.9)


def test_feedback_miscorrect_reward_values():
    cfg = MdpConfig(L=10, variant="feedback_miscorrect")
    sets = SyndromeSets(correct=frozenset({0}), fail=frozenset({1}),
                        misc=frozenset({2}))
    assert reward(cfg, sets, 0) == pytest.approx(0.9)
    assert reward(cfg, sets, 1) == pytest.approx(-0.1)
    assert reward(cfg, sets, 2) == pytest.approx(-1.1)
    with pytest.raises(ValueError):
        reward(cfg, sets, 9)


def test_bounded_reward_values():
    ball = frozenset({0, 1, 2, 3})
    cfg = MdpConfig(L=10, variant="bounded_feedback", w=1)
    sets = SyndromeSets(ball=ball, bfail=frozenset({2, 3}))
    assert reward(cfg, sets, 1) == pytest.approx(0.9)
    assert reward(cfg, sets, 2) == pytest.approx(-0.1)
    assert reward(cfg, sets, 8) == pytest.approx(-1.1)

    cfg2 = MdpConfig(L=10, variant="bounded_feedback_miscorrect", w=1)
    sets2 = SyndromeSets(ball=ball, bcorrect=frozenset({0}),
                         bfail=frozenset({2}), bmisc=frozenset({3}))
    assert reward(cfg2, sets2, 0) == pytest.approx(0.9)
    assert reward(cfg2, sets2, 2) == pytest.approx(-0.1)
    assert reward(cfg2, sets2, 3) == pytest.approx(-1.1)
    assert reward(cfg2, sets2, 8) == pytest.approx(-1.1)
    with pytest.raises(ValueError):
        reward(cfg2, sets2, 1)


def test_missing_set_is_an_error():
    cfg = MdpConfig(L=10, variant="feedback")
    with pytest.raises(ValueError):
        reward(cfg, EMPTY_SETS, 1)


def test_reward_values_come_from_the_fixed_menu(hamming):
    ball = hamming_ball_syndromes(hamming, 1)
    env = SyndromeMdp(hamming, MdpConfig(L=10, variant="truncated", w=1),
                      SyndromeSets(ball=ball))
    menu = {0.9, -0.1, -1.1}
    rng = rng_for_tests(4)
    for _ in range(300):
        s = int(rng.integers(0, 8))
        a = int(rng.integers(0, 7))
        _, r, _ = env.step(s, a)
        assert any(math.isclose(r, v) for v in menu)


# ---------------------------------------------------------------------------
# termination
# ---------------------------------------------------------------------------


def test_terminal_states_per_variant():
    ball = frozenset({0, 1, 2})
    fail = frozenset({1, 2})

    basic = MdpConfig(variant="basic")
    assert is_terminal(basic, EMPTY_SETS, 0)
    assert not is_terminal(basic, EMPTY_SETS, 9)

    trunc = MdpConfig(variant="truncated", w=1)
    sets = SyndromeSets(ball=ball)
    assert is_terminal(trunc, sets, 0)
    assert not is_terminal(trunc, sets, 1)
    assert is_terminal(trunc, sets, 9)  # out-of-ball sink absorbs

    fb = MdpConfig(variant="feedback")
    fsets = SyndromeSets(fail=fail)
    assert not is_terminal(fb, fsets, 1)
    assert is_terminal(fb, fsets, 7)

    bfb = MdpConfig(variant="bounded_feedback", w=1)
    bsets = SyndromeSets(ball=ball, bfail=frozenset({1}))
    assert not is_terminal(bfb, bsets, 1)
    assert is_terminal(bfb, bsets, 2)
    assert is_terminal(bfb, bsets, 9)

    fbm = MdpConfig(variant="feedback_miscorrect")
    msets = SyndromeSets(correct=frozenset({0}), fail=fail, misc=frozenset({7}))
    assert not is_terminal(fbm, msets, 1)
    assert is_terminal(fbm, msets, 0)  # corrected
    assert is_terminal(fbm, msets, 7)  # miscorrected

    bfbm = MdpConfig(variant="bounded_feedback_miscorrect", w=1)
    bmsets = SyndromeSets(ball=ball, bcorrect=frozenset({0}),
                          bfail=frozenset({1}), bmisc=frozenset({2}))
    assert not is_terminal(bfbm, bmsets, 1)
    assert is_terminal(bfbm, bmsets, 0)
    assert is_terminal(bfbm, bmsets, 2)
    assert is_terminal(bfbm, bmsets, 9)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


def test_episode_from_terminal_is_empty(hamming):
    env = SyndromeMdp(hamming, MdpConfig(L=10, variant="basic"))
    assert episode(env, 0, lambda s: 0) == []


def test_episode_with_oracle_policy(hamming):
    env = SyndromeMdp(hamming, MdpConfig(L=10, variant="basic"))
    s0 = hamming.syndrome(1 << 4)
    steps = episode(env, s0, lambda s: 4)
    assert len(steps) == 1
    assert steps[0].s_next == 0
    assert steps[0].terminal
    assert steps[0].r == pytest.approx(0.9)


def test_episode_respects_the_cap(hamming):
    env = SyndromeMdp(hamming, MdpConfig(L=10, variant="basic"))
    rng = rng_for_tests(5)
    for _ in range(50):
        s0 = hamming.syndrome(int(rng.integers(1, 1 << 7)))
        steps = episode(env, s0, lambda s: int(rng.integers(7)))
        assert len(steps) <= 10


def test_basic_cumulative_reward_is_one_minus_j_over_L(hamming):
    env = SyndromeMdp(hamming, MdpConfig(L=10, gamma=1.0, variant="basic"))
    # reach the terminal in exactly 3 steps: flip two junk bits, then repair
    s0 = hamming.syndrome(1 << 2)
    plan = iter([0, 0, 2])
    steps = episode(env, s0, lambda s: next(plan))
    assert len(steps) == 3 and steps[-1].terminal
    assert sum(st.r for st in steps) == pytest.approx(1 - 3 / 10)


# ---------------------------------------------------------------------------
# finite-horizon value
# ---------------------------------------------------------------------------


def test_finite_horizon_one_step():
    assert finite_horizon_q(1, r=2.0, p=0.3, gamma=0.5) == pytest.approx(1.7)


def test_finite_horizon_gamma_one_limit():
    assert finite_horizon_q(5, r=1.0, p=0.1, gamma=1.0) == pytest.approx(0.5)


def test_finite_horizon_reference_point():
    want = 0.9**4 - (1 - 0.9**5)
    got = finite_horizon_q(5, r=1.0, p=0.1, gamma=0.9)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.24659, abs=1e-12)


def test_finite_horizon_matches_simulated_stream():
    rng = rng_for_tests(6)
    for _ in range(300):
        j = int(rng.integers(1, 12))
        gamma = float(rng.uniform(0, 1))
        r = float(rng.uniform(-2, 2))
        p = float(rng.uniform(0, 1))
        # reward stream: -p at each of j steps, +r at the last, discounted
        total = sum(gamma**t * -p for t in range(j)) + gamma ** (j - 1) * r
        assert finite_horizon_q(j, r, p, gamma) == pytest.approx(total, abs=1e-12)
    with pytest.raises(ValueError):
        finite_horizon_q(0)


def test_config_validation():
    with pytest.raises(ValueError):
        MdpConfig(L=0)
    with pytest.raises(ValueError):
        MdpConfig(gamma=1.5)
    with pytest.raises(ValueError):
        MdpConfig(variant="other")
    with pytest.raises(ValueError):
        MdpConfig(variant="truncated")  # needs w
    assert set(VARIANTS) >= {"basic", "truncated", "feedback"}
