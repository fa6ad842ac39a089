import numpy as np
import pytest

from synq.codes import hamming_ball_syndromes
from synq.decoders import greedy_decode
from synq.mdp import MdpConfig, SyndromeMdp, SyndromeSets, epsilon_at
from synq.tabular import (BallSampler, QTable, SetSampler, TrainConfig,
                          load_qtable,
                          load_qtable_text, q_update, save_qtable,
                          save_qtable_text, train_q)
from conftest import rng_for_tests


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------


def test_epsilon_endpoints():
    assert epsilon_at(0, 0.9, 0.05, 1000) == pytest.approx(0.9)
    assert epsilon_at(1000, 0.9, 0.05, 1000) == pytest.approx(0.05)
    assert epsilon_at(2000, 0.9, 0.05, 1000) == pytest.approx(0.05)


def test_epsilon_midpoint_and_monotonicity():
    assert epsilon_at(500, 0.9, 0.05, 1000) == pytest.approx((0.9 + 0.05) / 2)
    values = [epsilon_at(t, 0.9, 0.05, 100) for t in range(150)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def test_reads_never_create_rows():
    Q = QTable(n=5, m=4)
    assert np.array_equal(Q.q_values(9), np.zeros(5))
    assert len(Q) == 0 and 9 not in Q.states()


def test_zero_row_is_immutable():
    Q = QTable(n=3, m=4)
    with pytest.raises(ValueError):
        Q.q_values(1)[0] = 5.0


def test_row_creation_and_lookup():
    Q = QTable(n=3, m=4)
    Q.row(6)[1] = 2.5
    assert 6 in Q.states() and len(Q) == 1
    assert Q.q_values(6).tolist() == [0.0, 2.5, 0.0]
    assert list(Q.states()) == [6]


def test_greedy_breaks_ties_toward_low_index():
    Q = QTable(n=4, m=4)
    Q.row(2)[:] = [0.0, 3.0, 3.0, 1.0]
    assert Q.greedy(2) == 1
    assert Q.greedy(5) == 0  # unseen row: all zeros


def test_q_values_batch_rows_are_q_values():
    Q = QTable(n=3, m=4)
    Q.row(2)[:] = [0.5, -1.0, 2.0]
    Q.row(9)[:] = [1.0, 1.0, 0.0]
    states = [9, 0, 2, 7, 9]  # seen and unseen rows, one repeated
    rows = Q.q_values_batch(states)
    assert rows.shape == (5, 3)
    for s, row in zip(states, rows):
        assert np.array_equal(row, Q.q_values(s))
    assert Q.q_values_batch([]).shape == (0, 3)
    assert len(Q) == 2  # reading unseen rows creates none


# ---------------------------------------------------------------------------
# the update rule
# ---------------------------------------------------------------------------


def test_q_update_arithmetic():
    Q = QTable(n=3, m=4)
    # fresh row: Q <- 0 + alpha * (r + gamma*0 - 0)
    got = q_update(Q, s=5, a=1, r=0.9, s_next=0, alpha=0.1, gamma=0.9)
    assert got == pytest.approx(0.09)
    # bootstrap from the updated row
    Q.row(7)[2] = 1.0
    got = q_update(Q, s=5, a=1, r=-0.1, s_next=7, alpha=0.5, gamma=0.9)
    assert got == pytest.approx(0.09 + 0.5 * (-0.1 + 0.9 * 1.0 - 0.09))


def test_unseen_successor_reads_as_zero():
    Q = QTable(n=2, m=4)
    q_update(Q, 3, 0, 1.0, 12345, alpha=1.0, gamma=0.9)
    assert Q.q_values(3)[0] == pytest.approx(1.0)
    assert 12345 not in Q.states()


# ---------------------------------------------------------------------------
# start-state samplers
# ---------------------------------------------------------------------------


def test_ball_sampler_stays_in_ball(hamming):
    ball = hamming_ball_syndromes(hamming, 2)
    sampler = BallSampler(hamming, 2)
    rng = rng_for_tests(7)
    draws = [sampler(rng) for _ in range(200)]
    assert all(s in ball for s in draws)
    assert any(s != draws[0] for s in draws)


def test_ball_sampler_weight_mix(tanner):
    # weight u is uniform on {1..w}; check both weights actually appear
    ball1 = hamming_ball_syndromes(tanner, 1)
    sampler = BallSampler(tanner, 2)
    rng = rng_for_tests(8)
    draws = [sampler(rng) for _ in range(300)]
    n1 = sum(s in ball1 for s in draws)
    assert 90 < n1 < 210


def test_ball_sampler_validation(hamming):
    with pytest.raises(ValueError):
        BallSampler(hamming, 0)


def test_ball_sampler_refuses_radii_whose_draws_rarely_succeed(hamming, tanner):
    # 155^w / (155 * 154 * ... * (156 - w)) tries per draw: 872 at w = 44,
    # 1,218 at w = 45
    BallSampler(tanner, 44)
    for w in (45, 155):
        with pytest.raises(ValueError, match=r"outside 1\.\.44: .* 1000 tries"):
            BallSampler(tanner, w)
    BallSampler(hamming, 7)  # 7^7 / 7! = 163 tries


def test_set_sampler():
    sampler = SetSampler({10, 4, 7})
    rng = rng_for_tests(9)
    draws = {sampler(rng) for _ in range(100)}
    assert draws == {4, 7, 10}
    with pytest.raises(ValueError):
        SetSampler([])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _hamming_env(hamming, w=1):
    ball = hamming_ball_syndromes(hamming, w)
    return SyndromeMdp(hamming, MdpConfig(L=10, gamma=0.9, variant="truncated", w=w),
                       SyndromeSets(ball=ball))


def test_training_is_deterministic(hamming):
    env = _hamming_env(hamming)
    cfg = TrainConfig(episodes=2000, alpha=0.1, seed=3)
    A = train_q(env, cfg, BallSampler(hamming, 1))
    B = train_q(env, cfg, BallSampler(hamming, 1))
    C = train_q(env, TrainConfig(episodes=2000, alpha=0.1, seed=4),
                BallSampler(hamming, 1))
    assert sorted(A.states()) == sorted(B.states())
    assert all(np.array_equal(A.q_values(s), B.q_values(s)) for s in A.states())
    assert any(not np.array_equal(A.q_values(s), C.q_values(s)) for s in A.states())


@pytest.mark.parametrize("seed,same_as", [(-1, 2**64 - 1), (2**64 + 3, 3)])
def test_training_takes_any_seed_mod_2_64(hamming, seed, same_as):
    env = _hamming_env(hamming)
    A, B = (train_q(env, TrainConfig(episodes=300, seed=s), BallSampler(hamming, 1))
            for s in (seed, same_as))
    assert sorted(A.states()) == sorted(B.states())
    assert all(np.array_equal(A.q_values(s), B.q_values(s)) for s in A.states())


def test_training_corrects_weight_one(hamming):
    Q = train_q(_hamming_env(hamming), TrainConfig(episodes=3000, seed=0),
                BallSampler(hamming, 1))
    for i in range(7):
        res = greedy_decode(Q, 1 << i, hamming)
        assert res.converged and res.flips == 1 << i and res.steps == 1


def test_terminal_row_never_appears(hamming):
    Q = train_q(_hamming_env(hamming), TrainConfig(episodes=3000, seed=0),
                BallSampler(hamming, 1))
    assert 0 not in Q.states()
    assert np.array_equal(Q.q_values(0), np.zeros(7))


def test_truncated_state_space_stays_in_ball(hamming):
    # out-of-ball transitions absorb, so only ball syndromes get rows
    env = _hamming_env(hamming, w=1)
    Q = train_q(env, TrainConfig(episodes=2000, seed=1), BallSampler(hamming, 1))
    ball = hamming_ball_syndromes(hamming, 1)
    assert set(Q.states()) <= ball - {0}


def test_greedy_path_length_matches_ball_distance(hamming):
    # after convergence, a state at distance d from the terminal is solved
    # in exactly d greedy steps (here every nonzero syndrome has d = 1)
    Q = train_q(_hamming_env(hamming), TrainConfig(episodes=5000, seed=0),
                BallSampler(hamming, 1))
    for s in range(1, 8):
        steps = 0
        while s and steps < 10:
            s ^= hamming.cols_int[Q.greedy(s)]
            steps += 1
        assert steps == 1


def test_stop_when_halts_training(hamming):
    env = _hamming_env(hamming)
    episodes_seen = []

    class CountingSampler(BallSampler):
        def __call__(self, rng):
            episodes_seen.append(1)
            return super().__call__(rng)

    calls = []
    def stop(Q, ep):
        calls.append(ep)
        return len(calls) >= 2

    train_q(env, TrainConfig(episodes=10_000, seed=0, check_every=100),
            CountingSampler(hamming, 1), stop_when=stop)
    assert calls == [100, 200]
    assert len(episodes_seen) == 200


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(episodes=10, eps_max=0.2, eps_min=0.5)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _toy_table():
    Q = QTable(n=4, m=11, meta={"code_hash": "abc", "n": 4, "m": 11})
    Q.row(3)[:] = [0.25, -1.5, 3.0, 1e-17]
    Q.row(1 << 10)[:] = [0.1, 0.2, 0.3, -0.4]
    return Q


def test_binary_roundtrip(tmp_path):
    Q = _toy_table()
    path = tmp_path / "t.qtab"
    save_qtable(Q, path)
    R = load_qtable(path)
    assert (R.n, R.m) == (4, 11)
    assert R.meta == Q.meta
    assert sorted(R.states()) == sorted(Q.states())
    for s in Q.states():
        assert np.array_equal(R.q_values(s), Q.q_values(s))


def test_binary_roundtrip_after_training(tmp_path, hamming):
    Q = train_q(_hamming_env(hamming), TrainConfig(episodes=500, seed=2),
                BallSampler(hamming, 1))
    path = tmp_path / "h.qtab"
    save_qtable(Q, path)
    R = load_qtable(path)
    for s in Q.states():
        assert np.array_equal(R.q_values(s), Q.q_values(s))
    assert R.meta["code_hash"] == hamming.code_hash


def test_save_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.qtab", tmp_path / "b.qtab"
    save_qtable(_toy_table(), a)
    save_qtable(_toy_table(), b)
    assert a.read_bytes() == b.read_bytes()


def test_text_roundtrip_is_lossless(tmp_path):
    Q = _toy_table()
    path = tmp_path / "t.qtable"
    save_qtable_text(Q, path)
    R = load_qtable_text(path)
    for s in Q.states():
        assert np.array_equal(R.q_values(s), Q.q_values(s))


@pytest.mark.parametrize("second", [1 << 11, 3, 2],
                         ids=["wider than m", "duplicate", "decreasing"])
def test_load_rejects_bad_record_syndromes(tmp_path, second):
    Q = _toy_table()  # records 3 and 1 << 10, m = 11
    binary, text = tmp_path / "t.qtab", tmp_path / "t.qtable"
    save_qtable(Q, binary)
    blob = bytearray(binary.read_bytes())
    rec = 2 + 8 * Q.n
    blob[-rec:-rec + 2] = second.to_bytes(2, "little")
    binary.write_bytes(bytes(blob))
    save_qtable_text(Q, text)
    text.write_text(text.read_text().replace("\n400 ", f"\n{second:x} "))
    for path, load in [(binary, load_qtable), (text, load_qtable_text)]:
        with pytest.raises(ValueError, match="record syndrome"):
            load(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.qtab"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_qtable(path)


def test_load_rejects_truncation(tmp_path):
    path = tmp_path / "t.qtab"
    save_qtable(_toy_table(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError):
        load_qtable(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_action_values(tmp_path, bad):
    Q = _toy_table()
    Q.row(1 << 10)[1] = bad
    binary, text = tmp_path / "t.qtab", tmp_path / "t.qtable"
    save_qtable(Q, binary)
    save_qtable_text(Q, text)
    for path, load in [(binary, load_qtable), (text, load_qtable_text)]:
        with pytest.raises(ValueError, match="record syndrome 400 .*non-finite"):
            load(path)
