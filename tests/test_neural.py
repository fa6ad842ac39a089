import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.codes import bits_to_ints, hamming_ball_syndromes, int_to_bits
from synq.decoders import greedy_decode
from synq.mdp import MdpConfig, Step, SyndromeMdp, SyndromeSets
from synq.neural import (BLOCK, Adam, DqnConfig, MlpNetwork, ReplayBuffer, Sgd,
                         dqn_loss, load_network,
                         load_network_text, save_network, save_network_text,
                         train_dqn)
from synq.tabular import BallSampler
from conftest import rng_for_tests


# ---------------------------------------------------------------------------
# network mechanics
# ---------------------------------------------------------------------------


def test_init_shapes_and_ranges():
    net = MlpNetwork.init(m=93, hidden=512, n=155, seed=0)
    assert net.sizes == (93, 512, 155)
    assert net.W1.shape == (512, 93) and net.W2.shape == (155, 512)
    assert np.all(net.b1 == 0) and np.all(net.b2 == 0)
    assert np.abs(net.W1).max() <= np.sqrt(6 / 93)
    assert np.abs(net.W2).max() <= np.sqrt(6 / 512)


def test_init_is_deterministic():
    a = MlpNetwork.init(5, 8, 4, seed=7)
    b = MlpNetwork.init(5, 8, 4, seed=7)
    c = MlpNetwork.init(5, 8, 4, seed=8)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert not np.array_equal(a.W1, c.W1)


def test_forward_by_hand():
    # one hidden unit active, one clipped by the relu
    net = MlpNetwork(W1=[[1.0, 0.0], [-1.0, 0.0]], b1=[0.0, 0.5],
                     W2=[[2.0, 1.0], [0.0, -1.0]], b2=[0.1, 0.0])
    x = np.array([1.0, 3.0])
    # z1 = (1, -0.5) -> h = (1, 0); out = (2*1 + 0.1, 0)
    assert net.forward(x) == pytest.approx([2.1, 0.0])


def test_forward_batch_matches_single():
    net = MlpNetwork.init(6, 10, 4, seed=1)
    rng = rng_for_tests(10)
    X = rng.random((20, 6))
    batch = net.forward_batch(X)
    for i in range(20):
        assert batch[i] == pytest.approx(net.forward(X[i]), abs=1e-12)


def test_q_values_uses_syndrome_bits():
    net = MlpNetwork.init(8, 6, 3, seed=2)
    s = 0b10100110
    want = net.forward(int_to_bits(s, 8).astype(float))
    assert net.q_values(s) == pytest.approx(want)
    assert net.q_values_batch([s, 0])[0] == pytest.approx(want)


@pytest.mark.parametrize("hidden", [8, 128, 512])
def test_q_values_batch_rows_are_q_values_bit_for_bit(hidden):
    # decodes share Q calls across frames and shifts, so a row must not
    # depend on how many rows share the call (a matrix product's rows do)
    net = MlpNetwork.init(93, hidden, 155, seed=hidden)
    rng = rng_for_tests(hidden)
    for B in (0, 1, 2, 5, 64, 1024):
        states = bits_to_ints(rng.integers(0, 2, size=(B, 93)))
        Q = net.q_values_batch(states)
        assert Q.shape == (B, 155)
        for s, row in zip(states, Q):
            assert np.array_equal(row, net.q_values(s)), (B, s)


@pytest.mark.parametrize("hidden", [8, 128, 512])
def test_q_values_batch_with_repeated_states_is_q_values(hidden):
    net = MlpNetwork.init(93, hidden, 155, seed=hidden)
    a, b = bits_to_ints(rng_for_tests(hidden).integers(0, 2, size=(2, 93)))
    for states in ([a] * 9, [a, b] * 5, [b, a, a, 0, b, 0], []):
        Q = net.q_values_batch(states)
        assert Q.shape == (len(states), 155)
        for s, row in zip(states, Q):
            assert np.array_equal(row, net.q_values(s)), (hidden, s)


def test_q_values_batch_computes_each_distinct_state_once(monkeypatch):
    import synq.neural as neural
    seen, unpack = [], neural.ints_to_bits
    monkeypatch.setattr(neural, "ints_to_bits",
                        lambda xs, length: seen.append(list(xs)) or unpack(xs, length))
    net = MlpNetwork.init(8, 6, 3, seed=2)
    Q = net.q_values_batch([5, 9, 5, 5, 0, 9])
    assert seen == [[5, 9, 0]]
    assert np.array_equal(Q[[0, 2, 3]], np.stack([Q[0]] * 3))


_NETS = {h: MlpNetwork.init(93, h, 155, seed=h) for h in (512, 128, 32, 8)}


@settings(max_examples=40, deadline=None)
@given(hidden=st.sampled_from(sorted(_NETS)),
       size=st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]),
       extra=st.integers(0, 2 * BLOCK), seed=st.integers(0, 2**32 - 1))
def test_block_rows_do_not_depend_on_position_or_neighbours(hidden, size, extra, seed):
    """Rows come from gemm blocks of a fixed BLOCK rows, so a row must be
    q_values(s) bit for bit wherever it sits and whatever shares its block.

    This holds for the OpenBLAS kernels tested here, not by arithmetic: a
    gemm may sum a row in an order that depends on its place in the block.
    If a BLAS build breaks it, the documented fallback is the stacked
    matrix-vector product (one gemv per distinct row), which is invariant
    by construction and about twice as slow per row."""
    net, rng = _NETS[hidden], np.random.default_rng(seed)
    states = bits_to_ints(rng.integers(0, 2, size=(size, 93)))
    Q = net.q_values_batch(states)
    for s, row in zip(states, Q):
        assert np.array_equal(row, net.q_values(s)), (hidden, size, s)
    # the same rows again, shuffled among `extra` random neighbours
    mixed = states + bits_to_ints(rng.integers(0, 2, size=(extra, 93)))
    order = rng.permutation(len(mixed))
    again = net.q_values_batch([mixed[i] for i in order])
    for pos, i in enumerate(order):
        if i < size:
            assert np.array_equal(again[pos], Q[i]), (hidden, size, pos)


_DIGEST_SCRIPT = """
import hashlib, numpy as np
from synq.codes import bits_to_ints
from synq.neural import BLOCK, MlpNetwork
states = bits_to_ints(np.random.default_rng(5).integers(0, 2, size=(3 * BLOCK + 5, 93)))
for h in (512, 128, 32):
    net = MlpNetwork.init(93, h, 155, seed=h)
    print(h, hashlib.sha256(net.q_values_batch(states).tobytes()).hexdigest())
"""


def test_block_rows_are_the_same_at_one_and_two_blas_threads():
    """Network Q rows, and so every decode over a network, must not depend
    on the OpenBLAS thread count (README, Reproducibility).  A fixed-shape
    gemm block met this on the builds tested; the fallback, if a build
    does not, is the stacked matrix-vector product."""
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1] and len(digests[0].split()) == 6


def test_network_validation():
    with pytest.raises(ValueError):
        MlpNetwork(W1=np.zeros((4, 3)), b1=np.zeros(5), W2=np.zeros((2, 4)),
                   b2=np.zeros(2))
    with pytest.raises(ValueError):
        MlpNetwork(W1=np.full((2, 2), np.nan), b1=np.zeros(2),
                   W2=np.zeros((2, 2)), b2=np.zeros(2))
    with pytest.raises(ValueError):
        MlpNetwork(W1=np.zeros((2, 2)), b1=np.zeros(2), W2=np.zeros((2, 2)),
                   b2=np.zeros(2), activation="tanh")


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------


def _tr(i):
    return Step(s=i, a=i % 3, r=float(i), s_next=i + 1, terminal=i % 2 == 1)


def _steps(batch):
    """The Step of each row of a sampled (S, A, R, S2, T) batch."""
    S, A, R, S2, T = batch
    return [Step(*row) for row in zip(bits_to_ints(S), A.tolist(), R.tolist(),
                                      bits_to_ints(S2), T.tolist())]


def test_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=3, m=4)
    for i in range(5):
        buf.push(_tr(i))
    assert len(buf) == 3
    held = _steps(buf.sample(rng_for_tests(3), 3))
    assert {t.s for t in held} == {2, 3, 4}
    assert all(t == _tr(t.s) for t in held)


def test_sample_without_replacement():
    buf = ReplayBuffer(capacity=10, m=4)
    for i in range(10):
        buf.push(_tr(i))
    rng = rng_for_tests(11)
    S, A, R, S2, T = batch = buf.sample(rng, 10)
    assert S.dtype == S2.dtype == np.float64 and T.dtype == bool
    assert sorted(t.s for t in _steps(batch)) == list(range(10))
    with pytest.raises(ValueError):
        buf.sample(rng, 11)


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def _random_batch(rng, m, n, B):
    S = (rng.random((B, m)) < 0.5).astype(float)
    A = rng.integers(0, n, size=B)
    R = rng.uniform(-1, 1, size=B)
    S2 = (rng.random((B, m)) < 0.5).astype(float)
    T = rng.random(B) < 0.3
    return S, A, R, S2, T


def test_all_terminal_batch_targets_are_rewards():
    rng = rng_for_tests(12)
    net = MlpNetwork.init(5, 7, 4, seed=3)
    # a wildly different target net must not matter when everything ends
    target = MlpNetwork.init(5, 7, 4, seed=99)
    S, A, R, S2, _ = _random_batch(rng, 5, 4, 16)
    T = np.ones(16, dtype=bool)
    loss, _ = dqn_loss(net, target, S, A, R, S2, T, gamma=0.9)
    q = net.forward_batch(S)[np.arange(16), A]
    assert loss == pytest.approx(float(np.mean((q - R) ** 2)), abs=1e-12)


def test_gradient_only_through_selected_action():
    rng = rng_for_tests(13)
    net = MlpNetwork.init(5, 7, 4, seed=4)
    S, A, R, S2, T = _random_batch(rng, 5, 4, 8)
    A[:] = 2  # only action 2 is ever taken
    _, grads = dqn_loss(net, net.copy(), S, A, R, S2, T, gamma=0.9)
    mask = np.ones(4, dtype=bool)
    mask[2] = False
    assert np.all(grads["b2"][mask] == 0.0)
    assert np.all(grads["W2"][mask, :] == 0.0)
    assert np.any(grads["b2"][2] != 0.0)


def test_gradients_match_finite_differences():
    rng = rng_for_tests(14)
    net = MlpNetwork.init(6, 9, 5, seed=5)
    target = MlpNetwork.init(6, 9, 5, seed=6)
    S, A, R, S2, T = _random_batch(rng, 6, 5, 12)
    _, grads = dqn_loss(net, target, S, A, R, S2, T, gamma=0.9)
    eps = 1e-6
    worst = 0.0
    for name, P in net.params().items():
        flat = P.ravel()
        for idx in rng.choice(flat.size, size=min(25, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + eps
            up, _ = dqn_loss(net, target, S, A, R, S2, T, gamma=0.9)
            flat[idx] = keep - eps
            dn, _ = dqn_loss(net, target, S, A, R, S2, T, gamma=0.9)
            flat[idx] = keep
            fd = (up - dn) / (2 * eps)
            an = grads[name].ravel()[idx]
            if abs(fd) + abs(an) > 1e-12:
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    assert worst < 1e-4


def test_adam_single_step_by_hand():
    p = {"w": np.array([1.0])}
    g = {"w": np.array([0.5])}
    opt = Adam(p, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step(p, g)
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    want = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p["w"][0] == pytest.approx(want, abs=1e-15)


def test_sgd_step():
    p = {"w": np.array([2.0, -1.0])}
    Sgd(p, lr=0.5).step(p, {"w": np.array([1.0, 2.0])})
    assert p["w"].tolist() == [1.5, -2.0]


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------


def _hamming_env(hamming):
    ball = hamming_ball_syndromes(hamming, 1)
    return SyndromeMdp(hamming, MdpConfig(L=10, gamma=0.9, variant="truncated", w=1),
                       SyndromeSets(ball=ball))


def test_dqn_training_is_deterministic(hamming):
    env = _hamming_env(hamming)
    cfg = DqnConfig(episodes=300, hidden=16, batch=8, lr=1e-3, seed=5,
                    sync_every=20)
    a = train_dqn(env, cfg, BallSampler(hamming, 1))
    b = train_dqn(env, cfg, BallSampler(hamming, 1))
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    assert np.array_equal(a.b1, b.b1) and np.array_equal(a.b2, b.b2)


@pytest.mark.parametrize("seed,same_as", [(-1, 2**64 - 1), (2**64 + 3, 3)])
def test_init_and_training_take_any_seed_mod_2_64(hamming, seed, same_as):
    # the channel's seed rule: every Philox key is (seed mod 2^64, tag)
    a, b = (MlpNetwork.init(5, 8, 4, seed=s) for s in (seed, same_as))
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    env = _hamming_env(hamming)
    a, b = (train_dqn(env, DqnConfig(episodes=40, hidden=8, batch=8, seed=s,
                                     sync_every=20), BallSampler(hamming, 1))
            for s in (seed, same_as))
    assert all(np.array_equal(a.params()[k], b.params()[k]) for k in a.params())


def test_dqn_learns_weight_one_toy(hamming):
    env = _hamming_env(hamming)
    cfg = DqnConfig(episodes=3000, hidden=32, batch=16, lr=5e-3, seed=0,
                    sync_every=50)
    net = train_dqn(env, cfg, BallSampler(hamming, 1))
    good = sum(
        1 for i in range(7)
        if (r := greedy_decode(net, 1 << i, hamming)).converged and r.flips == 1 << i
    )
    assert good == 7


def test_dqn_loss_trend_decreases(hamming):
    # Bellman residual on a fixed batch of real transitions shrinks with
    # training (trend check between checkpoints, not per-step monotonicity)
    env = _hamming_env(hamming)
    sampler = BallSampler(hamming, 1)
    rng = rng_for_tests(15)
    rows = []
    while len(rows) < 32:
        s = sampler(rng)
        a = int(rng.integers(7))
        s2, r, terminal = env.step(s, a)
        rows.append((s, a, r, s2, terminal))
    S = np.stack([int_to_bits(r[0], 3) for r in rows]).astype(float)
    A = np.array([r[1] for r in rows])
    R = np.array([r[2] for r in rows])
    S2 = np.stack([int_to_bits(r[3], 3) for r in rows]).astype(float)
    T = np.array([r[4] for r in rows])

    def probe(net):
        return dqn_loss(net, net.copy(), S, A, R, S2, T, 0.9)[0]

    early = train_dqn(env, DqnConfig(episodes=30, hidden=32, batch=16,
                                     lr=5e-3, seed=1, sync_every=50), sampler)
    late = train_dqn(env, DqnConfig(episodes=3000, hidden=32, batch=16,
                                    lr=5e-3, seed=1, sync_every=50), sampler)
    assert probe(late) < probe(early)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises(hamming):
    env = _hamming_env(hamming)
    cfg = DqnConfig(episodes=5000, hidden=16, batch=8, lr=1e12, seed=0,
                    optimizer="sgd")
    with pytest.raises(RuntimeError):
        train_dqn(env, cfg, BallSampler(hamming, 1))


def test_dqn_config_validation():
    with pytest.raises(ValueError):
        DqnConfig(episodes=0)
    with pytest.raises(ValueError):
        DqnConfig(episodes=10, batch=0)
    with pytest.raises(ValueError):
        DqnConfig(episodes=10, optimizer="rmsprop")
    with pytest.raises(ValueError):
        DqnConfig(episodes=10, eps_max=0.1, eps_min=0.9)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_network_binary_roundtrip(tmp_path):
    net = MlpNetwork.init(6, 10, 4, seed=9, meta={"code_hash": "xyz"})
    path = tmp_path / "n.qnet"
    save_network(net, path)
    R = load_network(path)
    for k, v in net.params().items():
        assert np.array_equal(R.params()[k], v)
    assert R.meta["code_hash"] == "xyz"


def test_network_text_roundtrip(tmp_path):
    net = MlpNetwork.init(4, 5, 3, seed=10)
    path = tmp_path / "n.txt"
    save_network_text(net, path)
    R = load_network_text(path)
    for k, v in net.params().items():
        assert np.array_equal(R.params()[k], v)


def test_network_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.qnet"
    path.write_bytes(b"QXYZ" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_network(path)


def test_network_save_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.qnet", tmp_path / "b.qnet"
    save_network(MlpNetwork.init(4, 5, 3, seed=11), a)
    save_network(MlpNetwork.init(4, 5, 3, seed=11), b)
    assert a.read_bytes() == b.read_bytes()
