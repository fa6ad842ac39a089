"""Both trainers against the episode loop they replaced, kept here as the
oracle: a per-step generator over `SyndromeMdp.step`, an epsilon-greedy
closure, `q_update` and `QTable.greedy` for the table, and the dense
`dqn_loss` with its full target pass and `dq @ W2` for the network.
Tables, networks, losses and gradients must be equal bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq import analysis
from synq.codes import hamming_ball_syndromes
from synq.mdp import VARIANTS, MdpConfig, Step, SyndromeMdp, SyndromeSets, epsilon_at
from synq.neural import (Adam, DqnConfig, MlpNetwork, ReplayBuffer, Sgd, dqn_loss,
                         loss_work, train_dqn)
from synq.tabular import (BallSampler, QTable, SetSampler, TrainConfig, q_update,
                          train_q)
from conftest import rng_for_tests

# ---------------------------------------------------------------------------
# the reference loop
# ---------------------------------------------------------------------------


def rollout(env, s0, policy):
    """Yield the steps of one episode from s0: at most L, none when s0 is terminal."""
    if env.is_terminal(s0):
        return
    s = s0
    for _ in range(env.cfg.L):
        a = policy(s)
        s2, r, terminal = env.step(s, a)
        yield Step(s, a, r, s2, terminal)
        if terminal:
            return
        s = s2


def epsilon_greedy(rng, eps, n, greedy):
    """With probability eps a uniform action, else greedy(s); each call draws
    rng.random(), then rng.integers(n) only when exploring."""
    def policy(s):
        if rng.random() < eps:
            return int(rng.integers(n))
        return greedy(s)
    return policy


def _rng(seed, tag):
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, tag], np.uint64)))


def train_q_reference(env, cfg, sampler, stop_when=None):
    rng = _rng(cfg.seed, 0x7AB1E)
    Q = QTable(env.H.n, env.H.m)
    for t in range(cfg.episodes):
        eps = epsilon_at(t, cfg.eps_max, cfg.eps_min, cfg.episodes)
        policy = epsilon_greedy(rng, eps, env.H.n, Q.greedy)
        for s, a, r, s2, _ in rollout(env, sampler(rng), policy):
            q_update(Q, s, a, r, s2, cfg.alpha, env.cfg.gamma)
        if (stop_when is not None and cfg.check_every
                and (t + 1) % cfg.check_every == 0 and stop_when(Q, t + 1)):
            break
    return Q


def dqn_loss_reference(primary, target, S, A, R, S2, T, gamma):
    B = S.shape[0]
    z1 = S @ primary.W1.T + primary.b1
    h = np.maximum(z1, 0.0)
    q = h @ primary.W2.T + primary.b2
    qsel = q[np.arange(B), A]
    q_next = target.forward_batch(S2)
    y = R + gamma * q_next.max(axis=1) * ~T
    diff = qsel - y
    loss = float(np.mean(diff**2))
    dq = np.zeros_like(q)
    dq[np.arange(B), A] = 2.0 * diff / B
    dW2 = dq.T @ h
    db2 = dq.sum(axis=0)
    dh = dq @ primary.W2
    dz1 = dh * (z1 > 0.0)
    dW1 = dz1.T @ S
    db1 = dz1.sum(axis=0)
    return loss, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


class AdamReference:
    """Adam in its one-line expressions, fresh arrays at every step."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c, b2c = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for k, p in params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            p -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


def train_dqn_reference(env, cfg, sampler, stop_when=None):
    n, m = env.H.n, env.H.m
    rng = _rng(cfg.seed, 0xD62)
    primary = MlpNetwork.init(m, cfg.hidden, n, seed=cfg.seed)
    target = primary.copy()
    params = primary.params()
    opt = (AdamReference if cfg.optimizer == "adam" else Sgd)(params, cfg.lr)
    buffer = ReplayBuffer(min(cfg.buffer_capacity, cfg.episodes * env.cfg.L), m)
    grad_steps = 0

    def greedy(s):
        x = np.array([s >> i & 1 for i in range(m)], dtype=np.float64)
        return int(np.argmax(primary.forward(x)))

    for ep in range(cfg.episodes):
        eps = epsilon_at(ep, cfg.eps_max, cfg.eps_min, cfg.episodes)
        for tr in rollout(env, sampler(rng), epsilon_greedy(rng, eps, n, greedy)):
            buffer.push(tr)
            if len(buffer) >= cfg.batch:
                _, grads = dqn_loss_reference(primary, target,
                                              *buffer.sample(rng, cfg.batch), env.cfg.gamma)
                opt.step(params, grads)
                grad_steps += 1
                if grad_steps % cfg.sync_every == 0:
                    target = primary.copy()
        if (stop_when is not None and cfg.check_every
                and (ep + 1) % cfg.check_every == 0 and stop_when(primary, ep + 1)):
            break
    return primary


# ---------------------------------------------------------------------------
# environments: every variant on the small QC code
# ---------------------------------------------------------------------------

_RADIUS = {"truncated": 2, "bounded_feedback": 3, "bounded_feedback_miscorrect": 3}


@pytest.fixture(scope="module")
def variant_sets(small_qc):
    """The SyndromeSets fields each variant reads, built as `train-q` does."""
    status = dict(zip(("correct", "fail", "misc"),
                      analysis.classify_syndromes(small_qc).status_sets()))
    out = {}
    for variant in VARIANTS:
        cfg = MdpConfig(variant=variant, w=_RADIUS.get(variant))
        need = cfg.set_names
        sets = {k: v for k, v in status.items() if k in need}
        if need & {"bcorrect", "bfail", "bmisc"}:
            sets.update(analysis.bounded_sets(small_qc, cfg.w))
        elif "ball" in need:
            sets["ball"] = hamming_ball_syndromes(small_qc, cfg.w)
        out[variant] = SyndromeSets(**sets)
    return out


def _env(H, sets, variant, L, gamma):
    env = SyndromeMdp(H, MdpConfig(L=L, gamma=gamma, variant=variant,
                                   w=_RADIUS.get(variant)), sets[variant])
    if env.start_states is not None:
        return env, SetSampler(env.start_states)
    return env, BallSampler(H, env.cfg.w or 1)


def _eps_bounds(draw):
    lo = draw(st.floats(0.0, 1.0))
    return lo, draw(st.floats(lo, 1.0))


def _poll(kind, limit):
    """(stop_when, log of the episodes it was polled at): stop once the
    episode count or the table size reaches limit; kind "none" never polls."""
    calls = []

    def stop(model, t):
        calls.append(t)
        return t >= limit if kind == "episodes" else len(model) >= limit
    return (None if kind == "none" else stop), calls


def _rows_bytes(Q):
    return [(s, Q.q_values(s).tobytes()) for s in Q.states()]


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_train_q_equals_the_reference_loop(small_qc, variant_sets, variant, data):
    draw = data.draw
    eps_min, eps_max = _eps_bounds(draw)
    cfg = TrainConfig(episodes=draw(st.integers(1, 400)),
                      alpha=draw(st.floats(0.01, 1.0)), eps_max=eps_max,
                      eps_min=eps_min, seed=draw(st.integers(0, 2**64 - 1)),
                      check_every=draw(st.integers(0, 50)))
    env, sampler = _env(small_qc, variant_sets, variant, L=draw(st.integers(1, 12)),
                        gamma=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    rule = draw(st.sampled_from(["none", "episodes", "rows"])), draw(st.integers(1, 60))
    stop, calls = _poll(*rule)
    stop_ref, calls_ref = _poll(*rule)
    got = train_q(env, cfg, sampler, stop)
    want = train_q_reference(env, cfg, sampler, stop_ref)
    assert _rows_bytes(got) == _rows_bytes(want)
    assert calls == calls_ref
    assert [got.greedy(s) for s in got.states()] == [want.greedy(s) for s in want.states()]


def test_cached_argmax_follows_rows_whose_argmax_falls(hamming):
    # alpha 1 and a penalty sink make rows fall and rise often; the cache
    # must rescan exactly where the reference's argmax moves
    ball = hamming_ball_syndromes(hamming, 1)
    env = SyndromeMdp(hamming, MdpConfig(L=3, gamma=1.0, variant="truncated", w=1),
                      SyndromeSets(ball=ball))
    cfg = TrainConfig(episodes=3000, alpha=1.0, eps_max=1.0, eps_min=0.3, seed=7)
    got = train_q(env, cfg, BallSampler(hamming, 1))
    want = train_q_reference(env, cfg, BallSampler(hamming, 1))
    assert _rows_bytes(got) == _rows_bytes(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_terminal_start_states_take_no_step(hamming, seed):
    # weight-3 errors on the Hamming code include codewords: syndrome 0 is
    # a terminal start, which must give no step and no draw
    env = SyndromeMdp(hamming, MdpConfig(L=4, variant="basic"))
    cfg = TrainConfig(episodes=400, alpha=0.5, seed=seed)
    got = train_q(env, cfg, BallSampler(hamming, 3))
    want = train_q_reference(env, cfg, BallSampler(hamming, 3))
    assert _rows_bytes(got) == _rows_bytes(want)


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), hidden=st.integers(1, 24), n=st.integers(1, 12),
       B=st.integers(1, 40), seed=st.integers(0, 2**32),
       terminal=st.sampled_from(["all", "mixed", "none"]),
       gamma=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_dqn_loss_equals_the_dense_reference(m, hidden, n, B, seed, terminal, gamma):
    rng = rng_for_tests(seed)
    primary = MlpNetwork.init(m, hidden, n, seed=seed)
    target = MlpNetwork.init(m, hidden, n, seed=seed + 1)
    for p in (*primary.params().values(), *target.params().values()):
        p += rng.uniform(-0.5, 0.5, p.shape)  # nonzero biases
    S = (rng.random((B, m)) < 0.5).astype(float)
    S2 = (rng.random((B, m)) < 0.5).astype(float)
    A = rng.integers(0, n, size=B)
    R = rng.uniform(-2.0, 2.0, size=B)
    T = {"all": np.ones(B, bool), "none": np.zeros(B, bool),
         "mixed": np.arange(B) % 2 == 0}[terminal]
    want_loss, want = dqn_loss_reference(primary, target, S, A, R, S2, T, gamma)
    stale = loss_work(primary, B)  # as a previous step leaves it
    for a in stale.values():
        a.fill(True if a.dtype == bool else np.nan)
    for work in (None, stale):
        loss, grads = dqn_loss(primary, target, S, A, R, S2, T, gamma, work)
        assert loss == want_loss
        assert {k: g.tobytes() for k, g in grads.items()} == \
            {k: g.tobytes() for k, g in want.items()}


@settings(max_examples=30, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), steps=st.integers(1, 6),
       seed=st.integers(0, 2**32), lr=st.sampled_from([1e-4, 1e-2, 0.5]))
def test_adam_equals_its_one_line_expressions(shape, steps, seed, lr):
    rng = rng_for_tests(seed)
    p = {"w": rng.standard_normal(shape), "b": rng.standard_normal(shape[0])}
    q = {k: v.copy() for k, v in p.items()}
    opt, ref = Adam(p, lr), AdamReference(q, lr)
    for _ in range(steps):
        grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
        opt.step(p, grads)
        ref.step(q, grads)
        assert {k: v.tobytes() for k, v in p.items()} == {k: v.tobytes() for k, v in q.items()}


def test_all_terminal_batch_skips_the_target_pass(monkeypatch):
    net = MlpNetwork.init(4, 6, 5, seed=1)
    calls = []
    monkeypatch.setattr(MlpNetwork, "forward_batch",
                        lambda self, X: calls.append(len(X)) or np.zeros((len(X), 5)))
    S = np.eye(4)[[0, 1, 2]]
    for T in ([True, True, True], [True, False, True]):
        dqn_loss(net, net.copy(), S, np.array([0, 3, 4]), np.ones(3), S,
                 np.array(T), 0.9)
    assert calls == [3]  # only the mixed batch reads the target network


@pytest.mark.parametrize("variant", ["truncated", "feedback"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_train_dqn_equals_the_reference_loop(small_qc, variant_sets, variant, data):
    draw = data.draw
    eps_min, eps_max = _eps_bounds(draw)
    batch = draw(st.integers(1, 16))
    cfg = DqnConfig(episodes=draw(st.integers(1, 60)), hidden=draw(st.integers(1, 16)),
                    batch=batch, lr=draw(st.sampled_from([1e-3, 1e-2])),
                    eps_max=eps_max, eps_min=eps_min,
                    buffer_capacity=draw(st.integers(batch, 64)),
                    sync_every=draw(st.integers(1, 30)),
                    optimizer=draw(st.sampled_from(["adam", "sgd"])),
                    seed=draw(st.integers(0, 2**64 - 1)),
                    check_every=draw(st.integers(0, 20)))
    env, sampler = _env(small_qc, variant_sets, variant, L=draw(st.integers(1, 6)),
                        gamma=draw(st.sampled_from([0.5, 0.9])))
    rule = draw(st.sampled_from(["none", "episodes"])), draw(st.integers(1, 60))
    stop, calls = _poll(*rule)
    stop_ref, calls_ref = _poll(*rule)
    got = train_dqn(env, cfg, sampler, stop)
    want = train_dqn_reference(env, cfg, sampler, stop_ref)
    assert {k: p.tobytes() for k, p in got.params().items()} == \
        {k: p.tobytes() for k, p in want.params().items()}
    assert calls == calls_ref
