"""Feed-forward action-value network and its training loop, in plain numpy.

One hidden ReLU layer, linear output head, double precision throughout.
Backpropagation is hand-written; the training loop keeps a primary and a
periodically synchronized target copy, samples uniform minibatches from a
ring replay buffer, and takes one gradient step per environment step once
the buffer can fill a batch.  Its behaviour policy reads the primary's
values with `forward`, one matrix-vector product per step.

The Q rows the decoders read, `q_values` and `q_values_batch`, come from
zero-padded gemm blocks of exactly BLOCK = 32 rows, each layer one stacked
matmul over the blocks.  Every block is a product of one fixed shape, so a
row is the same bit for bit whichever rows share its block, wherever it
sits, and at any OpenBLAS thread count; `q_values` is the one-row case.
The rows' last bits depend on BLOCK, which is therefore part of their
definition.  32 rows cost about half as much per row as one gemv each and
keep a one-row call cheap (0.3–0.5 ms at hidden 512 on one Haswell core).

Files are `modelfile.QNET` containers, binary or text, with the header
keys sizes [m, hidden, n], activation, code_hash and config, and this
payload, whose shapes must match sizes:

  binary .qnet:  parameter blocks in order W1 (hidden x m), b1, W2
                 (n x hidden), b2, each row-major little-endian float64
  text export:   one line per tensor, same order:
                 "<name> <rows> <cols> <float.hex() ...>".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modelfile
from .codes import int_to_bits, ints_to_bits
from .mdp import Step, SyndromeMdp, run_episodes

# Rows per gemm block of a network's Q rows: part of their definition (see
# above), not a tuning knob.
BLOCK = 32


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


class MlpNetwork:
    """`meta` is the file header and always holds sizes and activation."""

    def __init__(self, W1, b1, W2, b2, activation: str = "relu",
                 meta: dict | None = None):
        if activation != "relu":
            raise ValueError(f"unsupported activation {activation!r}")
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.activation = activation
        hid, m = self.W1.shape
        n, hid2 = self.W2.shape
        self.meta = {**(meta or {}), "sizes": [m, hid, n], "activation": activation}
        if hid != hid2 or self.b1.shape != (hid,) or self.b2.shape != (n,):
            raise ValueError("layer shapes are inconsistent")
        for p in (self.W1, self.b1, self.W2, self.b2):
            if not np.isfinite(p).all():
                raise ValueError("non-finite network parameters")

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, m: int, hidden: int, n: int, seed: int = 0,
             meta: dict | None = None) -> "MlpNetwork":
        """Uniform(+-sqrt(6/fan_in)) weights, zero biases."""
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, 0x2E7], np.uint64))
        )
        lim1 = np.sqrt(6.0 / m)
        lim2 = np.sqrt(6.0 / hidden)
        return cls(
            rng.uniform(-lim1, lim1, (hidden, m)),
            np.zeros(hidden),
            rng.uniform(-lim2, lim2, (n, hidden)),
            np.zeros(n),
            meta=meta,
        )

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.W1.shape[1], self.W1.shape[0], self.W2.shape[0])

    @property
    def n(self) -> int:
        return self.W2.shape[0]

    @property
    def m(self) -> int:
        return self.W1.shape[1]

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(self.W1.copy(), self.b1.copy(), self.W2.copy(),
                          self.b2.copy(), self.activation, self.meta)

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    # -- inference ----------------------------------------------------------

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """(B, m) float input -> (B, n) action values."""
        if X.ndim != 2 or X.shape[1] != self.m:
            raise ValueError("input width does not match the network")
        h = np.maximum(X @ self.W1.T + self.b1, 0.0)
        return h @ self.W2.T + self.b2

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.maximum(self.W1 @ x + self.b1, 0.0)
        return self.W2 @ h + self.b2

    def q_values(self, s: int) -> np.ndarray:
        """Action values of one syndrome: the one-row case of
        `q_values_batch`, so a row is the same whichever call computes it."""
        return self._block_rows([s])[0]

    def q_values_batch(self, states: list[int]) -> np.ndarray:
        """Row i is q_values(states[i]) bit for bit, whatever the batch;
        each distinct state is evaluated once, repeated rows are copies."""
        index: dict[int, int] = {}
        inverse = [index.setdefault(s, len(index)) for s in states]
        return self._block_rows(list(index))[inverse]

    def _block_rows(self, states: list[int]) -> np.ndarray:
        """Rows of `states`, each layer one stacked matmul over zero-padded
        (blocks, BLOCK, width) input: one gemm of a fixed shape per block."""
        k = len(states)
        X = np.zeros((-(-k // BLOCK) * BLOCK, self.m))
        X[:k] = ints_to_bits(states, self.m)
        X = X.reshape(-1, BLOCK, self.m)
        h = np.maximum(np.matmul(X, self.W1.T) + self.b1, 0.0)
        return (np.matmul(h, self.W2.T) + self.b2).reshape(-1, self.n)[:k]


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------


class ReplayBuffer:
    """Fixed-capacity ring of transitions, one row each in `Step` field order,
    s and s' as m 0/1 bits; push overwrites the oldest row when full."""

    def __init__(self, capacity: int, m: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity, self.m, self._pushed = capacity, m, 0
        self._cols = (np.zeros((capacity, m), np.uint8), np.zeros(capacity, np.int64),
                      np.zeros(capacity), np.zeros((capacity, m), np.uint8),
                      np.zeros(capacity, bool))

    def push(self, tr: Step) -> None:
        row = (int_to_bits(tr.s, self.m), tr.a, tr.r, int_to_bits(tr.s_next, self.m),
               tr.terminal)
        for col, v in zip(self._cols, row):
            col[self._pushed % self.capacity] = v
        self._pushed += 1

    def sample(self, rng: np.random.Generator, k: int):
        """k distinct rows, uniform without replacement, as the (S, A, R, S2,
        T) arrays `dqn_loss` takes, the bit rows in float64."""
        if k > len(self):
            raise ValueError("not enough items to sample")
        idx = rng.choice(len(self), size=k, replace=False)
        S, A, R, S2, T = (col[idx] for col in self._cols)
        return S.astype(np.float64), A, R, S2.astype(np.float64), T

    def __len__(self):
        return min(self._pushed, self.capacity)


# ---------------------------------------------------------------------------
# loss and optimizers
# ---------------------------------------------------------------------------


def loss_work(net: MlpNetwork, batch: int) -> dict[str, np.ndarray]:
    """The arrays `dqn_loss` writes for a batch of `batch` rows: gradients
    shaped like the parameters, and the hidden and output activations."""
    hid, n = net.W1.shape[0], net.n
    return {**{k: np.empty_like(p) for k, p in net.params().items()},
            "z1": np.empty((batch, hid)), "active": np.empty((batch, hid), bool),
            "q": np.empty((batch, n)), "dq": np.empty((batch, n))}


def dqn_loss(
    primary: MlpNetwork,
    target: MlpNetwork,
    S: np.ndarray,
    A: np.ndarray,
    R: np.ndarray,
    S2: np.ndarray,
    T: np.ndarray,
    gamma: float,
    work: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared TD error and its gradients w.r.t. the primary parameters.

    Targets are r for terminal transitions, else r + gamma * max_a' target
    values at s'; the gradient flows only through the primary value of the
    taken action.  Every array is written into `work` (`loss_work`, fresh
    when None), so that training, which passes one for all its steps,
    allocates none per step; the gradients returned are views into it.
    """
    B, rows = S.shape[0], np.arange(S.shape[0])
    w = loss_work(primary, B) if work is None else work
    z1 = np.matmul(S, primary.W1.T, out=w["z1"])
    z1 += primary.b1
    active = np.greater(z1, 0.0, out=w["active"])
    h = np.maximum(z1, 0.0, out=z1)
    q = np.matmul(h, primary.W2.T, out=w["q"])
    q += primary.b2
    qsel = q[rows, A]

    if T.all():
        y = R  # r + gamma * max * 0 is r: the target pass cannot change a row
    else:
        y = R + gamma * target.forward_batch(S2).max(axis=1) * ~T

    diff = qsel - y
    loss = float(np.mean(diff**2))

    g = 2.0 * diff / B
    dq = w["dq"]
    dq.fill(0.0)
    dq[rows, A] = g
    np.matmul(dq.T, h, out=w["W2"])
    np.sum(dq, axis=0, out=w["b2"])
    # dq @ W2, whose rows have one nonzero each, into h's buffer
    dz1 = np.take(primary.W2, A, axis=0, out=h)
    dz1 *= g[:, None]
    dz1 *= active
    np.matmul(dz1.T, S, out=w["W1"])
    np.sum(dz1, axis=0, out=w["b1"])
    return loss, {k: w[k] for k in ("W1", "b1", "W2", "b2")}


class Adam:

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._work = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """p -= lr * (m / b1c) / (sqrt(v / b2c) + eps) after the moment
        updates, computed in place and in two scratch arrays per parameter
        with every operation in that order, so the result is bit-identical
        to the one-line expression and a step allocates nothing."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            num, den = self._work[k]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=num)
            g2 = np.multiply(1.0 - self.beta2, g, out=den)
            g2 *= g
            v *= self.beta2
            v += g2
            np.divide(m, b1c, out=num)
            num *= self.lr
            np.divide(v, b2c, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p -= num


class Sgd:

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr

    def step(self, params, grads) -> None:
        for k, p in params.items():
            p -= self.lr * grads[k]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DqnConfig:
    episodes: int
    hidden: int = 512
    batch: int = 128
    lr: float = 1e-4
    eps_max: float = 0.9
    eps_min: float = 0.05
    buffer_capacity: int = 100_000
    sync_every: int = 1000
    optimizer: str = "adam"
    seed: int = 0
    check_every: int = 0

    def __post_init__(self):
        if self.episodes < 1 or self.hidden < 1:
            raise ValueError("episodes and hidden size must be >= 1")
        if self.batch < 1 or self.batch > self.buffer_capacity:
            raise ValueError("need 1 <= batch <= buffer_capacity")
        if not (self.lr > 0 and math.isfinite(self.lr)) or self.sync_every < 1:
            raise ValueError("lr must be positive and finite, sync_every >= 1")
        if self.check_every < 0:
            raise ValueError("check_every must be >= 0 (0 disables)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.eps_min <= self.eps_max <= 1.0:
            raise ValueError("need 0 <= eps_min <= eps_max <= 1")


def train_dqn(
    env: SyndromeMdp,
    cfg: DqnConfig,
    sampler,
    stop_when=None,
) -> MlpNetwork:
    """Deep Q-learning on the syndrome process; returns the primary network.

    Deterministic for a fixed seed.  Raises RuntimeError when the loss goes
    non-finite (training divergence).  `stop_when(net, episode)` is polled
    every cfg.check_every episodes for early exit.  Draws come from a numpy
    Generator, not `mdp.PhiloxDraws`: `ReplayBuffer.sample` calls
    `rng.choice(replace=False)`, which that stream does not provide, and
    a step's time goes to gemm and Adam, not to scalar draws.
    """
    H, n, m = env.H, env.H.n, env.H.m
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed % 2**64, 0xD62], np.uint64))
    )
    meta = {
        "code_hash": H.code_hash,
        "config": {
            "episodes": cfg.episodes, "batch": cfg.batch, "lr": cfg.lr,
            "eps_max": cfg.eps_max, "eps_min": cfg.eps_min,
            "buffer_capacity": cfg.buffer_capacity,
            "sync_every": cfg.sync_every, "optimizer": cfg.optimizer,
            "seed": cfg.seed, "gamma": env.cfg.gamma, "L": env.cfg.L,
            "variant": env.cfg.variant, "w": env.cfg.w,
        },
    }
    primary = MlpNetwork.init(m, cfg.hidden, n, seed=cfg.seed, meta=meta)
    target = primary.copy()
    params = primary.params()
    opt = (Adam if cfg.optimizer == "adam" else Sgd)(params, cfg.lr)
    # an episode pushes at most L rows, so no larger ring can fill
    buffer = ReplayBuffer(min(cfg.buffer_capacity, cfg.episodes * env.cfg.L), m)
    gamma = env.cfg.gamma
    grad_steps, episode = 0, -1
    work = loss_work(primary, cfg.batch)

    def start(rng):
        nonlocal episode
        episode += 1
        return sampler(rng)

    def greedy(s):
        return int(np.argmax(primary.forward(int_to_bits(s, m).astype(np.float64))))

    def learn(s, a, r, s2, terminal):
        nonlocal target, grad_steps
        buffer.push(Step(s, a, r, s2, terminal))
        if len(buffer) >= cfg.batch:
            loss, grads = dqn_loss(primary, target, *buffer.sample(rng, cfg.batch),
                                   gamma, work)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at episode {episode}, "
                    f"gradient step {grad_steps}"
                )
            opt.step(params, grads)
            grad_steps += 1
            if grad_steps % cfg.sync_every == 0:
                target = primary.copy()

    run_episodes(env, cfg, rng, start, greedy, learn,
                 None if stop_when is None else lambda t: stop_when(primary, t))
    return primary


# ---------------------------------------------------------------------------
# persistence: the QNET payload of a `modelfile` container
# ---------------------------------------------------------------------------


def _network_from(meta: dict, tensors: dict[str, np.ndarray]) -> MlpNetwork:
    net = MlpNetwork(tensors["W1"], tensors["b1"].ravel(), tensors["W2"],
                     tensors["b2"].ravel(), meta.get("activation", "relu"), meta)
    if list(net.sizes) != meta["sizes"]:
        raise ValueError(f"tensors have sizes {list(net.sizes)}, "
                         f"header says {meta['sizes']}")
    return net


def save_network(net: MlpNetwork, path) -> None:
    modelfile.save(path, modelfile.QNET, net.meta, (
        np.ascontiguousarray(p, dtype="<f8").tobytes()
        for p in net.params().values()))


def load_network(path) -> MlpNetwork:
    return modelfile.load(path, modelfile.QNET, _network_from_payload)


def _network_from_payload(meta: dict, payload: memoryview) -> MlpNetwork:
    m, hidden, n = meta["sizes"]
    shapes = [(hidden, m), (hidden,), (n, hidden), (n,)]
    ends = np.cumsum([np.prod(sh, dtype=int) for sh in shapes])
    if len(payload) != 8 * ends[-1]:
        raise ValueError("truncated network file")
    flat = np.split(np.frombuffer(payload, "<f8").copy(), ends[:-1])
    return _network_from(meta, {name: p.reshape(sh) for name, p, sh
                                in zip(("W1", "b1", "W2", "b2"), flat, shapes)})


def save_network_text(net: MlpNetwork, path) -> None:
    mats = {name: np.atleast_2d(p) for name, p in net.params().items()}
    modelfile.save_text(path, modelfile.QNET, net.meta, (
        f"{name} {a.shape[0]} {a.shape[1]} " + " ".join(float(v).hex() for v in a.ravel())
        for name, a in mats.items()))


def load_network_text(path) -> MlpNetwork:
    return modelfile.load_text(path, modelfile.QNET, _network_from_lines)


def _network_from_lines(meta: dict, lines: list[str]) -> MlpNetwork:
    tensors = {}
    for line in lines:
        name, rows, cols, *values = line.split()
        tensors[name] = np.array([float.fromhex(v) for v in values]).reshape(
            int(rows), int(cols))
    return _network_from(meta, tensors)
