"""Tabular Q-learning over syndrome states, with persistence.

The Q-table is a sparse map syndrome -> length-n value row; unseen states
read as all-zero rows, so terminal states (never updated, episodes stop
there) keep the zero value the bootstrap relies on.  Greedy ties resolve to
the lowest action index.

Files are `modelfile.QTAB` containers, binary or text, with the header
keys code_hash, n, m, variant and config, and this payload:

  binary .qtab:  u64 little-endian record_count, then one record per state in
                 strictly increasing syndrome order: ceil(m/8)-byte
                 little-endian syndrome (< 2^m), then n little-endian float64
                 action values
  text export:   one line per state, same order:
                 "<syndrome hex> <float.hex() ...>" -- lossless round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import modelfile
from .codes import ParityCheckMatrix
from .mdp import PhiloxDraws, SyndromeMdp, run_episodes


@dataclass(frozen=True)
class TrainConfig:
    episodes: int
    alpha: float = 0.1
    eps_max: float = 0.9
    eps_min: float = 0.05
    seed: int = 0
    check_every: int = 0  # 0 disables the stop_when hook

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= self.eps_min <= self.eps_max <= 1.0:
            raise ValueError("need 0 <= eps_min <= eps_max <= 1")
        if self.check_every < 0:
            raise ValueError("check_every must be >= 0 (0 disables)")


class QTable:
    """Sparse syndrome-indexed action-value table.

    `meta` is the file header and always holds n, m.
    """

    def __init__(self, n: int, m: int, meta: dict | None = None):
        if n < 1 or m < 1:
            raise ValueError(f"table needs n, m >= 1, got {n!r}, {m!r}")
        self.n = n
        self.m = m
        self.meta = {**(meta or {}), "n": n, "m": m}
        self._rows: dict[int, np.ndarray] = {}
        self._zero = np.zeros(n)
        self._zero.flags.writeable = False

    def q_values(self, s: int) -> np.ndarray:
        """Value row for s; unseen states read as zeros (no row is created)."""
        return self._rows.get(s, self._zero)

    def q_values_batch(self, states: list[int]) -> np.ndarray:
        """The q_values rows of states, stacked."""
        return np.array([self._rows.get(s, self._zero) for s in states]).reshape(-1, self.n)

    def row(self, s: int) -> np.ndarray:
        r = self._rows.get(s)
        if r is None:
            r = self._rows[s] = np.zeros(self.n)
        return r

    def greedy(self, s: int) -> int:
        return int(self.q_values(s).argmax())

    def states(self):
        return self._rows.keys()

    def __len__(self):
        return len(self._rows)


def q_update(Q: QTable, s: int, a: int, r: float, s_next: int,
             alpha: float, gamma: float) -> float:
    """One-step update toward r + gamma * max_a' Q(s', a'); returns new Q(s,a)."""
    row = Q.row(s)
    row[a] += alpha * (r + gamma * float(Q.q_values(s_next).max()) - row[a])
    return float(row[a])


# ---------------------------------------------------------------------------
# start-state samplers
# ---------------------------------------------------------------------------


class BallSampler:
    """Start syndromes from errors of weight uniform in 1..w, support uniform.

    Called with a Generator or `mdp.PhiloxDraws`; draws only through
    `integers`, so both give the same syndromes from the same key.
    """

    #: u distinct support bits take prod_{i<u} n/(n-i) tries on average
    MAX_TRIES = 1000

    def __init__(self, H: ParityCheckMatrix, w: int):
        limit, tries = 0, 1.0
        while limit < H.n and tries * H.n / (H.n - limit) <= self.MAX_TRIES:
            tries *= H.n / (H.n - limit)
            limit += 1
        if not 1 <= w <= limit:
            raise ValueError(f"ball radius {w} outside 1..{limit}: larger radii take "
                             f"over {self.MAX_TRIES} tries per draw on average")
        self.H = H
        self.w = w

    def __call__(self, rng) -> int:
        u = int(rng.integers(1, self.w + 1))
        while True:
            # u scalar draws take the same values as one size=u draw, faster
            idx = {int(rng.integers(0, self.H.n)) for _ in range(u)}
            if len(idx) == u:
                break
        s = 0
        for i in idx:
            s ^= self.H.cols_int[i]
        return s


class SetSampler:
    """Start syndromes drawn uniformly from a fixed list (e.g. failure set),
    with one `integers` draw from a Generator or `mdp.PhiloxDraws`."""

    def __init__(self, syndromes):
        self.syndromes = sorted(syndromes)
        if not self.syndromes:
            raise ValueError("empty start-state set")

    def __call__(self, rng) -> int:
        return self.syndromes[int(rng.integers(len(self.syndromes)))]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def train_q(
    env: SyndromeMdp,
    cfg: TrainConfig,
    sampler: Callable[[PhiloxDraws], int],
    stop_when: Callable[[QTable, int], bool] | None = None,
) -> QTable:
    """Off-policy one-step Q-learning with epsilon-greedy behaviour.

    Deterministic for a fixed seed: every draw, the sampler's included,
    comes from one `mdp.PhiloxDraws` over Philox4x64 keyed
    (seed mod 2**64, 0x7AB1E), which gives the values a Generator on that
    key would.  When `stop_when` is given it is polled every
    cfg.check_every episodes and training stops early once it returns True
    (the epsilon schedule still spans cfg.episodes).
    """
    H, n = env.H, env.H.n
    rng = PhiloxDraws(
        np.random.Philox(key=np.array([cfg.seed % 2**64, 0x7AB1E], np.uint64))
    )
    Q = QTable(n, H.m, meta={
        "code_hash": H.code_hash,
        "variant": env.cfg.variant,
        "config": {
            "episodes": cfg.episodes, "alpha": cfg.alpha,
            "eps_max": cfg.eps_max, "eps_min": cfg.eps_min,
            "seed": cfg.seed, "gamma": env.cfg.gamma, "L": env.cfg.L,
            "w": env.cfg.w,
        },
    })
    alpha, gamma = cfg.alpha, env.cfg.gamma
    # the lowest argmax of every row training writes (0 when absent), so that
    # a greedy action is a dict read and a bootstrap target one element read,
    # not numpy scans.  Kept exact: a write moves it to a new maximum or to
    # the lower index on a tie, and rescans the row only when the argmax
    # entry falls
    best: dict[int, int] = {}

    def greedy(s):
        return best.get(s, 0)

    def learn(s, a, r, s2, terminal):
        row = Q.row(s)
        old = row.item(a)  # q_update's arithmetic, on the same doubles
        new = old + alpha * (r + gamma * Q.q_values(s2).item(best.get(s2, 0)) - old)
        row[a] = new
        arg = best.get(s, 0)
        if a == arg:
            if new < old:
                best[s] = int(row.argmax())
        elif new > (top := row.item(arg)) or (new == top and a < arg):
            best[s] = a

    run_episodes(env, cfg, rng, sampler, greedy, learn,
                 None if stop_when is None else lambda t: stop_when(Q, t))
    return Q


# ---------------------------------------------------------------------------
# persistence: the QTAB payload of a `modelfile` container
# ---------------------------------------------------------------------------


def _add_record(Q: QTable, s: int, row: np.ndarray) -> None:
    if s >> Q.m:
        raise ValueError(f"record syndrome {s:x} has more than m = {Q.m} bits")
    if Q._rows and s <= next(reversed(Q._rows)):
        raise ValueError(f"record syndrome {s:x} is not above the one before")
    if not np.isfinite(row).all():
        raise ValueError(f"record syndrome {s:x} has a non-finite action value")
    Q._rows[s] = row


def save_qtable(Q: QTable, path) -> None:
    width = (Q.m + 7) // 8

    def payload():
        yield len(Q).to_bytes(8, "little")
        for s in sorted(Q.states()):
            yield s.to_bytes(width, "little") + Q._rows[s].astype("<f8").tobytes()
    modelfile.save(path, modelfile.QTAB, Q.meta, payload())


def load_qtable(path) -> QTable:
    return modelfile.load(path, modelfile.QTAB, _qtable_from_payload)


def _qtable_from_payload(meta: dict, payload: memoryview) -> QTable:
    Q = QTable(meta["n"], meta["m"], meta)
    width = (Q.m + 7) // 8
    rec = width + 8 * Q.n
    if len(payload) - 8 != int.from_bytes(payload[:8], "little") * rec:
        raise ValueError(f"truncated qtable ({len(payload) - 8} payload bytes)")
    for off in range(8, len(payload), rec):
        _add_record(Q, int.from_bytes(payload[off:off + width], "little"),
                    np.frombuffer(payload, "<f8", Q.n, off + width).copy())
    return Q


def save_qtable_text(Q: QTable, path) -> None:
    modelfile.save_text(path, modelfile.QTAB, Q.meta, (
        f"{s:x} " + " ".join(float(v).hex() for v in Q._rows[s])
        for s in sorted(Q.states())))


def load_qtable_text(path) -> QTable:
    return modelfile.load_text(path, modelfile.QTAB, _qtable_from_lines)


def _qtable_from_lines(meta: dict, lines: list[str]) -> QTable:
    Q = QTable(meta["n"], meta["m"], meta)
    for line in lines:
        s, *values = line.split()
        if len(values) != Q.n:
            raise ValueError("bad record width")
        _add_record(Q, int(s, 16), np.array([float.fromhex(v) for v in values]))
    return Q
