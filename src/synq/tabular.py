"""Tabular Q-learning over syndrome states, with persistence.

The Q-table is a sparse map syndrome -> length-n value row; unseen states
read as all-zero rows, so terminal states (never updated, episodes stop
there) keep the zero value the bootstrap relies on.  Greedy ties resolve to
the lowest action index.

File formats (versioned, documented here and in the README):

  binary .qtab:  magic "QTAB" | u32 version=1 | u32 header_len
                 | header JSON (code_hash, n, m, variant, config; sorted keys)
                 | u64 record_count
                 | records sorted by syndrome: ceil(m/8)-byte little-endian
                   syndrome, then n little-endian float64 action values
  text export:   line "qtable/v1", line "meta <header JSON>", then per state
                 "<syndrome hex> <float.hex() ...>" -- lossless round-trip.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codes import ParityCheckMatrix
from .mdp import SyndromeMdp, epsilon_greedy, rollout

_MAGIC = b"QTAB"
_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    episodes: int
    alpha: float = 0.1
    eps_max: float = 0.9
    eps_min: float = 0.05
    seed: int = 0
    check_every: int = 0  # 0 disables the stop_when hook
    dtype: str = "float64"

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= self.eps_min <= self.eps_max <= 1.0:
            raise ValueError("need 0 <= eps_min <= eps_max <= 1")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")


def epsilon_at(t: int, eps_max: float, eps_min: float, episodes: int) -> float:
    """Linear decay from eps_max at t=0, clamped below at eps_min."""
    return max(eps_min, eps_max - (eps_max - eps_min) * t / episodes)


class QTable:
    """Sparse syndrome-indexed action-value table.

    dtype float32 halves resident memory for multi-million-state runs; files
    always store float64.
    """

    def __init__(self, n: int, m: int, meta: dict | None = None,
                 dtype=np.float64):
        if n < 1 or m < 1:
            raise ValueError(f"table needs n, m >= 1, got {n!r}, {m!r}")
        self.n = n
        self.m = m
        self.meta = dict(meta or {})
        self.dtype = np.dtype(dtype)
        self._rows: dict[int, np.ndarray] = {}
        self._zero = np.zeros(n, dtype=self.dtype)
        self._zero.flags.writeable = False

    def q_values(self, s: int) -> np.ndarray:
        """Value row for s; unseen states read as zeros (no row is created)."""
        return self._rows.get(s, self._zero)

    def q_values_batch(self, states: list[int]) -> np.ndarray:
        return np.stack([self.q_values(s) for s in states])

    def row(self, s: int) -> np.ndarray:
        r = self._rows.get(s)
        if r is None:
            r = self._rows[s] = np.zeros(self.n, dtype=self.dtype)
        return r

    def greedy(self, s: int) -> int:
        return int(self.q_values(s).argmax())

    def states(self):
        return self._rows.keys()

    def __len__(self):
        return len(self._rows)

    def __contains__(self, s: int):
        return s in self._rows


def greedy_policy(Q: QTable, s: int) -> int:
    """Argmax action with lowest-index tie-break."""
    return Q.greedy(s)


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
    """Start syndromes from errors of weight uniform in 1..w, support uniform."""

    def __init__(self, H: ParityCheckMatrix, w: int):
        if not 1 <= w <= H.n:
            raise ValueError("ball radius out of range")
        self.H = H
        self.w = w

    def __call__(self, rng: np.random.Generator) -> int:
        u = int(rng.integers(1, self.w + 1))
        while True:
            idx = rng.integers(0, self.H.n, size=u)
            if len(set(idx.tolist())) == u:
                break
        s = 0
        for i in idx.tolist():
            s ^= self.H.cols_int[i]
        return s


class SetSampler:
    """Start syndromes drawn uniformly from a fixed list (e.g. failure set)."""

    def __init__(self, syndromes):
        self.syndromes = sorted(syndromes)
        if not self.syndromes:
            raise ValueError("empty start-state set")

    def __call__(self, rng: np.random.Generator) -> int:
        return self.syndromes[int(rng.integers(len(self.syndromes)))]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def train_q(
    env: SyndromeMdp,
    cfg: TrainConfig,
    sampler: Callable[[np.random.Generator], int],
    stop_when: Callable[[QTable, int], bool] | None = None,
) -> QTable:
    """Off-policy one-step Q-learning with epsilon-greedy behaviour.

    Deterministic for a fixed seed.  When `stop_when` is given it is polled
    every cfg.check_every episodes and training stops early once it returns
    True (the epsilon schedule still spans cfg.episodes).
    """
    H, n = env.H, env.H.n
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, 0x7AB1E], np.uint64))
    )
    Q = QTable(n, H.m, dtype=cfg.dtype, meta={
        "code_hash": H.code_hash,
        "n": n,
        "m": H.m,
        "variant": env.cfg.variant,
        "config": {
            "episodes": cfg.episodes, "alpha": cfg.alpha,
            "eps_max": cfg.eps_max, "eps_min": cfg.eps_min,
            "seed": cfg.seed, "gamma": env.cfg.gamma, "L": env.cfg.L,
            "w": env.cfg.w,
        },
    })
    alpha, gamma = cfg.alpha, env.cfg.gamma
    for t in range(cfg.episodes):
        eps = epsilon_at(t, cfg.eps_max, cfg.eps_min, cfg.episodes)
        policy = epsilon_greedy(rng, eps, n, Q.greedy)
        for s, a, r, s2, _ in rollout(env, sampler(rng), policy):
            q_update(Q, s, a, r, s2, alpha, gamma)
        if (stop_when is not None and cfg.check_every
                and (t + 1) % cfg.check_every == 0 and stop_when(Q, t + 1)):
            break
    return Q


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _header_bytes(Q: QTable) -> bytes:
    return json.dumps(Q.meta, sort_keys=True, separators=(",", ":")).encode()


def parse_model_file(path, parse: Callable[[bytes], object], what: str):
    """parse(contents of path), with any malformed content raised as ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return parse(blob)
    except (ValueError, LookupError, TypeError, AttributeError, OverflowError,
            MemoryError, struct.error) as exc:  # MemoryError: absurd header sizes
        raise ValueError(f"malformed {what} {path}: {exc}") from None


def save_qtable(Q: QTable, path) -> None:
    syn_bytes = (Q.m + 7) // 8
    header = _header_bytes(Q)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", len(Q)))
        for s in sorted(Q.states()):
            fh.write(s.to_bytes(syn_bytes, "little"))
            fh.write(Q._rows[s].astype("<f8").tobytes())


def load_qtable(path) -> QTable:
    return parse_model_file(path, _qtable_from_bytes, "qtable file")


def _qtable_from_bytes(blob: bytes) -> QTable:
    if blob[:4] != _MAGIC:
        raise ValueError("not a qtable file")
    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported qtable version {version}")
    meta = json.loads(blob[12:12 + hlen].decode())
    off = 12 + hlen
    (count,) = struct.unpack_from("<Q", blob, off)
    off += 8
    Q = QTable(meta["n"], meta["m"], meta)
    syn_bytes = (Q.m + 7) // 8
    rec = syn_bytes + 8 * Q.n
    if len(blob) - off != count * rec:
        raise ValueError(f"truncated qtable ({len(blob) - off} payload bytes)")
    for _ in range(count):
        s = int.from_bytes(blob[off:off + syn_bytes], "little")
        off += syn_bytes
        Q._rows[s] = np.frombuffer(blob[off:off + 8 * Q.n], dtype="<f8").copy()
        off += 8 * Q.n
    return Q


def save_qtable_text(Q: QTable, path) -> None:
    with open(path, "w") as fh:
        fh.write("qtable/v1\n")
        fh.write("meta " + _header_bytes(Q).decode() + "\n")
        for s in sorted(Q.states()):
            values = " ".join(float(v).hex() for v in Q._rows[s])
            fh.write(f"{s:x} {values}\n")


def load_qtable_text(path) -> QTable:
    return parse_model_file(path, _qtable_from_text, "qtable text export")


def _qtable_from_text(blob: bytes) -> QTable:
    lines = blob.decode().splitlines()
    if not lines or lines[0] != "qtable/v1":
        raise ValueError("not a qtable text export")
    if len(lines) < 2 or not lines[1].startswith("meta "):
        raise ValueError("missing meta line")
    meta = json.loads(lines[1][5:])
    Q = QTable(meta["n"], meta["m"], meta)
    for line in lines[2:]:
        if not line:
            continue
        fields = line.split()
        if len(fields) != Q.n + 1:
            raise ValueError("bad record width")
        Q._rows[int(fields[0], 16)] = np.array(
            [float.fromhex(v) for v in fields[1:]]
        )
    return Q
