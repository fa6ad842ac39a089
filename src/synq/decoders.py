"""Syndrome decoders driven by a learned action-value source.

A Q-source is any object with ``q_values(s) -> np.ndarray`` of per-bit
action values for a packed syndrome s (and optionally ``q_values_batch``).
Decoders flip one code bit per action; the flip set is returned packed.

All tie-breaks resolve toward the lower action index; beams break residual
score ties toward shorter paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import automorphism as am
from .codes import ParityCheckMatrix


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class CandidatePath:
    """A beam-search path: visited syndromes, actions taken, score of the tail."""

    states: list[int]
    actions: list[int]
    score: float

    def verify(self, H: ParityCheckMatrix) -> bool:
        return all(
            self.states[i] ^ H.cols_int[self.actions[i]] == self.states[i + 1]
            for i in range(len(self.actions))
        )

    @property
    def flips(self) -> int:
        x = 0
        for a in self.actions:
            x ^= 1 << a
        return x


@dataclass
class DecodeResult:
    converged: bool
    flips: int
    final_syndrome: int
    steps: int
    score: float | None = None
    path: CandidatePath | None = None

    def __post_init__(self):
        if self.converged != (self.final_syndrome == 0):
            raise ValueError("status inconsistent with final syndrome")

    @property
    def status(self) -> str:
        return "Converged" if self.converged else "Failed"


class ZeroQ:
    """All-zero Q-source; argmax always picks bit 0."""

    def __init__(self, n: int):
        self.n = n

    def q_values(self, s: int) -> np.ndarray:
        return np.zeros(self.n)


def _q_batch(qsrc, states: list[int]) -> np.ndarray:
    if hasattr(qsrc, "q_values_batch"):
        return qsrc.q_values_batch(states)
    return np.stack([qsrc.q_values(s) for s in states])


# ---------------------------------------------------------------------------
# greedy policy decoding
# ---------------------------------------------------------------------------


def greedy_decode(
    qsrc, y: int, H: ParityCheckMatrix, max_steps: int = 10, trace: list | None = None
) -> DecodeResult:
    """Repeatedly flip the argmax-Q bit until zero syndrome or max_steps."""
    s = H.syndrome(y)
    flips = 0
    steps = 0
    while s and steps < max_steps:
        q = qsrc.q_values(s)
        a = int(np.argmax(q))
        if trace is not None:
            trace.append((s, a, float(q[a])))
        flips ^= 1 << a
        s ^= H.cols_int[a]
        steps += 1
    return DecodeResult(s == 0, flips, s, steps)


# ---------------------------------------------------------------------------
# action-list (beam) decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamConfig:
    k: int = 5
    d_max: int = 10

    def __post_init__(self):
        if self.k < 1 or self.d_max < 1:
            raise ValueError("beam width and depth must be >= 1")


def _first_valid(beam: list[CandidatePath]) -> CandidatePath | None:
    for path in beam:
        if path.states[-1] == 0:
            return path
    return None


def action_list_decode(
    qsrc, s0: int, H: ParityCheckMatrix, cfg: BeamConfig = BeamConfig()
) -> DecodeResult:
    """Beam search over flip sequences, keeping the k best-scoring paths.

    The root is expanded to its top-k actions unconditionally; deeper
    extensions must strictly improve on the parent path's score.  After each
    global prune the highest-scoring zero-syndrome path, if any, is returned.
    """
    if s0 == 0:
        return DecodeResult(True, 0, 0, 0, score=0.0, path=CandidatePath([0], [], 0.0))
    cols = H.cols_int
    q0 = qsrc.q_values(s0)
    order = np.argsort(-q0, kind="stable")[: cfg.k]
    beam = [
        CandidatePath([s0, s0 ^ cols[a]], [int(a)], float(q0[a])) for a in order
    ]
    depth = 1
    while True:
        hit = _first_valid(beam)
        if hit is not None:
            return DecodeResult(
                True, hit.flips, 0, len(hit.actions), score=hit.score, path=hit
            )
        if depth >= cfg.d_max or not beam:
            break
        qs = _q_batch(qsrc, [path.states[-1] for path in beam])
        pool: list[tuple[float, int, int, CandidatePath]] = []
        for path, q in zip(beam, qs):
            tail = path.states[-1]
            for a in np.argsort(-q, kind="stable")[: cfg.k]:
                v = float(q[a])
                if v > path.score:
                    child = CandidatePath(
                        path.states + [tail ^ cols[a]], path.actions + [int(a)], v
                    )
                    pool.append((-v, int(a), len(child.actions), child))
        pool.sort(key=lambda item: item[:3])
        beam = [item[3] for item in pool[: cfg.k]]
        depth += 1
    return DecodeResult(False, 0, s0, depth)


# ---------------------------------------------------------------------------
# parallel bit flipping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitFlipConfig:
    tau: int = 2
    max_iter: int = 30

    def __post_init__(self):
        if self.tau < 1 or self.max_iter < 1:
            raise ValueError("tau and max_iter must be >= 1")


def bit_flipping_decode(
    y: int, H: ParityCheckMatrix, cfg: BitFlipConfig = BitFlipConfig()
) -> DecodeResult:
    """Flip every bit with >= tau unsatisfied checks, all at once, per iteration.

    Stops at zero syndrome, at a fixed point (no bit reaches tau), or after
    max_iter iterations.
    """
    cols = H.cols_int
    s = H.syndrome(y)
    flips = 0
    iters = 0
    while s and iters < cfg.max_iter:
        mask = 0
        for i in range(H.n):
            if (s & cols[i]).bit_count() >= cfg.tau:
                mask |= 1 << i
        if mask == 0:
            break
        flips ^= mask
        s ^= H.syndrome(mask)
        iters += 1
    return DecodeResult(s == 0, flips, s, iters)


def bf_decode_batch(
    patterns: np.ndarray, H: ParityCheckMatrix, cfg: BitFlipConfig = BitFlipConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized bit_flipping_decode over a (B, n) uint8 pattern matrix.

    Returns (flips, converged, iterations); row semantics identical to the
    scalar routine.
    """
    X = np.ascontiguousarray(patterns, dtype=np.uint8)
    if X.ndim != 2 or X.shape[1] != H.n:
        raise ValueError("patterns must be (B, n)")
    flips = np.zeros_like(X)
    iters = np.zeros(X.shape[0], dtype=np.int32)
    active = np.arange(X.shape[0])
    work = X.copy()
    S = H.syndrome_batch(work)
    for _ in range(cfg.max_iter):
        unsat = S.astype(np.float32) @ H._HT.T
        flip = (unsat >= cfg.tau).astype(np.uint8)
        alive = (S.any(axis=1)) & (flip.any(axis=1))
        if not alive.any():
            break
        active = active[alive]
        flip = flip[alive]
        work[active] ^= flip
        flips[active] ^= flip
        iters[active] += 1
        S = H.syndrome_batch(work[active])
    converged = ~H.syndrome_batch(work).any(axis=1)
    return flips, converged, iters


# ---------------------------------------------------------------------------
# feedback decoding around an inner decoder
# ---------------------------------------------------------------------------


def feedback_decode(
    phi,
    qsrc,
    y: int,
    H: ParityCheckMatrix,
    max_outer: int = 10,
    trace: list | None = None,
) -> DecodeResult:
    """Run the inner decoder phi; on failure flip one policy bit and retry.

    phi is a callable (word) -> DecodeResult.  The policy sees the syndrome
    of phi's current input.  At most max_outer invocations of phi.
    """
    x_in = y
    s_in = H.syndrome(y)
    outer = 0
    while s_in and outer < max_outer:
        inner = phi(x_in)
        outer += 1
        if inner.converged:
            x_out = x_in ^ inner.flips
            return DecodeResult(True, y ^ x_out, 0, outer)
        q = qsrc.q_values(s_in)
        a = int(np.argmax(q))
        if trace is not None:
            trace.append((s_in, a, float(q[a])))
        x_in ^= 1 << a
        s_in ^= H.cols_int[a]
    return DecodeResult(s_in == 0, y ^ x_in, s_in, outer)


# ---------------------------------------------------------------------------
# automorphism ensemble around the action-list decoder
# ---------------------------------------------------------------------------


def automorphism_list_decode(
    qsrc,
    y: int,
    H: ParityCheckMatrix,
    cfg: BeamConfig = BeamConfig(),
    shifts=None,
) -> DecodeResult:
    """Beam-decode every cyclically shifted copy of y and keep the best.

    For each shift delta the received word is permuted, decoded, and the
    converged flip set pulled back through the inverse permutation.  Among
    converged candidates the minimum-weight flip set wins (ties: smallest
    delta).
    """
    if H.qc is None:
        raise ValueError("automorphism decoding needs a quasi-cyclic code")
    spec = H.qc
    shifts = range(spec.p) if shifts is None else tuple(shifts)
    s = H.syndrome(y)
    if s == 0 and shifts:
        # every shifted copy is a codeword too and decodes to no flips
        return action_list_decode(qsrc, 0, H, cfg)
    best: tuple[int, int, DecodeResult] | None = None
    for delta in shifts:
        perm, inverse = _shift_perms(spec, delta)
        y_perm = perm.apply_int(y)
        res = action_list_decode(qsrc, H.syndrome(y_perm), H, cfg)
        if not res.converged:
            continue
        flips = inverse.apply_int(res.flips)
        if H.syndrome(y ^ flips) != 0:
            raise AssertionError("pulled-back flip set is not a valid correction")
        cand = DecodeResult(True, flips, 0, res.steps, score=res.score, path=res.path)
        key = (flips.bit_count(), delta)
        if best is None or key < best[:2]:
            best = (key[0], key[1], cand)
    if best is None:
        return DecodeResult(False, 0, s, 0)
    return best[2]


@lru_cache(maxsize=None)
def _shift_perms(spec, delta: int):
    """The variable-side permutation of the cyclic shift by delta, and its inverse."""
    perm = am.shift_pair(spec, delta).var
    return perm, perm.inverse()
