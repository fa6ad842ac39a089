"""Syndrome decoders driven by a learned action-value source.

A Q-source is any object with ``q_values(s) -> np.ndarray`` of per-bit
action values for a packed syndrome s (and optionally ``q_values_batch``).
Decoders flip one code bit per action; the flip set is returned packed.
`Decoder` runs any of the `KINDS` as one picklable callable, one packed word
at a time or, through `Decoder.decode_batch`, over a (B, n) error matrix.

All tie-breaks resolve toward the lower action index; beams break the
remaining ties, equal value and action, toward the better-ranked parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import automorphism as am
from .codes import ParityCheckMatrix, bits_to_ints, ints_to_bits


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
        hit = next((path for path in beam if path.states[-1] == 0), None)
        if hit is not None:
            return DecodeResult(
                True, hit.flips, 0, len(hit.actions), score=hit.score, path=hit
            )
        if depth >= cfg.d_max or not beam:
            break
        qs = _q_batch(qsrc, [path.states[-1] for path in beam])
        pool: list[tuple[float, int, int]] = []  # (-value, action, parent rank)
        for p, (path, q) in enumerate(zip(beam, qs)):
            for a in np.argsort(-q, kind="stable")[: cfg.k]:
                v = float(q[a])
                if v > path.score:
                    pool.append((-v, int(a), p))
        pool.sort(key=lambda item: item[:2])
        beam = [CandidatePath(beam[p].states + [beam[p].states[-1] ^ cols[a]],
                              beam[p].actions + [a], -neg) for neg, a, p in pool[: cfg.k]]
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
    delta); its beam path is pulled back too, so it walks y's syndromes.
    """
    if H.qc is None:
        raise ValueError("automorphism decoding needs a quasi-cyclic code")
    spec = H.qc
    shifts = range(spec.p) if shifts is None else tuple(shifts)
    s = H.syndrome(y)
    if s == 0:
        # a codeword decodes to no flips whatever the shift set
        return action_list_decode(qsrc, 0, H, cfg)
    best = None  # (weight, delta, flips, beam result, inverse permutation)
    for delta in shifts:
        perm, inverse = _shift_perms(spec, delta)
        res = action_list_decode(qsrc, H.syndrome(perm.apply_int(y)), H, cfg)
        if not res.converged:
            continue
        flips = inverse.apply_int(res.flips)
        if H.syndrome(y ^ flips) != 0:
            raise AssertionError("pulled-back flip set is not a valid correction")
        if best is None or (flips.bit_count(), delta) < best[:2]:
            best = (flips.bit_count(), delta, flips, res, inverse)
    if best is None:
        return DecodeResult(False, 0, s, 0)
    _, _, flips, res, inverse = best
    actions = [int(inverse.mapping[a]) for a in res.path.actions]
    states = [s]
    for a in actions:
        states.append(states[-1] ^ H.cols_int[a])
    path = CandidatePath(states, actions, res.score)
    return DecodeResult(True, flips, 0, res.steps, score=res.score, path=path)


@lru_cache(maxsize=None)
def _shift_perms(spec, delta: int):
    """The variable-side permutation of the cyclic shift by delta, and its inverse."""
    perm = am.shift_pair(spec, delta).var
    return perm, perm.inverse()


# ---------------------------------------------------------------------------
# the decode protocol
# ---------------------------------------------------------------------------


KINDS = ("greedy", "list", "bf", "feedback", "auto-list")


@dataclass(frozen=True)
class Decoder:
    """A picklable decoder of one of the `KINDS`.

    Calling it decodes one packed word y -> DecodeResult; `decode_batch`
    decodes the rows of a (B, n) matrix with row-for-row the same flips,
    convergence and steps.  feedback runs at most beam.d_max passes of bf,
    each failed pass followed by one policy flip; greedy is that loop
    without bf.  list and auto-list search with beam, and auto-list's path
    is in y's coordinates.
    """

    kind: str
    qsrc: object
    H: ParityCheckMatrix
    beam: BeamConfig = BeamConfig()
    bf: BitFlipConfig = BitFlipConfig()

    def __call__(self, y: int) -> DecodeResult:
        # the decoders are looked up as module globals at call time, so
        # wrapping them on the module (as a tracer does) sees every call
        if self.kind == "greedy":
            return greedy_decode(self.qsrc, y, self.H, self.beam.d_max)
        if self.kind == "list":
            return action_list_decode(self.qsrc, self.H.syndrome(y), self.H, self.beam)
        if self.kind == "bf":
            return bit_flipping_decode(y, self.H, self.bf)
        if self.kind == "feedback":
            phi = partial(bit_flipping_decode, H=self.H, cfg=self.bf)
            return feedback_decode(phi, self.qsrc, y, self.H, self.beam.d_max)
        if self.kind == "auto-list":
            return automorphism_list_decode(self.qsrc, y, self.H, self.beam)
        raise ValueError(f"unknown decoder kind {self.kind!r}")

    def decode_batch(self, E: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode each row of a (B, n) uint8 error matrix.

        Returns (flips (B, n) uint8, converged (B,) bool, steps (B,) int),
        row b equal to what calling the decoder on row b gives.  Rows with
        a zero syndrome are done before any decoder runs.
        """
        E = np.ascontiguousarray(E, dtype=np.uint8)
        if E.ndim != 2 or E.shape[1] != self.H.n:
            raise ValueError("error patterns must be (B, n)")
        if self.kind not in KINDS:
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        flips = np.zeros_like(E)
        converged = np.ones(len(E), dtype=bool)
        steps = np.zeros(len(E), dtype=np.int64)
        S = self.H.syndrome_batch(E)
        rows = np.flatnonzero(S.any(axis=1))
        if rows.size:
            Y = E[rows]
            if self.kind == "bf":
                out = bf_decode_batch(Y, self.H, self.bf)
            elif self.kind in ("greedy", "feedback"):
                out = self._policy_batch(Y, bits_to_ints(S[rows]))
            else:
                res = [self(y) for y in bits_to_ints(Y)]
                out = (ints_to_bits([r.flips for r in res], self.H.n),
                       [r.converged for r in res], [r.steps for r in res])
            flips[rows], converged[rows], steps[rows] = out
        return flips, converged, steps

    def _policy_batch(self, Y: np.ndarray, ss: list[int]):
        """greedy_decode, or feedback_decode, over rows Y with packed syndromes ss.

        Each pass adds a step to every live row.  For feedback it then runs
        bf_decode_batch on the live rows, each y plus its policy flips so
        far, and retires the rows it corrects.  Every row still live flips
        its argmax-Q bit.  Q rows come from one q_values call per row, as
        the scalar decoders get them, so near-ties break the same way.
        """
        cols = self.H.cols_int
        flips = np.zeros_like(Y)  # the policy flips, then feedback's inner ones
        converged = np.ones(len(Y), dtype=bool)
        steps = np.zeros(len(Y), dtype=np.int64)
        live = np.arange(len(Y))
        for _ in range(self.beam.d_max):
            steps[live] += 1
            if self.kind == "feedback":
                inner, ok, _ = bf_decode_batch(Y[live] ^ flips[live], self.H, self.bf)
                flips[live[ok]] ^= inner[ok]
                live = live[~ok]
            acts = np.array([np.argmax(self.qsrc.q_values(ss[r])) for r in live],
                            dtype=np.intp)
            flips[live, acts] ^= 1
            for r, a in zip(live, acts):
                ss[r] ^= cols[a]
            live = live[[ss[r] != 0 for r in live]]
            if not live.size:
                break
        converged[live] = False
        return flips, converged, steps
