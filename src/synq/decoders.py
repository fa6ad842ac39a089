"""Syndrome decoders driven by a learned action-value source.

A Q-source gives the per-bit action values of a packed syndrome s as
``q_values(s)``, and of a list of syndromes as ``q_values_batch(states)``,
whose row i equals ``q_values(states[i])`` bit for bit however many share
the call, so no decode depends on how frames or shifts are batched.  A
table copies its stored rows; a network computes them in gemm blocks of a
fixed 32 rows (`neural.BLOCK`), whose rows depend neither on their
neighbours nor on the BLAS thread count.
Decoders flip one code bit per action; the flip set is returned packed.
`Decoder` runs any of the `KINDS` as one picklable callable, one packed word
at a time or, through `Decoder.decode_batch`, over a (B, n) error matrix.

Every kind's (flips, converged, steps) is a function of the syndrome alone:
greedy, list and auto-list start from it, bit flipping's flips grow from
it, and a feedback pass runs bit flipping on y ^ x, whose syndrome is
s ^ syn(x).  So a batch decodes each distinct syndrome once, and a
`SyndromeMemo` lets the calls of one run (one `sim.run_point` per worker)
share the results of the syndromes met in its first MEMO_CAP nonzero rows.

The batch loops iterate on each row's syndrome and its flips grown from
zero, and a step of bit flipping or of a policy pass is a function of the
flips alone.  They share one cycle rule: every live row's flips are saved
after steps 0, 2, 4, 8, ..., and a row whose flips after step t equal those
saved after step s has stepped through a whole period of t - s without
stopping, so it never stops, and its steps left shrink mod t - s.

All tie-breaks resolve toward the lower action index; beams break the
remaining ties, equal value and action, toward the better-ranked parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, count, repeat
from operator import xor

import numpy as np

from . import automorphism as am
from .codes import ParityCheckMatrix, bits_to_ints, int_to_bits, packed_rows

Q_CHUNK = 1024  # syndromes whose Q rows are read at once
MEMO_CAP = 1 << 14  # nonzero rows, so syndromes, a SyndromeMemo stores at most


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
        return all(self.states[i] ^ H.cols_int[a] == self.states[i + 1]
                   for i, a in enumerate(self.actions))

    @property
    def flips(self) -> int:
        return reduce(xor, (1 << a for a in self.actions), 0)


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

    def q_values_batch(self, states: list[int]) -> np.ndarray:
        return np.zeros((len(states), self.n))


# ---------------------------------------------------------------------------
# greedy and feedback policy decoding
# ---------------------------------------------------------------------------


def greedy_decode(qsrc, y: int, H: ParityCheckMatrix, max_steps: int = 10,
                  trace: list | None = None) -> DecodeResult:
    """Repeatedly flip the argmax-Q bit until zero syndrome or max_steps."""
    return _policy_loop(None, qsrc, y, H, max_steps, trace)


def feedback_decode(phi, qsrc, y: int, H: ParityCheckMatrix, max_outer: int = 10,
                    trace: list | None = None) -> DecodeResult:
    """Run the inner decoder phi; on failure flip one policy bit and retry.

    phi is a callable (word) -> DecodeResult.  The policy sees the syndrome
    of phi's current input.  At most max_outer invocations of phi.
    """
    return _policy_loop(phi, qsrc, y, H, max_outer, trace)


def _policy_loop(phi, qsrc, y: int, H: ParityCheckMatrix, max_steps: int,
                 trace: list | None) -> DecodeResult:
    """Each pass adds a step, ends the decode if phi (when given) corrects y
    plus the policy flips so far, and otherwise flips the argmax-Q bit."""
    x, s, steps = y, H.syndrome(y), 0
    while s and steps < max_steps:
        steps += 1
        if phi is not None and (inner := phi(x)).converged:
            return DecodeResult(True, y ^ x ^ inner.flips, 0, steps)
        q = qsrc.q_values(s)
        a = int(np.argmax(q))
        if trace is not None:
            trace.append((s, a, float(q[a])))
        x ^= 1 << a
        s ^= H.cols_int[a]
    return DecodeResult(s == 0, y ^ x, s, steps)


# ---------------------------------------------------------------------------
# action-list (beam) decoding and its automorphism ensemble
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamConfig:
    k: int = 5
    d_max: int = 10

    def __post_init__(self):
        if self.k < 1 or self.d_max < 1:
            raise ValueError("beam width and depth must be >= 1")


def action_list_decode(qsrc, s0: int, H: ParityCheckMatrix,
                       cfg: BeamConfig = BeamConfig()) -> DecodeResult:
    """Beam search over flip sequences, keeping the k best-scoring paths.

    The root is expanded to its top-k actions unconditionally; deeper
    extensions must strictly improve on the parent path's score.  After each
    global prune the highest-scoring zero-syndrome path, if any, is returned.
    """
    return _result(s0, _beam(qsrc, [s0], H, cfg), H)


def _beam(qsrc, roots: list[int], H: ParityCheckMatrix, cfg: BeamConfig):
    """`action_list_decode` from every packed root syndrome at once, all
    beams advancing together as one list of paths grouped by root and in
    beam order within a root.  Each depth extends every path by the
    `_top_k` actions of its Q row, then prunes each root to its k best.
    Returns (flips, converged, steps, score, actions) per root, the actions
    of its hit padded with -1."""
    tail = np.array(roots, dtype=object)
    converged, steps, score = tail == 0, np.zeros(tail.size, np.int64), np.zeros(tail.size)
    actions = np.empty((tail.size, 0), dtype=np.intp)
    cols = np.array(H.cols_int, dtype=object)
    # a live root is a path of depth 0, scored below any action value so
    # that it expands to its top k unconditionally
    root = np.flatnonzero(~converged)
    tail, value, path = tail[root], np.full(root.size, -np.inf), actions[root]
    for depth in range(1, cfg.d_max + 1):
        if not root.size:
            break
        steps[root] = depth
        top, val = [], []
        for lo in range(0, tail.size, Q_CHUNK):
            q = qsrc.q_values_batch(tail[lo:lo + Q_CHUNK].tolist())
            top.append(_top_k(q, cfg.k))
            val.append(np.take_along_axis(q, top[-1], axis=1))
        top, val = np.concatenate(top), np.concatenate(val)
        parent, j = np.nonzero(val > value[:, None])
        a, v, r = top[parent, j], val[parent, j], root[parent]
        order = np.lexsort((parent, a, -v, r))
        keep = order[np.arange(r.size) - np.searchsorted(r[order], r[order]) < cfg.k]
        parent, a = parent[keep], a[keep]
        root, value, tail = root[parent], v[keep], tail[parent] ^ cols[a]
        path = np.column_stack((path[parent], a))
        zero = np.flatnonzero(tail == 0)
        hit, first = np.unique(root[zero], return_index=True)
        converged[hit], score[hit] = True, value[zero[first]]
        actions = np.column_stack((actions, np.full(len(roots), -1)))
        actions[hit] = path[zero[first]]
        live = ~converged[root]
        root, value, tail, path = root[live], value[live], tail[live], path[live]
    flips = np.zeros((len(roots), H.n), dtype=np.uint8)
    r, c = np.nonzero(actions >= 0)
    np.bitwise_xor.at(flips, (r, actions[r, c]), 1)
    return flips, converged, steps, score, actions


def _top_k(q: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of ``np.argsort(-q, axis=1, kind="stable")``
    for a 2-D q whose rows are finite: each row's k largest entries, ties
    (-0.0 and 0.0 among them) toward the lower index.  Each of the
    min(k, n) argmax passes masks its picks with -inf in a copy of q, so
    the Q-source's rows are never written."""
    if k == 1:
        return q.argmax(axis=1)[:, None]
    q, rows = q.copy(), np.arange(len(q))
    top = np.empty((len(q), min(k, q.shape[1])), dtype=np.intp)
    for j in range(top.shape[1]):
        top[:, j] = q.argmax(axis=1)
        q[rows, top[:, j]] = -np.inf
    return top


def _result(s0: int, found, H: ParityCheckMatrix) -> DecodeResult:
    """Row 0 of a `_beam` or `_ensemble` output as the result for root s0."""
    _, converged, steps, score, actions = (x[0] for x in found)
    if not converged:
        return DecodeResult(False, 0, s0, int(steps))
    actions = actions[:steps].tolist()
    states = list(accumulate(actions, lambda s, a: s ^ H.cols_int[a], initial=s0))
    path = CandidatePath(states, actions, float(score))
    return DecodeResult(True, path.flips, 0, len(actions), score=path.score, path=path)


def automorphism_list_decode(qsrc, y: int, H: ParityCheckMatrix,
                             cfg: BeamConfig = BeamConfig(), shifts=None) -> DecodeResult:
    """Beam-decode every cyclically shifted copy of y and keep the best.

    One beam searches the shifted copies' syndromes.  Among converged shifts
    the minimum-weight flip set wins (ties: smallest delta), and only the
    winner is pulled back: its flips and its beam path, which walks y's syndromes.
    """
    if H.qc is None:
        raise ValueError("automorphism decoding needs a quasi-cyclic code")
    shifts = range(H.qc.p) if shifts is None else tuple(shifts)
    s = H.syndrome(y)
    if s == 0:  # a codeword decodes to no flips whatever the shift set
        return action_list_decode(qsrc, 0, H, cfg)
    if not shifts:
        return DecodeResult(False, 0, s, 0)
    return _result(s, _ensemble(qsrc, int_to_bits(s, H.m)[None], H, cfg, shifts), H)


def _ensemble(qsrc, S: np.ndarray, H: ParityCheckMatrix, cfg: BeamConfig, shifts):
    """automorphism_list_decode over the rows of a (B, m) syndrome matrix:
    `_beam`'s output for each row's winning shift, pulled back into the
    row's coordinates (0 steps where no shift converges).  The syndrome of
    sigma^delta(e) is sigma^delta's check permutation of e's syndrome, so
    the beam roots are read off S without a shifted word.  A shift keeps
    the flip weight, so the winner is picked before the pull-back."""
    # the sigma^-delta pairs, inverse to sigma^delta, without the whole group
    var, chk = (am._necklace_rows(blocks, H.qc.p, 0, 1, -np.array(sorted(set(shifts))))
                for blocks in (H.qc.k_blocks, H.qc.j))
    B, P = len(S), len(var)
    # root b*P + j is the syndrome of word b shifted by delta j: its check i
    # is check chk[j, i] of the word's syndrome, as its bit i is bit var[j, i]
    flips_of_shifted, converged, steps, score, actions = _beam(
        qsrc, bits_to_ints(S[:, chk].reshape(B * P, H.m)), H, cfg)
    weight = np.where(converged, flips_of_shifted.sum(axis=1), H.n + 1).reshape(B, P)
    win = weight.argmin(axis=1)  # the first minimum, at the smallest delta
    r = np.arange(B) * P + win
    actions = np.where(actions[r] >= 0, np.take_along_axis(
        var[win], np.maximum(actions[r], 0), axis=1), -1)
    flips, converged = np.zeros((B, H.n), dtype=np.uint8), converged[r]
    np.put_along_axis(flips, var[win], flips_of_shifted[r], axis=1)
    if (H.syndrome_batch(flips) != S)[converged].any():
        raise AssertionError("pulled-back flip set is not a valid correction")
    return flips, converged, np.where(converged, steps[r], 0), score[r], actions


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


def bit_flipping_decode(y: int, H: ParityCheckMatrix,
                        cfg: BitFlipConfig = BitFlipConfig()) -> DecodeResult:
    """Flip every bit with >= tau unsatisfied checks, all at once, per iteration.

    Stops at zero syndrome, at a fixed point (no bit reaches tau), or after
    max_iter iterations.
    """
    cols = H.cols_int
    s = H.syndrome(y)
    flips = iters = 0
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
    scalar routine, whose syndrome and flips every live row carries.  The
    rows advance together under the module's cycle rule.
    """
    X = np.ascontiguousarray(patterns, dtype=np.uint8)
    if X.ndim != 2 or X.shape[1] != H.n:
        raise ValueError("patterns must be (B, n)")
    flips, converged, iters = np.zeros_like(X), np.zeros(len(X), bool), np.zeros(len(X), np.int32)
    # the live rows: index, syndrome, flips, iterations left, packed flips after s
    row, S, F = np.arange(len(X)), H.syndrome_batch(X), flips.copy()
    left, saved, s, t = np.full(len(X), cfg.max_iter), np.packbits(F, axis=1), 0, 0
    while row.size:
        flip = S.astype(np.float32) @ H._HT.T >= cfg.tau
        done = (left == 0) | ~S.any(axis=1) | ~flip.any(axis=1)
        if done.any():
            r = row[done]
            flips[r], converged[r] = F[done], ~S[done].any(axis=1)
            iters[r] = cfg.max_iter - left[done]
            row, S, F, flip, left, saved = (v[~done] for v in (row, S, F, flip, left, saved))
        F ^= flip
        S ^= H.syndrome_batch(flip)
        left, t = left - 1, t + 1
        packed = np.packbits(F, axis=1)
        left[(packed == saved).all(axis=1)] %= t - s
        if t >= 2 and not t & (t - 1):
            saved, s = packed, t
    return flips, converged, iters


# ---------------------------------------------------------------------------
# the decode protocol
# ---------------------------------------------------------------------------


class SyndromeMemo(dict):
    """The results of the syndromes one decoder has decoded, for the
    `Decoder.decode_batch` calls of one run to share.

    It maps the `packed_rows` key of each syndrome to its row of `results`,
    a record array of (flips packed as `packed_rows` packs, converged,
    steps).  A call hands out rows top, top + 1, ... to its nonzero rows in
    turn, so one setdefault pass numbers its syndromes and a row's
    syndrome is new exactly where it keeps its own number.  Rows from
    MEMO_CAP on serve one call only, their syndromes decoded but not
    stored, which bounds the memory held.
    """

    results, top = None, 0

    def reserve(self, rows: int, n: int) -> None:
        """Make room for `rows` rows past top for an n-bit code."""
        if self.results is not None and self.top + rows <= len(self.results):
            return
        grown = np.empty(2 * (self.top + rows), [("flips", np.uint8, ((n + 7) // 8,)),
                                                 ("converged", bool), ("steps", np.int64)])
        if self.results is not None:
            grown[:len(self.results)] = self.results
        self.results = grown


KINDS = ("greedy", "list", "bf", "feedback", "auto-list")


@dataclass(frozen=True)
class Decoder:
    """A picklable decoder of one of the `KINDS`.

    Calling it decodes one packed word y -> DecodeResult; `decode_batch`
    decodes the rows of a (B, n) matrix with row-for-row the same flips,
    convergence and steps.  feedback runs at most beam.d_max passes of bf,
    each failed pass followed by one policy flip; greedy is that loop
    without bf.  list and auto-list search with beam, and auto-list's path
    is in y's coordinates.  In a batch, bit flipping (bf and feedback's
    inner decoder) alone reads words; all else starts from the syndromes.
    """

    kind: str
    qsrc: object
    H: ParityCheckMatrix
    beam: BeamConfig = BeamConfig()
    bf: BitFlipConfig = BitFlipConfig()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        if self.kind == "auto-list" and self.H.qc is None:
            raise ValueError("automorphism decoding needs a quasi-cyclic code")

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
        return automorphism_list_decode(self.qsrc, y, self.H, self.beam)

    def decode_batch(self, E: np.ndarray, memo: SyndromeMemo | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode each row of a (B, n) uint8 error matrix.

        Returns (flips (B, n) uint8, converged (B,) bool, steps (B,) int),
        row b equal to what calling the decoder on row b gives.  A row's
        result is a function of its syndrome alone (see the module
        docstring), so rows with a zero syndrome (zero rows and codewords)
        take no step, each distinct nonzero syndrome is decoded once, bit
        flipping on the word of its first row, and the results are
        scattered back to the rows.

        `memo`, used with this decoder only, carries the results from call
        to call, so that a syndrome met again in a later call is not
        decoded again (see `SyndromeMemo`).  Fresh syndromes go in groups
        of at most Q_CHUNK beam roots, which bounds the paths held.
        """
        H = self.H
        E = np.ascontiguousarray(E, dtype=np.uint8)
        if E.ndim != 2 or E.shape[1] != H.n:
            raise ValueError("error patterns must be (B, n)")
        flips, converged, steps = np.zeros_like(E), np.ones(len(E), bool), np.zeros(len(E), int)
        nonzero = np.flatnonzero(E.any(axis=1))
        S = H.syndrome_batch(E[nonzero])
        keep = S.any(axis=1)
        nonzero, S = nonzero[keep], S[keep]
        if not nonzero.size:
            return flips, converged, steps
        memo, keys = SyndromeMemo() if memo is None else memo, packed_rows(S)
        top, rows = memo.top, np.arange(memo.top, memo.top + len(keys))
        memo.reserve(len(keys), H.n)
        ids = np.fromiter(map(memo.setdefault, keys, count(top)), np.intp, len(keys))
        fresh = np.flatnonzero(ids == rows)  # the first row of each new syndrome
        group = max(1, Q_CHUNK // H.qc.p) if self.kind == "auto-list" else Q_CHUNK
        for lo in range(0, fresh.size, group):
            b = fresh[lo:lo + group]
            if self.kind == "bf":
                out = bf_decode_batch(E[nonzero[b]], H, self.bf)
            elif self.kind == "auto-list":
                out = _ensemble(self.qsrc, S[b], H, self.beam, range(H.qc.p))
            else:
                ss = list(map(int.from_bytes, [keys[i] for i in b.tolist()], repeat("little")))
                if self.kind == "list":
                    out = _beam(self.qsrc, ss, H, self.beam)
                else:
                    out = self._policy_batch(ss, E[nonzero[b]] if self.kind == "feedback"
                                             else None)
            memo.results["flips"][rows[b]] = np.packbits(out[0], axis=1, bitorder="little")
            memo.results["converged"][rows[b]], memo.results["steps"][rows[b]] = out[1], out[2]
        rec = memo.results[ids]
        flips[nonzero] = np.unpackbits(rec["flips"], axis=1, count=H.n, bitorder="little")
        converged[nonzero], steps[nonzero] = rec["converged"], rec["steps"]
        for b in fresh[rows[fresh] >= MEMO_CAP].tolist():  # decoded, but past the cap
            del memo[keys[b]]
        memo.top = min(top + len(keys), MEMO_CAP)
        return flips, converged, steps

    def _policy_batch(self, ss: list[int], Y: np.ndarray | None):
        """greedy_decode over at most Q_CHUNK packed syndromes ss, or
        feedback_decode over them and their (B, n) words Y.

        Pass t sets every live row's step to t.  For feedback it then runs
        bf_decode_batch on the live rows not caught in a cycle, each y plus
        its policy flips so far, and retires the rows it corrects.  Every row
        still live flips its argmax-Q bit.  Under the module's cycle rule, bf
        is not run again on a caught cycle, having failed on all its words,
        and a row out of passes ends unconverged at d_max steps."""
        cols, ss = np.array(self.H.cols_int, dtype=object), np.array(ss, dtype=object)
        B, d_max = len(ss), self.beam.d_max
        # the policy flips, then feedback's inner ones
        flips, converged = np.zeros((B, self.H.n), np.uint8), np.zeros(B, bool)
        steps, live, left = np.zeros(B, int), np.arange(B), np.full(B, d_max)
        cycling, saved, s = converged.copy(), flips.copy(), 0  # saved: the flips after pass s
        for t in range(1, d_max + 1):
            steps[live] = t
            left[live] -= 1
            if self.kind == "feedback":
                run = live[~cycling[live]]
                inner, ok, _ = bf_decode_batch(Y[run] ^ flips[run], self.H, self.bf)
                flips[run[ok]] ^= inner[ok]
                converged[run[ok]] = True
                live = live[~converged[live]]
            acts = self.qsrc.q_values_batch(ss[live].tolist()).argmax(axis=1)
            flips[live, acts] ^= 1
            ss[live] ^= cols[acts]
            converged[live] = ss[live] == 0
            live = live[~converged[live]]
            again = live[(flips[live] == saved[live]).all(axis=1)]
            cycling[again], left[again] = True, left[again] % (t - s)
            if t >= 2 and not t & (t - 1):
                saved[live], s = flips[live], t
            live = live[left[live] > 0]
            if not live.size:
                break
        steps[~converged] = d_max
        return flips, converged, steps
