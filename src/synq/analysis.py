"""Closed-form calculators and exhaustive decoder-behaviour enumeration.

Covers the bounded-distance frame-error rate, error-floor estimates from
failure weight enumerators, optimal-policy counting, feedback-decoder
correction guarantees, exhaustive failure/miscorrection enumeration for an
inner decoder, and full syndrome classification for small codes.

Classification convention (all-zero codeword transmitted): a decode of a
weight-u coset-leader representative is *correct* when it converges with a
flip set of weight u (it found some nearest codeword), a *miscorrection*
when it converges with a heavier flip set, and a *failure* when it never
reaches a zero syndrome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import decoders as dec
from .automorphism import burnside_count
from .codes import (ParityCheckMatrix, QcLdpcSpec, ball_guard, ball_size,
                    bits_to_ints)
from .sim import ordered_map

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _sum_exp(t: np.ndarray) -> float:
    """sum exp(t), shifted by the largest t so that no term overflows."""
    top = t.max()
    return math.exp(top) * float(np.exp(t - top).sum())


def _binomial_sum(n: int, u: np.ndarray, log_c: np.ndarray, rho: float) -> float:
    """sum c_u rho^u (1-rho)^(n-u) over weights u from log c_u, 0 < rho < 1."""
    return _sum_exp(log_c + u * math.log(rho) + (n - u) * math.log1p(-rho))


def bdd_fer(n: int, w: int, rho: float) -> float:
    """Frame-error rate of an ideal radius-w bounded-distance decoder.

    1 - sum_{i<=w} C(n,i) rho^i (1-rho)^(n-i).  Both tails are summed in
    the log domain, and the upper one is returned if it is the smaller, else
    1 minus the lower: small rates keep their precision, none exceeds 1.
    """
    if not 0 <= w <= n:
        raise ValueError("radius w outside [0, n]")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("crossover probability outside [0, 1]")
    if rho == 0.0 or w == n:
        return 0.0
    if rho == 1.0:
        return 1.0
    # d_u = log P(U=u) - log P(U=top) at the mode top, from the per-step logs
    # of P(u+1) / P(u) = (n-u) / (u+1) * rho / (1-rho) summed outward from it:
    # the partial sums stay small where the mass is, and dividing by the
    # total mass cancels log P(U=top), so no large log term is ever rounded
    # (math.comb(n, top) would also take seconds once n * rho nears 10^5)
    top, k = min(int((n + 1) * rho), n), np.arange(n)
    step = np.log((n - k) / (k + 1) * (rho / (1.0 - rho)))
    d = np.zeros(n + 1)
    d[top + 1:] = np.cumsum(step[top:])
    d[:top] = -np.cumsum(step[:top][::-1])[::-1]
    total = _sum_exp(d)
    upper = _sum_exp(d[w + 1:]) / total
    lower = _sum_exp(d[:w + 1]) / total
    return upper if upper <= lower else 1.0 - lower


@dataclass(frozen=True)
class WeightEnumerator:
    """Counts of noteworthy patterns by Hamming weight, for a length-n code."""

    n: int
    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for w, c in self.counts.items():
            if not (1 <= w <= self.n and 0 <= c <= math.comb(self.n, w)):
                raise ValueError(f"{c} patterns of weight {w}: need weight in "
                                 f"1..{self.n} and count in 0..C({self.n}, {w})")

    @property
    def min_weight(self) -> int | float:
        present = [w for w, c in self.counts.items() if c]
        return min(present) if present else math.inf

    def __getitem__(self, w: int) -> int:
        return self.counts.get(w, 0)

    def polynomial_str(self) -> str:
        terms = [f"{c} x^{w}" for w, c in sorted(self.counts.items(), reverse=True) if c]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class FloorEstimate:
    full: float
    dominant: float
    min_weight: int | float
    #: dominant ~ 10**intercept * rho**slope as rho -> 0
    slope: int | float
    intercept: float


def error_floor_estimate(E: WeightEnumerator, rho: float) -> FloorEstimate:
    """Union-style failure-probability estimate sum |E_i| rho^i (1-rho)^(n-i)."""
    if not 0.0 < rho < 1.0:
        raise ValueError("crossover probability must lie in (0, 1)")
    c_min = E.min_weight
    if math.isinf(c_min):
        return FloorEstimate(0.0, 0.0, c_min, c_min, -math.inf)
    ws = [w for w, c in E.counts.items() if c]
    full = _binomial_sum(E.n, np.array(ws), np.array([math.log(E[w]) for w in ws]), rho)
    dom = _binomial_sum(E.n, np.array([c_min]), np.array([math.log(E[c_min])]), rho)
    return FloorEstimate(full, dom, c_min, c_min, math.log10(E[c_min]))


def count_optimal_policies(n: int, t: int) -> int:
    """prod_{i=1..t} i^C(n,i): choices of which component each weight-i
    coset leader's policy corrects first, exact big-int arithmetic."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    out = 1
    for i in range(1, t + 1):
        out *= i ** math.comb(n, i)
    return out


def feedback_guarantee(
    min_fail_w,
    min_misc_w,
    variant: str = "theorem2",
    w_ball: int | None = None,
    t: int | None = None,
):
    """Guaranteed correction radius of the feedback decoder.

    theorem2: floor((min_fail + min_misc - 1) / 2); remark1 (miscorrection-
    aware reward): min(t, min_misc - 1).  None or inf minima mean the region
    is empty; with a bounded enumeration radius w_ball the result is clipped
    to it.  Returns an int or math.inf.  A minimum below 1 or a negative
    w_ball or t raises ValueError.
    """
    f = math.inf if min_fail_w is None else min_fail_w
    m = math.inf if min_misc_w is None else min_misc_w
    if f < 1 or m < 1 or any(v is not None and v < 0 for v in (w_ball, t)):
        raise ValueError("minimum weights must be >= 1, w_ball and t >= 0")
    if variant == "theorem2":
        g = math.inf if math.isinf(f) or math.isinf(m) else (f + m - 1) // 2
    elif variant == "remark1":
        if t is None:
            raise ValueError("remark1 guarantee needs the code's t")
        g = min(t, math.inf if math.isinf(m) else m - 1)
    else:
        raise ValueError(f"unknown guarantee variant {variant!r}")
    if w_ball is not None:
        g = min(g, w_ball)
    return g if math.isinf(g) else int(g)


def syndrome_bounds(spec: QcLdpcSpec, H: ParityCheckMatrix) -> tuple[Fraction, int]:
    """(lower, upper) bounds on the number of syndrome orbits.

    Upper bound: orbit count of all 2^m check colorings; lower bound divides
    it by the number of non-syndrome cosets 2^(m - rank).
    """
    full = burnside_count(spec.j, spec.p, spec.b)
    return Fraction(full, 1 << (H.m - H.rank)), full


# ---------------------------------------------------------------------------
# colexicographic pattern enumeration
# ---------------------------------------------------------------------------


def combo_unrank_colex(r: int, k: int) -> list[int]:
    """The rank-r weight-k index set in colexicographic order."""
    combo = []
    for i in range(k, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= r:
            c += 1
        combo.append(c)
        r -= math.comb(c, i)
    return combo[::-1]


def patterns_colex(n: int, w: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the weight-w colex pattern enumeration, (B, n).

    Unranks all rows at once: for i = w..1 the i-th largest index is the
    last c < n with C(c, i) <= rank.  Binomials are clipped at stop, so they
    fit int64 whenever stop does; larger ranks take Python ints."""
    total = math.comb(n, w)
    if not 0 <= start <= stop <= total:
        raise ValueError("pattern range out of bounds")
    rank = np.arange(start, stop, dtype=np.int64 if stop < 2**63 else object)
    X = np.zeros((stop - start, n), dtype=np.uint8)
    for i in range(w, 0, -1):
        col = np.array([min(math.comb(c, i), stop) for c in range(n)], dtype=rank.dtype)
        c = np.searchsorted(col, rank, side="right") - 1
        X[np.arange(rank.size), c] = 1
        rank = rank - col[c]
    return X


# ---------------------------------------------------------------------------
# exhaustive failure enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureEnumeration:
    failures: WeightEnumerator
    miscorrections: WeightEnumerator
    totals: dict[int, int]
    params: dict


def _enum_chunk(H: ParityCheckMatrix, cfg: dec.BitFlipConfig,
                task: tuple[int, int, int, int, int]) -> tuple[int, int]:
    """Summed weights L // c of failing, miscorrecting representatives start..stop-1."""
    w, p, L, start, stop = task
    parts, c = [], []
    for top in range(p - 1, H.n, p):  # C(top, w - 1) patterns with top bit `top`
        size, lo = math.comb(top, w - 1), math.comb(top, w)
        a, b = max(start, 0), min(stop, size)
        if a < b:
            parts.append(patterns_colex(H.n, w, lo + a, lo + b))
            c.append(parts[-1][:, top + 1 - p:top + 1].sum(axis=1))
        start, stop = start - size, stop - size
    X, weight = np.concatenate(parts), L // np.concatenate(c)
    flips, conv, _ = dec.bf_decode_batch(X, H, cfg)
    fail = int(weight[~conv].sum())
    misc = int(weight[conv & (flips != X).any(axis=1)].sum())
    return fail, misc


def _is_checkpoint(state) -> bool:
    """An object whose `weights` maps to {done, fail, misc} integer records."""
    weights = state.get("weights") if isinstance(state, dict) else None
    return isinstance(weights, dict) and all(
        isinstance(rec, dict) and rec.keys() == {"done", "fail", "misc"}
        and all(type(v) is int for v in rec.values())
        for rec in weights.values()
    )


def enumerate_failures(
    H: ParityCheckMatrix,
    cfg: dec.BitFlipConfig = dec.BitFlipConfig(),
    w_max: int = 3,
    *,
    chunk: int = 8192,
    workers: int = 1,
    checkpoint=None,
    budget: int = 40_000_000,
) -> FailureEnumeration:
    """Decode every error pattern of weight 1..w_max with the bit-flipping
    decoder and tally failures and miscorrections per weight.

    Bit flipping commutes with the simultaneous cyclic shift of every block
    of a quasi-cyclic code (`H.qc`, circulant size p; `automorphism.group_table`),
    so one representative set per orbit is decoded: the patterns whose top
    set bit M ends its block, colex ranks C(M, w)..C(M+1, w)-1.  One whose
    top block holds c set bits stands for p/c patterns, whatever its orbit's
    size: it adds L // c, L = lcm(1..min(w, p)), and the count is the sum
    times p / L.  Without `H.qc`, p = 1: every pattern, the plain sweep a
    decoder that does not commute with the shifts needs.  Representatives
    go in fixed chunks, so the work splits over processes deterministically
    and a checkpoint file (JSON with per-weight progress and sums; its
    params name p > 1) lets an interrupted run resume.  `budget` caps the
    patterns covered.
    """
    if not 0 <= w_max <= H.n:
        raise ValueError(f"w_max {w_max} outside 0..{H.n}")
    if ball_size(H.n, w_max) > budget:
        raise ValueError("enumeration exceeds the pattern budget")
    params = {
        "code_hash": H.code_hash, "n": H.n, "tau": cfg.tau,
        "max_iter": cfg.max_iter, "w_max": w_max,
    }
    p = H.qc.p if H.qc else 1
    if p > 1:
        params["shift_orbits"] = p
    state: dict = {"params": params, "weights": {}}
    if checkpoint is not None:
        try:
            with open(checkpoint) as fh:
                state = json.load(fh)
        except FileNotFoundError:
            pass
        except ValueError as exc:
            raise ValueError(f"checkpoint {checkpoint}: {exc}") from None
        if not _is_checkpoint(state):
            raise ValueError(f"checkpoint {checkpoint} is not an enumeration record")
        if state.get("params") != params:
            raise ValueError(f"checkpoint {checkpoint} belongs to another run")

    def dump():
        if checkpoint is not None:
            with open(checkpoint, "w") as fh:
                json.dump(state, fh)

    fails, miscs = {}, {}
    with ordered_map(_enum_chunk, (H, cfg), workers, chunksize=4) as run:
        for w in range(1, w_max + 1):
            rec = state["weights"].setdefault(str(w), {"done": 0, "fail": 0, "misc": 0})
            L = math.lcm(*range(1, min(w, p) + 1))
            total = sum(math.comb(top, w - 1) for top in range(p - 1, H.n, p))
            if not 0 <= rec["done"] <= total:
                raise ValueError(f"checkpoint {checkpoint}: weight {w} done "
                                 f"{rec['done']} outside 0..{total}")
            tasks = [(w, p, L, start, min(start + chunk, total))
                     for start in range(rec["done"], total, chunk)]
            for (fail, misc), task in zip(run(tasks), tasks):
                rec["fail"] += fail
                rec["misc"] += misc
                rec["done"] = task[4]
                dump()
            if rec["fail"] * p % L or rec["misc"] * p % L:
                raise ValueError(f"weight-{w} sums are not whole orbits")
            fails[w], miscs[w] = rec["fail"] * p // L, rec["misc"] * p // L
    totals = {w: math.comb(H.n, w) for w in range(1, w_max + 1)}
    return FailureEnumeration(
        WeightEnumerator(H.n, fails), WeightEnumerator(H.n, miscs), totals, params
    )


def write_enumeration_csv(enum: FailureEnumeration, path) -> None:
    """CSV of per-weight counts; decoder parameters go in a header comment."""
    p = enum.params
    with open(path, "w") as fh:
        fh.write(
            f"# bit-flipping tau={p['tau']} max_iter={p['max_iter']} "
            f"n={p['n']} code={p['code_hash'][:12]}\n"
        )
        fh.write("weight,patterns,failures,miscorrections\n")
        for w in sorted(enum.totals):
            fh.write(
                f"{w},{enum.totals[w]},{enum.failures[w]},{enum.miscorrections[w]}\n"
            )


# ---------------------------------------------------------------------------
# full syndrome classification (small codes)
# ---------------------------------------------------------------------------


@dataclass
class SyndromeClassification:
    """Per-syndrome inner-decoder behaviour over the whole syndrome space.

    Status codes: 0 correct, 1 failure, 2 miscorrection.  leader_weight is
    the weight of a minimum-weight error per syndrome.
    """

    syndromes: np.ndarray
    status: np.ndarray
    leader_weight: np.ndarray

    def status_sets(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return _status_sets(self.syndromes, self.status)


def _leader_status(X: np.ndarray, H: ParityCheckMatrix, cfg: dec.BitFlipConfig):
    """Decode each minimum-weight leader row of X: 0 correct (a flip set as
    light as the leader), 1 failure, 2 miscorrection."""
    flips, conv, _ = dec.bf_decode_batch(X, H, cfg)
    exact = flips.sum(axis=1) == X.sum(axis=1)
    return np.where(~conv, 1, np.where(exact, 0, 2)).astype(np.uint8)


def _status_sets(syndromes: np.ndarray, status: np.ndarray):
    """The (correct, failure, miscorrection) syndrome sets."""
    return tuple(frozenset(syndromes[status == code].tolist()) for code in range(3))


def classify_syndromes(
    H: ParityCheckMatrix,
    cfg: dec.BitFlipConfig = dec.BitFlipConfig(),
) -> SyndromeClassification:
    """Exact decoder-region classification of every syndrome of a small code.

    Breadth-first search over the syndrome graph (edges = single-bit flips)
    gives each syndrome its leader weight and the bit whose flip first reached
    it; decoding the leader rebuilt from those bits fixes the class.  m <= 25.
    """
    if H.m > 25:
        raise ValueError(f"syndrome space 2^{H.m} too large for full classification")
    size = 1 << H.m
    weight = np.full(size, -1, dtype=np.int8)
    last_bit = np.zeros(size, dtype=np.min_scalar_type(H.n - 1))
    weight[0] = 0
    frontier = np.array([0], dtype=np.int64)
    cols = np.array(H.cols_int, dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt = []
        for i in range(H.n):
            cand = frontier ^ cols[i]
            fresh = cand[weight[cand] < 0]
            if fresh.size:
                weight[fresh], last_bit[fresh] = level, i
                nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.array([], dtype=np.int64)
    syndromes = np.flatnonzero(weight >= 0)
    status = np.empty(syndromes.size, dtype=np.uint8)
    for lo in range(0, syndromes.size, 1 << 15):
        s = syndromes[lo:lo + (1 << 15)].copy()
        X = np.zeros((s.size, H.n), dtype=np.uint8)
        live = np.flatnonzero(s)
        while live.size:
            bit = last_bit[s[live]]
            X[live, bit] = 1
            s[live] ^= cols[bit]
            live = live[s[live] != 0]
        status[lo:lo + s.size] = _leader_status(X, H, cfg)
    return SyndromeClassification(syndromes, status, weight[syndromes])


def _ball_slices(n: int, w: int):
    """Yield (u, X) over the weight-<=w ball: each weight's colex patterns
    (`patterns_colex`) in (B, n) slices of at most Q_CHUNK rows."""
    for u in range(w + 1):
        total = math.comb(n, u)
        for lo in range(0, total, dec.Q_CHUNK):
            yield u, patterns_colex(n, u, lo, min(lo + dec.Q_CHUNK, total))


def bounded_sets(
    H: ParityCheckMatrix,
    w: int,
    cfg: dec.BitFlipConfig = dec.BitFlipConfig(),
    budget: int = 2_000_000,
):
    """Ball-restricted decoder-region sets (BS_c, BS_f, BS_m) plus S(w).

    Walks the weight-<=w ball weight by weight in slices, and classifies the
    first pattern of each new syndrome, one of least weight, with the inner
    decoder.  Bit flipping's flips depend only on the syndrome, so which
    least-weight pattern stands for it does not matter.  Returns a dict ready
    to build mdp.SyndromeSets from.
    """
    ball_guard(H.n, w, budget)
    status: dict[int, int] = {}
    for _, X in _ball_slices(H.n, w):
        fresh: dict[int, int] = {}  # new syndrome -> its first row in X
        for r, s in enumerate(bits_to_ints(H.syndrome_batch(X))):
            if s not in status:
                fresh.setdefault(s, r)
        if fresh:
            rows = _leader_status(X[list(fresh.values())], H, cfg)
            status.update(zip(fresh, rows.tolist()))
    correct, fail, misc = _status_sets(np.array(list(status), dtype=object),
                                       np.array(list(status.values())))
    return {"ball": frozenset(status), "bcorrect": correct, "bfail": fail, "bmisc": misc}


# ---------------------------------------------------------------------------
# greedy-policy ball sweeps
# ---------------------------------------------------------------------------


def greedy_ball_sweep(
    qsrc,
    H: ParityCheckMatrix,
    w: int,
    L: int = 10,
    budget: int = 2_000_000,
) -> dict[int, tuple[int, int]]:
    """Walk the greedy policy, at most L steps, from every error of weight 1..w.

    Returns weight -> (patterns, wrong) where wrong counts any pattern not
    corrected exactly (converged, recovered flip set equal to the pattern)
    in exactly its weight many steps.  Each slice of the ball goes through
    `Decoder.decode_batch`, Q_CHUNK rows at a time as it decodes them.
    """
    ball_guard(H.n, w, budget)
    decode = dec.Decoder("greedy", qsrc, H, dec.BeamConfig(d_max=L)).decode_batch
    wrong = dict.fromkeys(range(1, w + 1), 0)
    for u, X in _ball_slices(H.n, w):
        if u:
            flips, converged, steps = decode(X)
            wrong[u] += int((~converged | (flips != X).any(axis=1) | (steps != u)).sum())
    return {u: (math.comb(H.n, u), bad) for u, bad in wrong.items()}
