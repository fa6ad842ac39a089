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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

from . import decoders as dec
from .automorphism import burnside_count
from .codes import ParityCheckMatrix, QcLdpcSpec, ball_size, int_to_bits

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def bdd_fer(n: int, w: int, rho: float) -> float:
    """Frame-error rate of an ideal radius-w bounded-distance decoder.

    1 - sum_{i<=w} C(n,i) rho^i (1-rho)^(n-i), evaluated as the upper tail
    in the log domain for numerical stability at small rho.
    """
    if not 0 <= w <= n:
        raise ValueError("radius w outside [0, n]")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("crossover probability outside [0, 1]")
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        return 1.0 if w < n else 0.0
    i = np.arange(w + 1, n + 1)
    if i.size == 0:
        return 0.0
    log_terms = (
        gammaln(n + 1) - gammaln(i + 1) - gammaln(n - i + 1)
        + i * math.log(rho) + (n - i) * math.log1p(-rho)
    )
    return float(np.exp(logsumexp(log_terms)))


@dataclass(frozen=True)
class WeightEnumerator:
    """Counts of noteworthy patterns by Hamming weight, for a length-n code."""

    n: int
    counts: dict[int, int] = field(default_factory=dict)

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
    full = sum(
        c * rho**w * (1.0 - rho) ** (E.n - w) for w, c in E.counts.items() if c
    )
    c_min = E.min_weight
    if math.isinf(c_min):
        return FloorEstimate(0.0, 0.0, c_min, c_min, -math.inf)
    dom = E.counts[c_min] * rho**c_min * (1.0 - rho) ** (E.n - c_min)
    return FloorEstimate(full, dom, c_min, c_min, math.log10(E.counts[c_min]))


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
    to it.  Returns an int or math.inf.
    """
    f = math.inf if min_fail_w is None else min_fail_w
    m = math.inf if min_misc_w is None else min_misc_w
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


def _colex_next(combo: list[int]) -> None:
    """Advance an ascending index list to its colex successor, in place."""
    k = len(combo)
    for i in range(k):
        if i + 1 == k or combo[i] + 1 < combo[i + 1]:
            combo[i] += 1
            for jj in range(i):
                combo[jj] = jj
            return


def patterns_colex(n: int, w: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the weight-w colex pattern enumeration, (B, n)."""
    total = math.comb(n, w)
    if not 0 <= start <= stop <= total:
        raise ValueError("pattern range out of bounds")
    X = np.zeros((stop - start, n), dtype=np.uint8)
    if stop == start:
        return X
    combo = combo_unrank_colex(start, w)
    for row in range(stop - start):
        X[row, combo] = 1
        if row + 1 < stop - start:
            _colex_next(combo)
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


_WORKER_ENV: dict = {}


def _enum_init(bits, tau, max_iter):
    _WORKER_ENV["H"] = ParityCheckMatrix(bits)
    _WORKER_ENV["cfg"] = dec.BitFlipConfig(tau=tau, max_iter=max_iter)


def _enum_chunk(args) -> tuple[int, int]:
    w, start, stop = args
    H, cfg = _WORKER_ENV["H"], _WORKER_ENV["cfg"]
    X = patterns_colex(H.n, w, start, stop)
    flips, conv, _ = dec.bf_decode_batch(X, H, cfg)
    fail = int((~conv).sum())
    misc = int((conv & (flips != X).any(axis=1)).sum())
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

    Patterns are visited in colexicographic order in fixed chunks, so the
    work splits over processes deterministically and a checkpoint file (JSON
    with per-weight progress) lets an interrupted run resume.
    """
    if ball_size(H.n, w_max) > budget:
        raise ValueError("enumeration exceeds the pattern budget")
    params = {
        "code_hash": H.code_hash, "n": H.n, "tau": cfg.tau,
        "max_iter": cfg.max_iter, "w_max": w_max,
    }
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

    pool = ProcessPoolExecutor(
        workers, initializer=_enum_init, initargs=(H.bits, cfg.tau, cfg.max_iter)
    ) if workers > 1 else None
    _enum_init(H.bits, cfg.tau, cfg.max_iter)
    try:
        for w in range(1, w_max + 1):
            rec = state["weights"].setdefault(str(w), {"done": 0, "fail": 0, "misc": 0})
            total = math.comb(H.n, w)
            if rec["done"] >= total:
                continue
            tasks = [
                (w, start, min(start + chunk, total))
                for start in range(rec["done"], total, chunk)
            ]
            runner = pool.map(_enum_chunk, tasks, chunksize=4) if pool else map(
                _enum_chunk, tasks
            )
            for (fail, misc), task in zip(runner, tasks):
                rec["fail"] += fail
                rec["misc"] += misc
                rec["done"] = task[2]
                dump()
    finally:
        if pool:
            pool.shutdown()
    fails = {w: state["weights"][str(w)]["fail"] for w in range(1, w_max + 1)}
    miscs = {w: state["weights"][str(w)]["misc"] for w in range(1, w_max + 1)}
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

    Status codes: 0 correct, 1 failure, 2 miscorrection.  leader_weight and
    leader_pattern describe a minimum-weight error per syndrome.
    """

    syndromes: np.ndarray
    status: np.ndarray
    leader_weight: np.ndarray
    leader_pattern: np.ndarray

    def status_sets(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        syn = self.syndromes
        return (
            frozenset(syn[self.status == 0].tolist()),
            frozenset(syn[self.status == 1].tolist()),
            frozenset(syn[self.status == 2].tolist()),
        )

    def min_weight(self, status_code: int):
        mask = self.status == status_code
        return int(self.leader_weight[mask].min()) if mask.any() else math.inf

    @property
    def covering_radius(self) -> int:
        return int(self.leader_weight.max())


def classify_syndromes(
    H: ParityCheckMatrix,
    cfg: dec.BitFlipConfig = dec.BitFlipConfig(),
    max_m: int = 25,
) -> SyndromeClassification:
    """Exact decoder-region classification of every syndrome of a small code.

    Breadth-first search over the syndrome graph (edges = single-bit flips)
    yields a coset-leader weight and representative per syndrome; decoding
    the representative fixes the class.  Needs m <= max_m and n <= 63.
    """
    if H.m > max_m:
        raise ValueError(f"syndrome space 2^{H.m} too large for full classification")
    if H.n > 63:
        raise ValueError("leader patterns are stored as uint64; need n <= 63")
    size = 1 << H.m
    weight = np.full(size, -1, dtype=np.int8)
    pattern = np.zeros(size, dtype=np.uint64)
    weight[0] = 0
    frontier = np.array([0], dtype=np.int64)
    cols = np.array(H.cols_int, dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt = []
        for i in range(H.n):
            cand = frontier ^ cols[i]
            mask = weight[cand] < 0
            if not mask.any():
                continue
            fresh = cand[mask]
            weight[fresh] = level
            pattern[fresh] = pattern[frontier[mask]] | np.uint64(1 << i)
            nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.array([], dtype=np.int64)
    syndromes = np.flatnonzero(weight >= 0).astype(np.int64)
    status = np.empty(syndromes.size, dtype=np.uint8)
    for lo in range(0, syndromes.size, 1 << 15):
        sl = syndromes[lo:lo + (1 << 15)]
        X = np.unpackbits(pattern[sl].astype("<u8").view(np.uint8).reshape(-1, 8),
                          axis=1, count=H.n, bitorder="little")
        flips, conv, _ = dec.bf_decode_batch(X, H, cfg)
        wf = flips.sum(axis=1)
        lw = weight[sl]
        st = np.where(~conv, 1, np.where(wf == lw, 0, 2)).astype(np.uint8)
        status[lo:lo + sl.size] = st
    return SyndromeClassification(syndromes, status, weight[syndromes],
                                  pattern[syndromes])


def bounded_sets(
    H: ParityCheckMatrix,
    w: int,
    cfg: dec.BitFlipConfig = dec.BitFlipConfig(),
    budget: int = 2_000_000,
):
    """Ball-restricted decoder-region sets (BS_c, BS_f, BS_m) plus S(w).

    Enumerates the weight-<=w ball, keeps one minimum-weight representative
    per syndrome, and classifies it with the inner decoder.  Returns a dict
    ready to build mdp.SyndromeSets from.
    """
    import itertools

    if ball_size(H.n, w) > budget:
        raise ValueError("ball exceeds the pattern budget")
    reps: dict[int, tuple[int, int]] = {0: (0, 0)}
    for u in range(1, w + 1):
        for combo in itertools.combinations(range(H.n), u):
            s = 0
            x = 0
            for i in combo:
                s ^= H.cols_int[i]
                x |= 1 << i
            reps.setdefault(s, (u, x))
    syn = sorted(reps)
    X = np.zeros((len(syn), H.n), dtype=np.uint8)
    lw = np.zeros(len(syn), dtype=np.int32)
    for r, s in enumerate(syn):
        u, x = reps[s]
        lw[r] = u
        X[r] = int_to_bits(x, H.n)
    flips, conv, _ = dec.bf_decode_batch(X, H, cfg)
    wf = flips.sum(axis=1)
    status = np.where(~conv, 1, np.where(wf == lw, 0, 2))
    arr = np.array(syn, dtype=object)
    return {
        "ball": frozenset(syn),
        "bcorrect": frozenset(arr[status == 0].tolist()),
        "bfail": frozenset(arr[status == 1].tolist()),
        "bmisc": frozenset(arr[status == 2].tolist()),
    }


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
    """Walk the greedy policy from every error of weight 1..w.

    Returns weight -> (patterns, wrong) where wrong counts any pattern not
    corrected exactly (converged, recovered flip set equal to the pattern)
    in exactly its weight many steps.
    """
    import itertools

    if ball_size(H.n, w) > budget:
        raise ValueError("ball exceeds the pattern budget")
    out: dict[int, tuple[int, int]] = {}
    for u in range(1, w + 1):
        total = wrong = 0
        for combo in itertools.combinations(range(H.n), u):
            y = 0
            for i in combo:
                y |= 1 << i
            res = dec.greedy_decode(qsrc, y, H, max_steps=L)
            total += 1
            if not res.converged or res.flips != y or res.steps != u:
                wrong += 1
        out[u] = (total, wrong)
    return out
