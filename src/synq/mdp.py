"""The syndrome-decoding decision process.

States are length-m syndromes (packed ints); action a flips code bit a, so
the deterministic transition is s' = s XOR h_a with h_a the a-th column of
H.  Episodes are capped at L steps.  Rewards are step-local functions of
the successor syndrome: every step pays -1/L, and the reward variant (one
row of `_VARIANTS`) names the syndromes that add +1 (success) or subtract 1
(penalty) and the set start states are drawn from.

S(w) is the weight-w syndrome ball (`ball`); S_c/S_f/S_m (`correct`,
`fail`, `misc`) classify the syndromes an inner decoder corrects / fails
on / miscorrects, and BS_* (`bcorrect`, `bfail`, `bmisc`) are the same
sets restricted to S(w).

Episode termination defines the tabulated state space: an episode ends on
entering a success or a penalty syndrome, so the truncated and bounded
variants treat the outside of S(w) as one absorbing penalty sink and their
state space stays S(w) instead of growing with every excursion the
behaviour policy takes.  Where a variant draws its start states from a
set, a syndrome outside that set and outside both reward sets cannot be
scored: it ends the episode and `SyndromeMdp.step` raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple

from .codes import ParityCheckMatrix


class _Variant(NamedTuple):
    success: tuple[str, ...]  # pays +1 and ends the episode
    penalty: tuple[str, ...]  # pays -1 and ends the episode; tested first
    start: str | None         # start states; None: errors of weight <= w
    needs_w: bool


# A set is a SyndromeSets field or "zero" ({0}), complemented by a leading
# "~"; the success and penalty sets are unions of theirs.
_VARIANTS = {
    "basic": _Variant(("zero",), (), None, False),
    "truncated": _Variant(("zero",), ("~ball",), None, True),
    "feedback": _Variant(("~fail",), (), "fail", False),
    "feedback_miscorrect": _Variant(("correct",), ("misc",), "fail", False),
    "bounded_feedback": _Variant(("~bfail",), ("~ball",), "bfail", True),
    "bounded_feedback_miscorrect":
        _Variant(("bcorrect",), ("~ball", "bmisc"), "bfail", True),
}

VARIANTS = tuple(_VARIANTS)


@dataclass(frozen=True)
class MdpConfig:
    L: int = 10
    gamma: float = 0.9
    variant: str = "basic"
    w: int | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("episode cap L must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown reward variant {self.variant!r}")
        if _VARIANTS[self.variant].needs_w and (self.w is None or self.w < 1):
            raise ValueError(f"variant {self.variant!r} needs a ball radius w >= 1")

    @property
    def set_names(self) -> frozenset[str]:
        """The SyndromeSets fields this variant reads."""
        row = _VARIANTS[self.variant]
        terms = row.success + row.penalty + (row.start or "zero",)
        return frozenset(t.lstrip("~") for t in terms) - {"zero"}


@dataclass(frozen=True)
class SyndromeSets:
    """Syndrome sets the variants test membership against, named as in the
    module docstring; only the fields a variant reads need to be present."""

    ball: frozenset[int] | None = None
    fail: frozenset[int] | None = None
    correct: frozenset[int] | None = None
    misc: frozenset[int] | None = None
    bfail: frozenset[int] | None = None
    bcorrect: frozenset[int] | None = None
    bmisc: frozenset[int] | None = None


EMPTY_SETS = SyndromeSets()


def _need(sets: SyndromeSets, name: str) -> frozenset[int]:
    if name == "zero":
        return frozenset({0})
    value = getattr(sets, name)
    if value is None:
        raise ValueError(f"reward variant requires syndrome set {name!r}")
    return value


def _union(sets: SyndromeSets, terms) -> tuple[frozenset[int], bool]:
    """The union of `terms` as (F, negated): s is in it iff (s in F) != negated."""
    inside = [_need(sets, t) for t in terms if t[0] != "~"]
    outside = [_need(sets, t[1:]) for t in terms if t[0] == "~"]
    if len(inside) + len(outside) == 1:
        return (inside or outside)[0], bool(outside)
    if not outside:
        return frozenset().union(*inside), False
    return frozenset.intersection(*outside).difference(*inside), True


def _scorer(cfg: MdpConfig, sets: SyndromeSets):
    """s -> (reward, terminal) for the variant; reward None when unclassified."""
    row = _VARIANTS[cfg.variant]
    lose, lose_out = _union(sets, row.penalty)
    win, win_out = _union(sets, row.success)
    live, live_out = _union(sets, (row.start,)) if row.start else (frozenset(), True)
    step = -1.0 / cfg.L
    lost, won = (step - 1.0, True), (step + 1.0, True)
    going, stuck = (step, False), (None, True)

    def score(s: int):
        if (s in lose) != lose_out:
            return lost
        if (s in win) != win_out:
            return won
        return going if (s in live) != live_out else stuck
    return score


def transition(s: int, a: int, H: ParityCheckMatrix) -> int:
    """Flip bit a: s' = s XOR column_a.  Involutive in a."""
    if not 0 <= a < H.n:
        raise ValueError(f"action {a} outside [0, {H.n})")
    return s ^ H.cols_int[a]


class Step(NamedTuple):
    s: int
    a: int
    r: float
    s_next: int
    terminal: bool


class SyndromeMdp:
    """Parity checks, episode/reward config and syndrome sets; `start_states`
    is the set start states are drawn from, or None for low-weight errors."""

    def __init__(self, H: ParityCheckMatrix, cfg: MdpConfig,
                 sets: SyndromeSets = EMPTY_SETS):
        self.H = H
        self.cfg = cfg
        self.sets = sets
        self._score = _scorer(cfg, sets)
        start = _VARIANTS[cfg.variant].start
        self.start_states = _need(sets, start) if start else None

    def step(self, s: int, a: int) -> tuple[int, float, bool]:
        """(s', reward for arriving at s', whether s' ends the episode)."""
        s2 = transition(s, a, self.H)
        r, terminal = self._score(s2)
        if r is None:
            raise ValueError("syndrome outside the classified sets")
        return s2, r, terminal

    def is_terminal(self, s: int) -> bool:
        """Whether syndrome s ends an episode (success state or penalty sink)."""
        return self._score(s)[1]


def epsilon_at(t: int, eps_max: float, eps_min: float, episodes: int) -> float:
    """Linear decay from eps_max at t=0, clamped below at eps_min."""
    return max(eps_min, eps_max - (eps_max - eps_min) * t / episodes)


def episode(env: SyndromeMdp, s0: int, policy: Callable[[int], int]) -> list[Step]:
    """Roll out at most L steps from s0; empty when s0 is already terminal."""
    steps: list[Step] = []
    s, terminal = s0, env.is_terminal(s0)
    while not terminal and len(steps) < env.cfg.L:
        a = policy(s)
        s2, r, terminal = env.step(s, a)
        steps.append(Step(s, a, r, s2, terminal))
        s = s2
    return steps


#: 64-bit words `PhiloxDraws` reads per `random_raw` call
_BLOCK = 4096


class PhiloxDraws:
    """Scalar `random()` and `integers` over a Philox bit generator's words,
    read `_BLOCK` at a time with `random_raw`; the values equal those of
    numpy 2.x `Generator(bitgen)` making the same calls.

    `random()` maps word x to (x >> 11) * 2**-53.  `integers(lo, hi)` (or
    `integers(hi)`, lo = 0) over r = hi - lo values returns lo for r = 1 and
    reads nothing; otherwise it reads 32-bit halves, the low half of a word
    first and its high half at the next read, as Philox's
    has_uint32/uinteger do.  Lemire's method takes m = half * r, reads
    again while the low 32 bits of m fall below (2**32 - r) % r, and returns
    lo + (m >> 32); at r = 2**32 that bound is 0 and the result lo plus one
    half, as numpy's special case gives.  An empty range or one wider than
    2**32 raises ValueError.
    """

    def __init__(self, bitgen):
        blocks = iter(lambda: bitgen.random_raw(_BLOCK).tolist(), None)
        self._word = chain.from_iterable(blocks).__next__
        self._half = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, lo: int, hi: int | None = None) -> int:
        if hi is None:
            lo, hi = 0, lo
        r = hi - lo
        if r == 1:
            return lo
        if not 1 < r <= 2**32:
            raise ValueError(f"integers range [{lo}, {hi}) is empty or wider than 2**32")
        m = self._uint32() * r
        if m & 0xFFFFFFFF < r:
            threshold = (2**32 - r) % r
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * r
        return lo + (m >> 32)

    def _uint32(self) -> int:
        x = self._half
        if x is None:
            x = self._word()
            self._half = x >> 32
            return x & 0xFFFFFFFF
        self._half = None
        return x


def run_episodes(env: SyndromeMdp, cfg, rng, sampler,
                 greedy: Callable[[int], int], learn,
                 stop: Callable[[int], bool] | None = None) -> None:
    """The epsilon-greedy episode loop both trainers share.

    `cfg` supplies episodes, eps_max, eps_min and check_every; `rng` is a
    Generator or a `PhiloxDraws`.  Episode t explores with
    epsilon_at(t, ...) and starts at sampler(rng); a terminal start gives no
    step.  Each of at most L steps draws rng.random(), then
    rng.integers(n) only when exploring, else takes greedy(s); it applies
    the transition and the variant's scorer, the ones `SyndromeMdp.step`
    uses, and calls learn(s, a, r, s', terminal) before the next action is
    chosen.  `stop(episodes done)` is polled every cfg.check_every episodes
    (never when 0), and training ends once it returns True.
    """
    n, L, cols, score = env.H.n, env.cfg.L, env.H.cols_int, env._score
    random, integers = rng.random, rng.integers
    episodes, eps_max, eps_min = cfg.episodes, cfg.eps_max, cfg.eps_min
    every = cfg.check_every if stop is not None else 0
    for t in range(episodes):
        eps = epsilon_at(t, eps_max, eps_min, episodes)
        s = sampler(rng)
        if not score(s)[1]:
            for _ in range(L):
                a = int(integers(n)) if random() < eps else greedy(s)
                s2 = s ^ cols[a]
                r, terminal = score(s2)
                if r is None:
                    raise ValueError("syndrome outside the classified sets")
                learn(s, a, r, s2, terminal)
                if terminal:
                    break
                s = s2
        if every and (t + 1) % every == 0 and stop(t + 1):
            return


def finite_horizon_q(j: int, r: float = 1.0, p: float = 0.1,
                     gamma: float = 0.9) -> float:
    """Value of reaching the success state in exactly j steps.

    Each of the j steps pays penalty p, the last also pays terminal reward r:
    gamma^(j-1) * r - p * (1 - gamma^j) / (1 - gamma), with the gamma -> 1
    limit r - j*p.
    """
    if j < 1:
        raise ValueError("horizon j must be >= 1")
    if gamma == 1.0:
        return r - j * p
    return gamma ** (j - 1) * r - p * (1.0 - gamma**j) / (1.0 - gamma)
