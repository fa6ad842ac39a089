"""The benchmark's workloads: what each one sets up, runs per round, and checks.

A round is a fixed list of operations, each one call into synq's public API
whose output is checked afterwards.  Every round of a run repeats the same
operations on the same inputs, so rounds must also agree with each other.

decode-waterfall  sim.run_point at rho = 0.02 for seven decoders over one
                  shared frame sample: the decoders' own search dominates.
decode-floor      the same decoders at rho = 0.003, where most frames are
                  clean and per-frame overhead dominates.

Each decoder of a decode workload gets its own frame count, a prefix of the
shared sample, chosen so that every decoder takes about the same share of a
round; a slow decoder would otherwise hide the cost of the others.
build-policy      the offline steps before decoding: exhaustive bit-flipping
                  failure enumeration, tabular Q-learning, DQN training and
                  bulk canonicalization.  No channel, no per-frame decoders.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles
from synq import (TANNER_SPEC, BeamConfig, BitFlipConfig, MdpConfig,
                  MlpNetwork, SyndromeMdp, SyndromeSets, build_qc_ldpc,
                  hamming_ball_syndromes)
from synq import (analysis, automorphism, channel, decoders, neural, sim,
                  tabular)
from synq.neural import DqnConfig
from synq.tabular import BallSampler, SetSampler, TrainConfig

BF = BitFlipConfig(tau=2)
HIDDEN = 512
DQN_BATCH = 128
# Bit-flipping failures of the (155, 64) code by error weight (tau = 2).
BF_FAILURES = {1: 0, 2: 620, 3: 154_225}
SETUP_SEED = 0
# A sample's FER is compared with the radius-1 closed form at 4 sigma: at
# 3 sigma one seed in a few hundred misses by chance (seed 88 at rho = 0.02
# sits 3.4 sigma low), and the exact per-sample counts already pin the
# decoders down.
CLOSED_FORM_SIGMAS = 4.0


@dataclass(frozen=True)
class Sizes:
    """Work per round and per set-up.  FULL is the benchmark; SHORT runs
    every operation and check on small inputs in seconds."""

    frames_waterfall: dict
    frames_floor: dict
    table_w1_episodes: int
    feedback_episodes: int
    enum_w_max: int
    train_q_episodes: int
    dqn_episodes: int
    colorings: int
    crosscheck_per_weight: int
    setup_repeats: int
    setup_min_s: float
    min_rounds: int


# Frames per decoder: about 0.5 s of decoding each on the reference machine
# (bench/README.md), so that each decoder is about a seventh of a round.
FRAMES_WATERFALL = {"bf": 2000, "greedy_table": 8000, "list5_table": 5500,
                    "feedback_table": 300, "auto_list_table": 150,
                    "list1_mlp": 3000, "list5_mlp": 2000}
FRAMES_FLOOR = {"bf": 10_000, "greedy_table": 12_000, "list5_table": 10_000,
                "feedback_table": 7000, "auto_list_table": 200,
                "list1_mlp": 7000, "list5_mlp": 6000}


def _fewer(frames: dict) -> dict:
    return {k: max(v // 50, 10) for k, v in frames.items()}


FULL = Sizes(frames_waterfall=FRAMES_WATERFALL, frames_floor=FRAMES_FLOOR,
             table_w1_episodes=60_000, feedback_episodes=30_000, enum_w_max=3,
             train_q_episodes=100_000, dqn_episodes=500, colorings=2000,
             crosscheck_per_weight=40, setup_repeats=3, setup_min_s=1.0,
             min_rounds=2)
SHORT = Sizes(frames_waterfall=_fewer(FRAMES_WATERFALL),
              frames_floor=_fewer(FRAMES_FLOOR), table_w1_episodes=60_000,
              feedback_episodes=5_000, enum_w_max=2, train_q_episodes=100_000,
              dqn_episodes=DQN_BATCH + 32, colorings=30, crosscheck_per_weight=5,
              setup_repeats=1, setup_min_s=0.0, min_rounds=1)


@dataclass
class Op:
    """One checked operation of a round.

    `rate` names the throughput it reports, `work` gives the units of work
    done (frames, episodes, ...) from its output, and `count` is how many
    operations it stands for (one per enumerated weight).
    """

    name: str
    run: Callable[[], object]
    rate: str
    work: Callable[[object], float]
    count: int = 1


@dataclass
class State:
    seed: int
    sizes: Sizes
    H: object
    data: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def tanner_code():
    return build_qc_ldpc(TANNER_SPEC)


def radius1_network(H) -> MlpNetwork:
    """An MLP whose greedy action corrects exactly the single-bit errors.

    Hidden unit i sees +1 on the checks of code bit i and -1 on every other
    check, with bias 1 - |column i|, so it is positive (value 1) on exactly
    the syndrome of bit i; output i copies unit i.  Every other syndrome
    gives all-zero action values.  The remaining hidden units never fire.
    """
    W1 = np.zeros((HIDDEN, H.m))
    b1 = np.full(HIDDEN, -1.0)
    W2 = np.zeros((H.n, HIDDEN))
    for i in range(H.n):
        col = H.bits[:, i].astype(np.float64)
        W1[i] = 2.0 * col - 1.0
        b1[i] = 1.0 - col.sum()
        W2[i, i] = 1.0
    return MlpNetwork(W1, b1, W2, np.zeros(H.n))


def _singles_in_one_step(H, qsrc) -> int:
    """Single-bit errors whose syndrome's greedy action is that bit."""
    return sum(int(np.argmax(qsrc.q_values(H.cols_int[i]))) == i for i in range(H.n))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# decode workloads
# ---------------------------------------------------------------------------


DECODERS = ("bf", "greedy_table", "list5_table", "feedback_table",
            "auto_list_table", "list1_mlp", "list5_mlp")


class DecodeWorkload:

    def __init__(self, rho: float, frames: Callable[[Sizes], dict]):
        self.rho, self._frames = rho, frames

    def setup(self, seed: int, sizes: Sizes) -> State:
        H = tanner_code()
        st = State(seed, sizes, H)
        ball = frozenset(hamming_ball_syndromes(H, 1))
        env = SyndromeMdp(H, MdpConfig(variant="truncated", w=1),
                          SyndromeSets(ball=ball))
        table = tabular.train_q(
            env, TrainConfig(episodes=sizes.table_w1_episodes, seed=SETUP_SEED),
            BallSampler(H, 1))
        sets = analysis.bounded_sets(H, 2, BF)
        env_fb = SyndromeMdp(
            H, MdpConfig(variant="bounded_feedback_miscorrect", w=2),
            SyndromeSets(**sets))
        feedback = tabular.train_q(
            env_fb, TrainConfig(episodes=sizes.feedback_episodes, seed=SETUP_SEED),
            SetSampler(sets["bfail"]))
        net = radius1_network(H)

        if len(sets["bfail"]) != BF_FAILURES[2]:
            st.problems.append(f"bit flipping fails on {len(sets['bfail'])} "
                               f"weight-2 syndromes, expected {BF_FAILURES[2]}")
        for label, qsrc in (("w=1 table", table), ("radius-1 network", net)):
            got = _singles_in_one_step(H, qsrc)
            if got != H.n:
                st.problems.append(f"{label} corrects {got}/{H.n} single errors")

        st.data.update(
            frames=self._frames(sizes),
            decoders={
                "bf": sim.BfDecoder(H, BF),
                "greedy_table": sim.GreedyDecoder(table, H),
                "list5_table": sim.BeamDecoder(table, H, BeamConfig(k=5)),
                "feedback_table": sim.FeedbackDecoder(feedback, H, BF),
                "auto_list_table": sim.AutomorphismDecoder(table, H, BeamConfig(k=5)),
                "list1_mlp": sim.BeamDecoder(net, H, BeamConfig(k=1)),
                "list5_mlp": sim.BeamDecoder(net, H, BeamConfig(k=5)),
            },
        )
        return st

    def errors(self, st: State) -> list[int]:
        """The shared frame sample, drawn from the channel as run_point
        draws it (frame i from key (seed, i)); made once, outside set-up
        and the timed rounds, for the checks."""
        if "errors" not in st.data:
            bsc = channel.BscConfig(self.rho, st.seed)
            st.data["errors"] = [channel.sample_error(bsc, st.H.n, i)
                                 for i in range(max(st.data["frames"].values()))]
        return st.data["errors"]

    def point(self, st: State, name: str, frames: int):
        """sim.run_point of one decoder over the first `frames` frames."""
        cfg = sim.SimConfig(max_frames=frames, target_errors=frames, seed=st.seed)
        return sim.run_point(st.data["decoders"][name], st.H.n, self.rho, cfg)

    def ops(self, st: State) -> list[Op]:
        frames = st.data["frames"]
        return [Op(name, lambda name=name: self.point(st, name, frames[name]),
                   f"frames_per_s.{name}", lambda pt: pt.frames)
                for name in DECODERS]

    def check(self, st: State, out: dict) -> list[str]:
        problems = []
        for name, pt in out.items():
            errors = self.errors(st)[:st.data["frames"][name]]
            heavy = sum(e.bit_count() >= 2 for e in errors)
            if pt.frames != len(errors):
                problems.append(f"{name}: decoded {pt.frames} of {len(errors)} frames")
            if pt.frame_errors > heavy:
                problems.append(f"{name}: {pt.frame_errors} frame errors but only "
                                f"{heavy} frames carry two or more errors")
            if name not in ("greedy_table", "list1_mlp"):
                continue
            # The radius-1 policies read all-zero values off S(1) and break
            # ties toward bit 0, so they also correct exactly the double
            # errors that contain bit 0, and nothing else.
            radius1_errors = heavy - sum(e.bit_count() == 2 and e & 1 for e in errors)
            if pt.frame_errors != radius1_errors:
                problems.append(f"{name}: {pt.frame_errors} frame errors, "
                                f"a radius-1 decoder makes {radius1_errors}")
            z = self.sigmas_from_closed_form(st, pt)
            if abs(z) > CLOSED_FORM_SIGMAS:
                problems.append(f"{name}: FER {pt.fer} is {z:+.2f} sigma from "
                                f"the radius-1 closed form")
        # The costlier decoder ran on a prefix of its base's frames; the base
        # is decoded again, untimed, on exactly that prefix.
        for better, base in (("feedback_table", "bf"), ("auto_list_table", "list5_table")):
            if better not in out:
                continue
            ref = self.point(st, base, out[better].frames)
            if out[better].frame_errors > ref.frame_errors:
                problems.append(f"{better}: {out[better].frame_errors} frame errors "
                                f"on {ref.frames} frames, more than {base}'s "
                                f"{ref.frame_errors}")
        return problems

    def sigmas_from_closed_form(self, st: State, pt) -> float:
        """(FER - p1) / sigma for the radius-1 closed form p1."""
        ref = oracles.radius1_fer(st.H.n, self.rho)
        return (pt.fer - ref) / oracles.binomial_sigma(ref, pt.frames)

    def signature(self, out: dict):
        return tuple((k, pt.frames, pt.frame_errors, pt.bit_errors)
                     for k, pt in out.items())

    def report(self, st: State, out: dict) -> str:
        weights = [e.bit_count() for e in self.errors(st)]
        fers = " ".join(f"{k}:{pt.frame_errors}/{pt.frames}="
                        f"{pt.fer:.4f}({self.sigmas_from_closed_form(st, pt):+.2f}sigma)"
                        for k, pt in out.items())
        return (f"{weights.count(0)} of {len(weights)} frames error-free, "
                f"{sum(w >= 2 for w in weights)} with two or more errors; {fers}")


# ---------------------------------------------------------------------------
# policy building
# ---------------------------------------------------------------------------


class BuildPolicyWorkload:

    def setup(self, seed: int, sizes: Sizes) -> State:
        H = tanner_code()
        st = State(seed, sizes, H)
        ball1 = frozenset(hamming_ball_syndromes(H, 1))
        ball2 = frozenset(hamming_ball_syndromes(H, 2))
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xBE7C], np.uint64)))
        st.data.update(
            ball2=ball2,
            env_w1=SyndromeMdp(H, MdpConfig(variant="truncated", w=1),
                               SyndromeSets(ball=ball1)),
            env_w2=SyndromeMdp(H, MdpConfig(variant="truncated", w=2),
                               SyndromeSets(ball=ball2)),
            colorings=rng.integers(0, 2, size=(sizes.colorings, H.m), dtype=np.uint8),
            crosscheck={w: oracles.random_patterns(rng, H.n, w, sizes.crosscheck_per_weight)
                        for w in range(1, sizes.enum_w_max + 1)},
            fd_seed=int(rng.integers(1 << 62)),
        )
        return st

    def ops(self, st: State) -> list[Op]:
        H, sz, seed = st.H, st.sizes, st.seed
        spec = H.qc
        d = st.data
        patterns = sum(math.comb(H.n, w) for w in range(1, sz.enum_w_max + 1))
        return [
            Op("enum_failures",
               lambda: analysis.enumerate_failures(H, BF, w_max=sz.enum_w_max),
               "patterns_per_s.enum_failures", lambda _: patterns, sz.enum_w_max),
            Op("train_q",
               lambda: tabular.train_q(
                   d["env_w2"], TrainConfig(episodes=sz.train_q_episodes, seed=seed),
                   BallSampler(H, 2)),
               "episodes_per_s.train_q", lambda _: sz.train_q_episodes),
            # On the w = 1 MDP every episode is one step, and a gradient step
            # follows each environment step once the buffer holds a batch.
            Op("train_dqn",
               lambda: neural.train_dqn(
                   d["env_w1"], DqnConfig(episodes=sz.dqn_episodes, hidden=HIDDEN,
                                          batch=DQN_BATCH, seed=seed),
                   BallSampler(H, 1)),
               "grad_steps_per_s.train_dqn", lambda _: sz.dqn_episodes - DQN_BATCH + 1),
            Op("canonicalize",
               lambda: np.array([automorphism.canonical_representative(v, spec.p, spec.j, spec.b)
                                 for v in d["colorings"]]),
               "canonicalizations_per_s", lambda _: sz.colorings),
        ]

    def check(self, st: State, out: dict) -> list[str]:
        problems = []
        check = {"enum_failures": self._check_enum, "train_q": self._check_table,
                 "train_dqn": self._check_dqn, "canonicalize": self._check_canonical}
        for name, result in out.items():
            problems += [f"{name}: {p}" for p in check[name](st, result)]
        return problems

    def _check_enum(self, st, enum) -> list[str]:
        w_max = st.sizes.enum_w_max
        want = {w: BF_FAILURES[w] for w in range(1, w_max + 1)}
        problems = []
        if enum.failures.counts != want:
            problems.append(f"failures {enum.failures.counts}, expected {want}")
        if any(enum.miscorrections.counts.values()):
            problems.append(f"miscorrections {enum.miscorrections.counts}")
        for w, X in st.data["crosscheck"].items():
            bad = oracles.bf_batch_mismatches(decoders, st.H, X, BF)
            if bad:
                problems.append(f"bf_decode_batch disagrees with the scalar decoder "
                                f"on {len(bad)} weight-{w} patterns")
        return problems

    def _check_table(self, st, Q) -> list[str]:
        H, env = st.H, st.data["env_w2"]
        states = set(Q.states())
        problems = []
        limit = len(st.data["ball2"]) - 1
        if len(states) > limit:
            problems.append(f"{len(states)} rows, more than the {limit} non-zero "
                            f"syndromes of S(2)")
        if not states <= st.data["ball2"] - {0}:
            problems.append("rows outside S(2) minus the zero syndrome")
        lo, hi = -1.0 / env.cfg.L - 1.0, 1.0 - 1.0 / env.cfg.L
        vals = np.array([Q.q_values(s) for s in states])
        if vals.size and not (lo <= vals.min() and vals.max() <= hi):
            problems.append(f"values in [{vals.min()}, {vals.max()}], outside the "
                            f"reward bounds [{lo}, {hi}]")
        wrong = []
        for i in range(H.n):
            res = decoders.greedy_decode(Q, 1 << i, H, env.cfg.L)
            if not (res.converged and res.flips == 1 << i):
                wrong.append(i)
        if wrong:
            problems.append(f"greedy policy does not correct single errors at bits {wrong}")
        return problems

    def _check_dqn(self, st, net) -> list[str]:
        H, env = st.H, st.data["env_w1"]
        rng = np.random.Generator(np.random.Philox(
            key=np.array([st.data["fd_seed"], 0xFD], np.uint64)))
        starts = rng.integers(0, H.n, size=DQN_BATCH)
        A = rng.integers(0, H.n, size=DQN_BATCH)
        steps = [env.step(H.cols_int[i], int(a)) for i, a in zip(starts, A)]

        def bits(s):
            return np.array([(s >> r) & 1 for r in range(H.m)], dtype=np.float64)

        S = np.stack([bits(H.cols_int[i]) for i in starts])
        S2 = np.stack([bits(s2) for s2, _, _ in steps])
        R = np.array([r for _, r, _ in steps])
        T = np.array([t for _, _, t in steps])
        target = net.copy()
        gamma = env.cfg.gamma

        def loss():
            return neural.dqn_loss(net, target, S, A, R, S2, T, gamma)[0]

        _, grads = neural.dqn_loss(net, target, S, A, R, S2, T, gamma)
        return oracles.gradient_mismatches(loss, net.params(), grads, rng)

    def _check_canonical(self, st, canon) -> list[str]:
        spec = st.H.qc
        problems = []
        ref = oracles.orbit_minima(st.data["colorings"], spec.p, spec.j, spec.b)
        bad = np.flatnonzero((canon != ref).any(axis=1))
        if bad.size:
            problems.append(f"{bad.size} canonical forms differ from the orbit minimum")
        again = [i for i in range(0, len(canon), 8)
                 if not np.array_equal(automorphism.canonical_representative(
                     canon[i], spec.p, spec.j, spec.b), canon[i])]
        if again:
            problems.append(f"canonical form not idempotent on {len(again)} colorings")
        return problems

    def signature(self, out: dict):
        sig = []
        for name, result in out.items():
            if name == "enum_failures":
                sig.append((result.failures.counts, result.miscorrections.counts))
            elif name == "train_q":
                sig.append(_digest(*(result.q_values(s) for s in sorted(result.states()))))
            elif name == "train_dqn":
                sig.append(_digest(*result.params().values()))
            else:
                sig.append(_digest(result))
        return tuple(map(str, sig))

    def report(self, st: State, out: dict) -> str:
        parts = []
        if "enum_failures" in out:
            parts.append(f"failures={out['enum_failures'].failures.counts}")
        if "train_q" in out:
            Q = out["train_q"]
            parts.append(f"w2_rows={len(Q)} "
                         f"singles_in_one_step={_singles_in_one_step(st.H, Q)}")
        return " ".join(parts)


WORKLOADS = {
    "decode-waterfall": DecodeWorkload(0.02, lambda s: s.frames_waterfall),
    "decode-floor": DecodeWorkload(0.003, lambda s: s.frames_floor),
    "build-policy": BuildPolicyWorkload(),
}

RATES = tuple(f"frames_per_s.{d}" for d in DECODERS) + (
    "patterns_per_s.enum_failures", "episodes_per_s.train_q",
    "grad_steps_per_s.train_dqn", "canonicalizations_per_s")
