"""Per-layer tracing of synq from outside the package.

A `Tracer` replaces selected public functions and methods of synq's modules
with timing wrappers for the duration of a `with` block and puts the
originals back on exit, so the package's source is never modified and an
untraced round runs the original code.

Every wrapped call is a span.  Spans nest through a stack: a span's self
time is its duration minus the durations of the spans opened inside it, so
the self times of all spans in a round add up to the traced time spent
inside synq.  Counters (frames, beam depth, rows, ...) are read from the
arguments and results at the same boundaries.  All values are kept in
memory and read once the round ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Span names, one per traced public function.  Several targets may share a
# name (a method and its batch form, or a function re-exported by import).
SPANS = (
    "channel.sample_error",
    "codes.syndrome",
    "sim.run_point",
    "tabular.train_q",
    "tabular.q_values",
    "tabular.q_update",
    "tabular.greedy",
    "tabular.sampler",
    "mdp.step",
    "neural.train_dqn",
    "neural.q_values",
    "neural.forward",
    "neural.dqn_loss",
    "neural.optimizer",
    "neural.replay",
    "decoders.greedy",
    "decoders.beam",
    "decoders.bf",
    "decoders.feedback",
    "decoders.auto_list",
    "decoders.bf_batch",
    "automorphism.shift_pair",
    "automorphism.apply_int",
    "automorphism.canonical",
    "analysis.enumerate_failures",
    "analysis.patterns_colex",
)

# Counters read at span boundaries; each has a base named in the README.
COUNTERS = (
    "sim.frames",
    "sim.clean_frames",
    "neural.q_values.rows",
    "decoders.greedy.steps",
    "decoders.beam.depth",
    "decoders.bf.iterations",
    "decoders.feedback.inner_calls",
    "decoders.auto_list.shifts",
    "decoders.auto_list.converged_shifts",
    "decoders.bf_batch.rows",
    "analysis.patterns_colex.rows",
)


def metric_names() -> list[str]:
    """Every value a traced round reports, in a fixed order."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTERS)


# -- counters ----------------------------------------------------------------


def _clean(tr, args, out):
    if out == 0:
        tr.stats["sim.clean_frames"] += 1


def _frames(tr, args, out):
    tr.stats["sim.frames"] += out.frames


def _one_row(tr, args, out):
    tr.stats["neural.q_values.rows"] += 1


def _rows_of_states(tr, args, out):
    tr.stats["neural.q_values.rows"] += len(args[1])


def _steps(counter):
    def count(tr, args, out):
        tr.stats[counter] += out.steps
    return count


def _beam(tr, args, out):
    tr.stats["decoders.beam.depth"] += out.steps
    if tr.parent() == "decoders.auto_list":
        tr.stats["decoders.auto_list.shifts"] += 1
        if out.converged:
            tr.stats["decoders.auto_list.converged_shifts"] += 1


def _batch_rows(tr, args, out):
    tr.stats["decoders.bf_batch.rows"] += len(args[0])


def _colex_rows(tr, args, out):
    tr.stats["analysis.patterns_colex.rows"] += args[3] - args[2]


def targets():
    """(owner, attribute, span, counter) for every traced entry point.

    `sim` imports `sample_error` by name, so both bindings are wrapped.
    The adapters in `sim` and the decoders call each other through module
    attributes, which is what makes wrapping from outside see them.
    """
    from synq import (analysis, automorphism, channel, codes, decoders, mdp,
                      neural, sim, tabular)

    return [
        (sim, "sample_error", "channel.sample_error", _clean),
        (channel, "sample_error", "channel.sample_error", _clean),
        (codes.ParityCheckMatrix, "syndrome", "codes.syndrome", None),
        (sim, "run_point", "sim.run_point", _frames),
        (tabular, "train_q", "tabular.train_q", None),
        (tabular.QTable, "q_values", "tabular.q_values", None),
        (tabular, "q_update", "tabular.q_update", None),
        (tabular.QTable, "greedy", "tabular.greedy", None),
        (tabular.BallSampler, "__call__", "tabular.sampler", None),
        (tabular.SetSampler, "__call__", "tabular.sampler", None),
        (mdp.SyndromeMdp, "step", "mdp.step", None),
        (neural, "train_dqn", "neural.train_dqn", None),
        (neural.MlpNetwork, "q_values", "neural.q_values", _one_row),
        (neural.MlpNetwork, "q_values_batch", "neural.q_values", _rows_of_states),
        (neural.MlpNetwork, "forward", "neural.forward", None),
        (neural.MlpNetwork, "forward_batch", "neural.forward", None),
        (neural, "dqn_loss", "neural.dqn_loss", None),
        (neural.Adam, "step", "neural.optimizer", None),
        (neural.ReplayBuffer, "push", "neural.replay", None),
        (neural.ReplayBuffer, "sample", "neural.replay", None),
        (decoders, "greedy_decode", "decoders.greedy", _steps("decoders.greedy.steps")),
        (decoders, "action_list_decode", "decoders.beam", _beam),
        (decoders, "bit_flipping_decode", "decoders.bf",
         _steps("decoders.bf.iterations")),
        (decoders, "feedback_decode", "decoders.feedback",
         _steps("decoders.feedback.inner_calls")),
        (decoders, "automorphism_list_decode", "decoders.auto_list", None),
        (decoders, "bf_decode_batch", "decoders.bf_batch", _batch_rows),
        (automorphism, "shift_pair", "automorphism.shift_pair", None),
        (automorphism.IndexPermutation, "apply_int", "automorphism.apply_int", None),
        (automorphism, "canonical_representative", "automorphism.canonical", None),
        (analysis, "enumerate_failures", "analysis.enumerate_failures", None),
        (analysis, "patterns_colex", "analysis.patterns_colex", _colex_rows),
    ]


class Tracer:
    """Context manager that wraps the targets and accumulates span stats."""

    def __init__(self, entries=None):
        self._entries = entries
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._saved: list[tuple] = []

    def parent(self) -> str | None:
        """Name of the innermost open span (the caller of a finished one)."""
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, fn, name, count):
        stack, stats = self._stack, self.stats
        calls, self_s = f"{name}.calls", f"{name}.self_s"

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[calls] += 1
                stats[self_s] += dt - frame[1]
            if count is not None:
                count(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        entries = self._entries if self._entries is not None else targets()
        for owner, attr, name, count in entries:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def values(self) -> dict[str, float]:
        """Every span and counter, zero for those the round never reached."""
        return {name: float(self.stats.get(name, 0.0)) for name in metric_names()}
