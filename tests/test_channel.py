import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synq
from synq.channel import STREAM_TAG, BscConfig, sample_error, sample_errors
from synq.codes import bits_to_int
from synq.sim import SLICE


def reference_frame(seed: int, i: int, n: int) -> np.ndarray:
    """Frame i by the stream's definition: Philox keyed (seed, STREAM_TAG),
    advanced past the ceil(n/4) counter blocks of each earlier frame, then
    the first n of its 4 ceil(n/4) doubles compared with rho (by the caller)."""
    blocks = -(-n // 4)
    bitgen = np.random.Philox(key=np.array([seed % 2**64, STREAM_TAG], np.uint64))
    bitgen.advance(i * blocks)
    return np.random.Generator(bitgen).random(4 * blocks)[:n]


def test_same_key_same_noise():
    cfg = BscConfig(rho=0.1, seed=42)
    a = sample_errors(cfg, 200, 7, 8)[0]
    b = sample_errors(cfg, 200, 7, 8)[0]
    assert np.array_equal(a, b)


def test_streams_are_independent_of_order():
    # frame i depends only on (seed, i), never on which frames ran before
    cfg = BscConfig(rho=0.2, seed=1)
    direct = {i: sample_error(cfg, 64, i) for i in (9, 1, 5)}
    again = {i: sample_error(cfg, 64, i) for i in (1, 5, 9)}
    assert direct == again


def test_distinct_streams_differ():
    cfg = BscConfig(rho=0.5, seed=3)
    frames = {sample_error(cfg, 128, i) for i in range(32)}
    assert len(frames) == 32


def test_seed_changes_noise():
    a = sample_error(BscConfig(rho=0.5, seed=0), 128, 0)
    b = sample_error(BscConfig(rho=0.5, seed=1), 128, 0)
    assert a != b


def test_degenerate_rates():
    assert sample_error(BscConfig(rho=0.0, seed=0), 100, 3) == 0
    assert sample_error(BscConfig(rho=1.0, seed=0), 100, 3) == (1 << 100) - 1


def test_empirical_rate_near_rho():
    cfg = BscConfig(rho=0.03, seed=11)
    total = sum(
        int(sample_errors(cfg, 155, i, i + 1)[0].sum()) for i in range(2000)
    )
    rate = total / (155 * 2000)
    assert abs(rate - 0.03) < 0.003  # ~17 sigma; deterministic given the seed


def test_packed_matches_bits():
    cfg = BscConfig(rho=0.4, seed=5)
    for i in range(10):
        bits = sample_errors(cfg, 90, i, i + 1)[0]
        assert sample_error(cfg, 90, i) == bits_to_int(bits)


def test_rho_validation():
    with pytest.raises(ValueError):
        BscConfig(rho=-0.1)
    with pytest.raises(ValueError):
        BscConfig(rho=1.5)


def test_wide_indices_do_not_alias():
    # the counter is 256 bits wide, so frames 2^64 apart are different
    # draws (a key word taken mod 2^64 made them the same frame)
    cfg = BscConfig(rho=0.5, seed=0)
    a, b = (sample_errors(cfg, 155, i, i + 1)[0] for i in (3, 3 + 2**64))
    assert not np.array_equal(a, b)
    assert np.array_equal(b, reference_frame(0, 3 + 2**64, 155) < 0.5)


class _PhiloxKeys(ast.NodeVisitor):
    """Every `Philox(key=np.array([seed, tag], ...))` call of one module,
    as {"module.scope": tag}, the tag a literal or a module attribute."""

    def __init__(self, module):
        self.module, self.scope, self.tags = module, [], {}

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) == "Philox":
            site = ".".join([self.module.__name__.split(".")[-1], *self.scope])
            key = [k.value for k in node.keywords if k.arg == "key"]
            assert key and isinstance(key[0].args[0], ast.List), site
            _, tag = key[0].args[0].elts
            self.tags[site] = (getattr(self.module, tag.id) if isinstance(tag, ast.Name)
                               else ast.literal_eval(tag))
        self.generic_visit(node)


def test_stream_tag_is_not_another_generators_key():
    # every generator in the package keys Philox with (seed, tag); a shared
    # tag would replay one generator's numbers as another's, for example
    # training draws as channel noise
    tags = {}
    for path in sorted(Path(synq.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"synq.{path.stem}".removesuffix(".__init__"))
        visitor = _PhiloxKeys(module)
        visitor.visit(ast.parse(path.read_text()))
        tags.update(visitor.tags)
    assert {"channel.sample_errors", "codes.random_parity_check", "tabular.train_q",
            "neural.MlpNetwork.init", "neural.train_dqn"} <= tags.keys()
    assert tags["channel.sample_errors"] == STREAM_TAG
    assert len(set(tags.values())) == len(tags), tags


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**66)),
       lo=st.one_of(st.integers(0, 2**20), st.integers(2**64 - 3, 2**65)),
       count=st.integers(0, 5), n=st.sampled_from([0, 1, 3, 155]),
       rho=st.sampled_from([0.0, 1e-300, 0.003, 0.5, 1.0]))
def test_sample_errors_rows_are_the_reference_streams(seed, lo, count, n, rho):
    cfg = BscConfig(rho, seed)
    E = sample_errors(cfg, n, lo, lo + count)
    assert E.shape == (count, n) and E.dtype == np.uint8
    for r in range(count):
        want = (reference_frame(seed, lo + r, n) < rho).astype(np.uint8)
        assert np.array_equal(E[r], want)
        assert np.array_equal(sample_errors(cfg, n, lo + r, lo + r + 1)[0], want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.sampled_from([1, 3, 155]),
       a=st.integers(0, 3 * SLICE), b=st.integers(0, 3 * SLICE),
       step=st.sampled_from([1, 7, SLICE - 1, SLICE, SLICE + 1]))
def test_a_frame_does_not_depend_on_its_window(seed, n, a, b, step):
    # frames drawn in one window, or in slices of any size that start
    # anywhere (across sim.SLICE boundaries too), are the same rows
    lo, hi = min(a, b), max(a, b)
    cfg = BscConfig(0.5, seed)
    whole = sample_errors(cfg, n, lo, hi)
    sliced = [sample_errors(cfg, n, x, min(x + step, hi)) for x in range(lo, hi, step)]
    assert np.array_equal(np.concatenate([whole[:0], *sliced]), whole)
    for i in {lo, hi - 1, SLICE - 1, SLICE} & set(range(lo, hi)):
        assert np.array_equal(whole[i - lo], sample_errors(cfg, n, i, i + 1)[0])


@pytest.mark.parametrize("rho", [0.0, 1e-300, 0.003, 0.5, 1.0])
def test_integer_threshold_is_random_below_rho_at_the_boundary(rho):
    # sample_errors compares raw words with an integer threshold; setting
    # the crossover to a word's own double value, or one ulp either side,
    # must give the bit `random() < rho` gives on that word
    n, frame = 155, 12
    u = reference_frame(9, frame, n)
    for j in (0, 77, 154):
        for r in (rho, u[j], np.nextafter(u[j], 0.0), np.nextafter(u[j], 1.0)):
            bits = sample_errors(BscConfig(float(r), 9), n, frame, frame + 1)[0]
            assert np.array_equal(bits, (u < r).astype(np.uint8)), (j, r)
