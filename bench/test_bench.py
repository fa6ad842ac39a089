"""Tests of the benchmark itself: short mode end to end, the oracles, the
tracer and the refusal to run without the package sources.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from synq import decoders  # noqa: E402
from synq.analysis import bdd_fer  # noqa: E402
from synq.automorphism import canonical_representative  # noqa: E402
from synq.codes import int_to_bits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_mode_passes_every_check(name, trace):
    result = harness.run_workload(name, seed=3, seconds=0.0, trace=bool(trace),
                                  sizes=workloads.SHORT)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.overhead"]["value"] != 0.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_radius1_closed_form_agrees_with_bdd():
    for rho in (0.001, 0.003, 0.02, 0.1):
        ref = bdd_fer(155, 1, rho)
        assert math.isclose(oracles.radius1_fer(155, rho), ref, rel_tol=1e-9)


@pytest.mark.parametrize("j,p,b", [(2, 3, 2), (3, 3, 1), (1, 5, 1)])
def test_orbit_minima_match_canonical_forms_exhaustively(j, p, b):
    V = np.array([int_to_bits(x, j * p) for x in range(1 << (j * p))])
    want = np.array([canonical_representative(v, p, j, b) for v in V])
    assert np.array_equal(oracles.orbit_minima(V, p, j, b), want)


def test_orbit_minimum_is_an_orbit_member_below_the_input():
    rng = np.random.default_rng(5)
    V = rng.integers(0, 2, size=(50, 93), dtype=np.uint8)
    M = oracles.orbit_minima(V, 31, 3, 5)
    assert (M.sum(axis=1) == V.sum(axis=1)).all()
    for v, m in zip(V, M):
        assert m.tobytes() <= v.tobytes()
        assert np.array_equal(canonical_representative(v, 31, 3, 5), m)


def test_radius1_network_fires_only_on_single_error_syndromes():
    H = workloads.tanner_code()
    net = workloads.radius1_network(H)
    for i in range(H.n):
        q = net.q_values(H.cols_int[i])
        assert q[i] == 1.0 and np.count_nonzero(q) == 1
    for i, k in [(0, 1), (3, 100), (40, 154)]:
        assert not net.q_values(H.cols_int[i] ^ H.cols_int[k]).any()


def test_bf_cross_check_flags_a_wrong_batch_decoder():
    H = workloads.tanner_code()
    X = oracles.random_patterns(np.random.default_rng(1), H.n, 2, 6)
    assert oracles.bf_batch_mismatches(decoders, H, X, workloads.BF) == []

    class Broken:
        bit_flipping_decode = staticmethod(decoders.bit_flipping_decode)

        @staticmethod
        def bf_decode_batch(X, H, cfg):
            flips, conv, iters = decoders.bf_decode_batch(X, H, cfg)
            return flips, conv, iters + 1

    assert oracles.bf_batch_mismatches(Broken, H, X, workloads.BF) == list(range(6))


def test_gradient_check_flags_a_wrong_gradient():
    params = {"w": np.array([0.5, -1.0, 2.0])}

    def loss():
        return float((params["w"] ** 2).sum())

    right = {"w": 2 * params["w"]}
    rng = np.random.default_rng(0)
    assert oracles.gradient_mismatches(loss, params, right, rng) == []
    wrong = {"w": right["w"] * np.array([1.0, 1.0, 1.01])}
    assert len(oracles.gradient_mismatches(loss, params, wrong, rng)) == 1


def test_tracer_self_times_partition_the_traced_time():
    import time

    class Mod:
        @staticmethod
        def inner(x):
            time.sleep(0.01)
            return x

        @staticmethod
        def outer(x):
            time.sleep(0.02)
            return Mod.inner(x) + Mod.inner(x)

    originals = (Mod.__dict__["inner"], Mod.__dict__["outer"])
    entries = [(Mod, "inner", "m.inner", None), (Mod, "outer", "m.outer", None)]
    with spans.Tracer(entries) as tr:
        t0 = time.perf_counter()
        assert Mod.outer(2) == 4
        total = time.perf_counter() - t0
    assert (Mod.__dict__["inner"], Mod.__dict__["outer"]) == originals
    s = tr.stats
    assert (s["m.outer.calls"], s["m.inner.calls"]) == (1, 2)
    assert s["m.inner.self_s"] >= 0.02
    assert 0.02 <= s["m.outer.self_s"] < 0.02 + (total - s["m.inner.self_s"])
    assert s["m.outer.self_s"] + s["m.inner.self_s"] <= total


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "decode-floor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
