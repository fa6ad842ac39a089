import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def record(side, seed, round_s, rate, correct=True, scale=None):
    rec = {"workload": "w", "side": side, "seed": seed, "order": seed % 2,
           "env": "nproc=2", "returncode": 0,
           "result": {"correct": correct, "failed": 0, "metrics": {
               "round_s": {"value": round_s, "unit": "s"},
               "rate": {"value": rate, "unit": "1/s"}}}}
    if scale is not None:
        rec["raw"] = {"round_s": round_s / scale, "setup_s": None, "scale": scale}
    return rec


def test_raw_figures_read_the_printed_rounds_and_probe_factor():
    lines = ["# nproc=2", "[w] round 1: 0.500 s  a=1.0", "[w] round 2: 0.700 s",
             "[w] round 3: 0.600 s  a=2.0", "[w] setup median 1.2500 s of 3; ok",
             "[w] speed probe: median kernel time 6.250 ms over 30 timings; "
             "round_s and setup_s are the times above x 0.8000", "{}"]
    assert bench_pairs.raw_figures(lines) == {"round_s": 0.6, "setup_s": 1.25,
                                              "scale": 0.8}
    assert bench_pairs.raw_figures(["{}"]) == {"round_s": None, "setup_s": None,
                                               "scale": None}


def test_summary_reports_raw_round_s_beside_the_scaled_one():
    # the change's scaled rounds look 20% slower, but only because its probe
    # factor is 20% larger: the raw rounds are equal
    runs = [record("parent", s, 1.0, 1, scale=1.0) for s in (1, 2, 3)]
    runs += [record("change", s, 1.2, 1, scale=1.2) for s in (1, 2, 3)]
    summ = bench_pairs.summarize(runs, {"round_s": "lower", "setup_s": "lower"})["w"]
    assert summ["round_s"]["relative_change"] == pytest.approx(0.2)
    assert summ["raw_round_s"]["parent_median"] == summ["raw_round_s"]["change_median"] == 1.0
    assert summ["raw_round_s"]["change_wins"] == 0 and "raw_setup_s" not in summ


def test_summary_arithmetic_on_canned_records():
    runs = [record("parent", 1, 1.0, 10), record("change", 1, 0.7, 12),
            record("change", 2, 0.9, 9), record("parent", 2, 1.2, 10),
            record("parent", 3, 1.1, 10), record("change", 3, 1.15, 11),
            record("parent", 4, 5.0, 1)]  # no change run: not a pair
    summ = bench_pairs.summarize(runs, {"round_s": "lower", "rate": "higher",
                                        "absent": "lower"})["w"]
    assert summ["pairs"] == 3 and summ["all_correct"] and "absent" not in summ
    r = summ["round_s"]
    assert r["parent_median"] == 1.1 and r["change_median"] == 0.9
    assert r["parent_iqr"] == pytest.approx(0.1) and r["change_iqr"] == pytest.approx(0.225)
    assert r["relative_change"] == pytest.approx(0.9 / 1.1 - 1)
    assert r["change_wins"] == 2 and r["better"] == "lower"
    assert summ["rate"]["change_wins"] == 2
    runs[1]["result"]["correct"] = False
    assert not bench_pairs.summarize(runs, {"round_s": "lower"})["w"]["all_correct"]


def test_pairs_alternate_and_extend_the_output(tmp_path):
    # two stand-in trees whose bench prints an environment line and a result
    for side, round_s in (("parent", 2.0), ("change", 1.0)):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "round_s", "better": "lower"}]}))
        (tmp_path / side / "bench" / "run.py").write_text(
            "import json, sys\n"
            f"print('# nproc=1 side={side}')\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "with open('../order.txt', 'a') as fh: fh.write(f'{seed}:" + side + "\\n')\n"
            f"print('[w] round 1: {round_s / 2:.3f} s')\n"
            "print('[w] speed probe: median kernel time 10.000 ms over 3 timings; "
            "round_s and setup_s are the times above x 0.5000')\n"
            f"print(json.dumps({{'correct': True, 'failed': 0, 'metrics': "
            f"{{'round_s': {{'value': {round_s}, 'unit': 's'}}}}}}))\n")
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "2", "--seconds", "1", "--out", str(out), "--seed"]
    assert bench_pairs.main(argv + ["7"]) == 0
    assert (tmp_path / "order.txt").read_text().split() == [
        "7:parent", "7:change", "8:change", "8:parent"]
    doc = json.loads(out.read_text())
    assert [r["env"] for r in doc["runs"]][:2] == ["nproc=1 side=parent", "nproc=1 side=change"]
    assert doc["summary"]["w"]["round_s"]["change_wins"] == 2
    assert doc["runs"][0]["raw"] == {"round_s": 1.0, "setup_s": None, "scale": 0.5}
    assert doc["summary"]["w"]["raw_round_s"]["change_median"] == 0.5
    bench_pairs.main(argv + ["9"])
    assert json.loads(out.read_text())["summary"]["w"]["pairs"] == 4


_TIGHT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.0375
_WIDE = [0.6, 1.0, 1.4, 0.7, 1.3]  # IQR 0.6, 60% of the median


@pytest.mark.parametrize("parent, change, better, want", [
    # 10% slower: inside the 0.25 bound
    (_TIGHT, [p * 1.1 for p in _TIGHT], "lower", "held"),
    (_TIGHT, [p * 1.3 for p in _TIGHT], "lower", "regressed"),
    (_TIGHT, [p * 0.7 for p in _TIGHT], "higher", "regressed"),
    # a parent spread wider than the bound, runs that overlap it
    (_WIDE, [0.9, 1.0, 1.1, 0.95, 1.05], "lower", "unresolved"),
    # a regression beyond the bound is reported whatever the spread
    (_WIDE, [p + 0.5 for p in _WIDE], "lower", "regressed"),
    # the same spread, but every change run beats every parent run
    (_WIDE, [0.2, 0.3, 0.35, 0.25, 0.28], "lower", "improved"),
    # 9 of 10 pairs won, by more than the parent's IQR
    (_TIGHT, [p - 0.1 for p in _TIGHT[:9]] + [_TIGHT[9] + 0.01], "lower", "improved"),
    (_TIGHT, [p + 0.1 for p in _TIGHT[:9]] + [_TIGHT[9] - 0.01], "higher", "improved"),
    # 8 of 10 pairs won: not enough
    (_TIGHT, [p - 0.1 for p in _TIGHT[:8]] + [p + 0.01 for p in _TIGHT[8:]], "lower", "held"),
    # every pair won, by less than the parent's IQR
    (_TIGHT, [p - 0.001 for p in _TIGHT], "lower", "held"),
])
def test_verdict_rules(parent, change, better, want):
    assert bench_pairs.verdict(parent, change, better, 0.25) == want


def test_summary_gives_a_verdict_only_to_bounded_metrics():
    runs = []
    for seed, p in enumerate(_TIGHT):
        runs += [record("parent", seed, p, 10, scale=1.0),
                 record("change", seed, p * 1.3, 10, scale=1.0)]
    summ = bench_pairs.summarize(runs, {"round_s": "lower", "rate": "higher"},
                                 {"round_s": 0.25})["w"]
    assert summ["round_s"]["verdict"] == "regressed"
    assert "verdict" not in summ["rate"] and "verdict" not in summ["raw_round_s"]
    assert "verdict" not in bench_pairs.summarize(runs, {"round_s": "lower"})["w"]["round_s"]
