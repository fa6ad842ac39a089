import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def record(side, seed, round_s, rate, correct=True):
    return {"workload": "w", "side": side, "seed": seed, "order": seed % 2,
            "env": "nproc=2", "returncode": 0,
            "result": {"correct": correct, "failed": 0, "metrics": {
                "round_s": {"value": round_s, "unit": "s"},
                "rate": {"value": rate, "unit": "1/s"}}}}


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
    bench_pairs.main(argv + ["9"])
    assert json.loads(out.read_text())["summary"]["w"]["pairs"] == 4
