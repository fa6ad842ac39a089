#!/usr/bin/env python3
"""Compare two source trees with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload decode-floor \\
        --pairs 5 --seed 41 --seconds 20 --out BENCH_N.json

Pair j runs `python3 bench/run.py --workload W --seed S+j --seconds T
--trace 0` once in each tree with the same seed; the side that runs first
flips every pair (order 0: parent first).  A record keeps the run's final
JSON line and the environment line it printed, and under "raw" the
unscaled figures it printed before the speed-probe correction: the median
of its `round k: X s` lines, its set-up median and the probe's factor.  The
output holds every record and, per workload and end-to-end metric, both
sides' medians and inclusive-quartile IQRs, the change's relative median
shift and the pairs in which the change was better (direction from
BENCHMARK.json), and a verdict against the metric's relative bound there
(see `verdict`); `raw_round_s` and `raw_setup_s` are summarized the same
way without a verdict, so a shift that comes from the probe rather than the
rounds shows.

--workload may be repeated.  An existing --out file is extended, so a series
can be built in several calls.  --traced-seconds T adds one `--trace 1` run
per side at the first seed and keeps all of its metrics.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = ("parent and change run alternately, each from its own copy of the "
            "tree; the side that runs first flips each pair (order 0: parent "
            "first); both sides of a pair use the same seed. Each record is the "
            "final JSON line of one run; env is the environment line it "
            "printed. IQRs are between inclusive quartiles.")


_ROUND = re.compile(r"^\[[^\]]+\] round \d+: ([0-9.]+) s")
_SETUP = re.compile(r"^\[[^\]]+\] setup median ([0-9.]+) s")
_SCALE = re.compile(r"^\[[^\]]+\] speed probe: .* x ([0-9.]+)$")


def raw_figures(lines: list[str]) -> dict:
    """Unscaled round and set-up medians and the speed-probe factor that a
    run printed; None for a figure the run did not print."""
    def grab(pattern):
        return [float(m[1]) for m in map(pattern.match, lines) if m]
    rounds, setup, scale = grab(_ROUND), grab(_SETUP), grab(_SCALE)
    return {"round_s": statistics.median(rounds) if rounds else None,
            "setup_s": setup[-1] if setup else None,
            "scale": scale[-1] if scale else None}


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((ln[2:] for ln in lines if ln.startswith("# ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return {"env": env, "returncode": proc.returncode, "result": result,
            "raw": raw_figures(lines)}


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def _value(rec: dict, metric: str) -> float | None:
    """A record's figure: `raw_X` from its unscaled figures, anything else
    from the metrics of its JSON line."""
    if metric.startswith("raw_"):
        return (rec.get("raw") or {}).get(metric[4:])
    return rec["result"].get("metrics", {}).get(metric, {}).get("value")


def verdict(par: list[float], chg: list[float], direction: str, bound: float) -> str:
    """One pair-matched metric judged against its relative `bound`, first
    rule that holds:
      regressed   the change's median is worse than the parent's by more
                  than bound x the parent's median;
      unresolved  the parent's IQR exceeds bound x its median, and not every
                  change run beats every parent run;
      improved    the change wins at least 9 of 10 pairs, and the medians
                  differ by more than the parent's IQR;
      held        otherwise."""
    sign = 1 if direction == "higher" else -1
    pm, cm, iqr = statistics.median(par), statistics.median(chg), _iqr(par)
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed"
    if iqr > bound * abs(pm) and not all(sign * (c - p) > 0 for p in par for c in chg):
        return "unresolved"
    if 10 * wins >= 9 * len(par) and sign * (cm - pm) > iqr:
        return "improved"
    return "held"


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload: pairs, all_correct, and for each metric of `better`
    ("lower" or "higher") the medians, IQRs, relative median shift and the
    pairs the change won, plus its `verdict` if `bounds` gives the metric a
    relative bound.  A pair is the parent and change runs of one seed.
    round_s and setup_s are also summarized unscaled, as raw_round_s and
    raw_setup_s."""
    out = {}
    metrics = {**better, **{f"raw_{k}": d for k, d in better.items()
                            if k in ("round_s", "setup_s")}}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        sides = {(r["seed"], r["side"]): r for r in runs if r["workload"] == wl}
        seeds = sorted(s for s, side in sides if side == "parent" and (s, "change") in sides)
        summ = {"pairs": len(seeds)}
        for metric, direction in metrics.items():
            got = [(_value(sides[s, "parent"], metric), _value(sides[s, "change"], metric))
                   for s in seeds]
            got = [(p, c) for p, c in got if p is not None and c is not None]
            if not got:
                continue
            par, chg = [p for p, _ in got], [c for _, c in got]
            sign = 1 if direction == "higher" else -1
            pm = statistics.median(par)
            summ[metric] = {
                "parent_median": pm, "parent_iqr": _iqr(par),
                "change_median": statistics.median(chg), "change_iqr": _iqr(chg),
                "better": direction,
                "change_wins": sum(sign * (c - p) > 0 for p, c in got),
                "relative_change": statistics.median(chg) / pm - 1 if pm else None,
            }
            if metric in (bounds or {}):
                summ[metric]["verdict"] = verdict(par, chg, direction, bounds[metric])
        summ["all_correct"] = all(
            r["result"].get("correct") and r["result"].get("failed") == 0
            and r["returncode"] == 0 for r in runs if r["workload"] == wl)
        out[wl] = summ
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--traced-seconds", type=float)
    ap.add_argument("--claim")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("protocol", PROTOCOL)
    doc["command"] = "python3 bench/run.py --workload W --seed S --seconds T --trace 0"
    if args.claim:
        doc["claim"] = args.claim
    runs, traced = doc.get("runs", []), doc.get("traced", {})
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for wl in args.workload:
        for j in range(args.pairs):
            seed = args.seed + j
            for side in ("parent", "change") if j % 2 == 0 else ("change", "parent"):
                rec = run_bench(trees[side], wl, seed, args.seconds, 0)
                runs.append({"workload": wl, "side": side, "seed": seed,
                             "order": j % 2, **rec})
                print(f"{wl} seed {seed} {side}: round_s {_value(rec, 'round_s')} "
                      f"(raw {rec['raw']['round_s']} x scale {rec['raw']['scale']})",
                      flush=True)
        if args.traced_seconds:
            traced[wl] = {"seed": args.seed, "seconds": args.traced_seconds}
            for side in ("parent", "change"):
                rec = run_bench(trees[side], wl, args.seed, args.traced_seconds, 1)
                traced[wl][side] = {k: v["value"] for k, v in
                                    rec["result"].get("metrics", {}).items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    doc["summary"] = summarize(runs, {m["name"]: m["better"] for m in spec["end_to_end"]},
                               {m["name"]: m["bound"] for m in spec["end_to_end"]
                                if "bound" in m})
    doc["runs"], doc["traced"] = runs, traced
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
