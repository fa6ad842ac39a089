"""The measurement loop: set-up repeats, rounds, checks and the result line.

Imported by run.py once the environment is pinned; see run.py for usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import calibrate
import spans
import workloads


@dataclass
class Round:
    """One pass over a workload's operations; `wall` sums their times."""

    out: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: dict | None = None


def run_round(wl, st, probe, tracer=None) -> Round:
    rnd = Round()
    ops = wl.ops(st)
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in ops:
            probe.probe()
            rnd.attempted += op.count
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception:
                traceback.print_exc()
                rnd.failed += op.count
                continue
            dt = perf_counter() - t0
            rnd.out[op.name] = result
            rnd.rates[op.rate] = op.work(result) / dt
            rnd.wall += dt
    if tracer is not None:
        rnd.layers = tracer.values()
    return rnd


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    wl = workloads.WORKLOADS[name]
    probe = calibrate.SpeedProbe()
    # Set up at least `setup_repeats` times and for at least `setup_min_s`,
    # so that a set-up of a few milliseconds still has a steady median.
    setup_times = []
    probe.probe()
    while (len(setup_times) < sizes.setup_repeats
           or sum(setup_times) < sizes.setup_min_s):
        t0 = perf_counter()
        st = wl.setup(seed, sizes)
        setup_times.append(perf_counter() - t0)
    probe.probe()

    # Rounds until `seconds` have been spent in them.  Each round's outputs
    # are checked (the first) or compared with the first's signature, then
    # dropped, so that peak memory does not grow with the number of rounds.
    problems = list(st.problems)
    plain, traced = [], []
    sig = report = None
    spent = 0.0
    while len(plain) < sizes.min_rounds or spent < seconds:
        for tracer in ((None, spans.Tracer()) if trace else (None,)):
            t0 = perf_counter()
            rnd = run_round(wl, st, probe, tracer)
            spent += perf_counter() - t0
            if sig is None:
                problems += wl.check(st, rnd.out)
                report = wl.report(st, rnd.out)
                sig = wl.signature(rnd.out)
            elif wl.signature(rnd.out) != sig:
                problems.append(f"round {len(plain) + len(traced) + 1} produced "
                                f"different outputs from round 1")
            rnd.out = None
            (plain if tracer is None else traced).append(rnd)
    for p in problems:
        print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)

    rounds = plain + traced
    for k, rnd in enumerate(plain, start=1):
        rates = " ".join(f"{r}={v:.1f}" for r, v in rnd.rates.items())
        print(f"[{name}] round {k}: {rnd.wall:.3f} s  {rates}")
    print(f"[{name}] setup median {statistics.median(setup_times):.4f} s of "
          f"{len(setup_times)}; {report}")
    scale = probe.scale()
    print(f"[{name}] speed probe: median kernel time "
          f"{calibrate.REFERENCE_S / scale * 1e3:.3f} ms over {len(probe.samples)} "
          f"timings; round_s and setup_s are the times above x {scale:.4f}")

    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * scale, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            "round_s": {"value": statistics.median(r.wall for r in plain) * scale,
                        "unit": "s"},
        }
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def layer_metrics(plain: list[Round], traced: list[Round]) -> dict:
    metrics = {}
    for name in spans.metric_names():
        unit = "s" if name.endswith(".self_s") else "count"
        value = statistics.median(r.layers[name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    for rate in workloads.RATES:
        seen = [r.rates[rate] for r in plain if rate in r.rates]
        metrics[rate] = {"value": statistics.median(seen) if seen else 0.0, "unit": "1/s"}
    overhead = (statistics.median(r.wall for r in traced)
                / statistics.median(r.wall for r in plain) - 1.0)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> str:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description="synq benchmark")
    ap.add_argument("--workload", help=", ".join(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one round of every operation on small inputs")
    args = ap.parse_args(argv)

    if args.short:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        sizes, seconds = workloads.SHORT, 0.0
    elif args.workload:
        names, sizes, seconds = [args.workload], workloads.FULL, args.seconds
    else:
        ap.error("--workload is required unless --short is given")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")

    print(f"# {environment()}")
    ok = True
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), sizes)
        ok &= result["correct"] and result["failed"] == 0
        print(json.dumps(result), flush=True)
    return 0 if ok else 1
