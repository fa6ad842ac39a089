#!/usr/bin/env python3
"""Time and fingerprint the benchmark's decoders, one source tree at a time.

    python3 tools/decode_ops.py PARENT_DIR CHANGE_DIR --workload decode-floor \\
        --seed 21 --repeats 5

For each tree and workload a child process imports synq and the benchmark
from that tree (bench/ is only read), sets the workload up at FULL sizes and
the given seed, and draws the first frames of its channel sample as one
(B, n) error matrix.  Each of the seven decoders then decodes its own frame
count `repeats` times as `sim.run_point` does: `decode_batch` on spans of
`SimConfig().batch` frames, with one fresh `decoders.SyndromeMemo` per
decoder run in trees that have one.  One line per decoder gives its nonzero
and distinct syndrome counts, and per tree the best time in ms and the
first 16 hex digits of a SHA-256 of its (flips, converged, steps); trees
whose digests agree decode the sample bit for bit alike.  The BLAS thread
count is whatever the environment sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path


def child(tree: Path, workload: str, seed: int, repeats: int) -> dict:
    """{decoder: [best seconds, digest]} for one tree, run in this process."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import numpy as np
    import workloads
    from synq.channel import BscConfig, sample_errors
    from synq import decoders
    from synq.sim import SimConfig

    wl = workloads.WORKLOADS[workload]
    st = wl.setup(seed, workloads.FULL)
    frames = st.data["frames"]
    E = sample_errors(BscConfig(wl.rho, seed), st.H.n, 0, max(frames.values()))
    span = SimConfig().batch
    memo = getattr(decoders, "SyndromeMemo", None)  # None in trees without a memo
    out = {}
    for name in workloads.DECODERS:
        rows, decoder = E[:frames[name]], st.data["decoders"][name]
        best = float("inf")
        for _ in range(repeats):
            kw = {} if memo is None else {"memo": memo()}
            t0 = time.perf_counter()
            got = [decoder.decode_batch(rows[lo:lo + span], **kw)
                   for lo in range(0, len(rows), span)]
            best = min(best, time.perf_counter() - t0)
        h = hashlib.sha256()
        for a in zip(*got):
            h.update(np.ascontiguousarray(np.concatenate(a), dtype=np.int64).tobytes())
        S = st.H.syndrome_batch(rows)
        S = S[S.any(axis=1)]
        out[name] = [best, h.hexdigest()[:16], len(S), len(np.unique(S, axis=0))]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", type=Path, nargs="+")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.trees[0].resolve(), args.workload[0], args.seed,
                               args.repeats)))
        return 0
    same = True
    for workload in args.workload:
        results = []
        for tree in args.trees:
            cmd = [sys.executable, __file__, str(tree), "--workload", workload, "--seed",
                   str(args.seed), "--repeats", str(args.repeats), "--child"]
            run = subprocess.run(cmd, capture_output=True, text=True, check=True)
            results.append(json.loads(run.stdout.splitlines()[-1]))
        print(f"{workload}, seed {args.seed}, best of {args.repeats}: "
              + "  |  ".join(str(t) for t in args.trees))
        for name in results[0]:
            digests = {r[name][1] for r in results}
            same &= len(digests) == 1
            counts = f"{results[0][name][2]:6d} nonzero {results[0][name][3]:6d} distinct"
            cells = "  ".join(f"{r[name][0] * 1e3:9.2f} ms {r[name][1]}" for r in results)
            print(f"  {name:16s} {counts}  {cells}  "
                  f"{'same' if len(digests) == 1 else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
