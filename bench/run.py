#!/usr/bin/env python3
"""Benchmark of synq: three serial workloads through the public API, with
every output checked.

Run from the repository root:

    python3 bench/run.py --workload decode-waterfall --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --short            # every workload, small, all checks

The run sets up its workload at least three times and for at least a
second (reporting the median set-up time), then repeats whole rounds of the
workload's operations, at least two, until --seconds have been spent in
them.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and prints the
per-layer split, the per-operation rates of the untraced rounds and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# One BLAS thread: the workloads are serial and the figures steadier.
BLAS_THREADS = "1"


def main() -> int:
    if not (SRC / "synq" / "__init__.py").is_file():
        print(json.dumps({"error": f"synq sources not found under {SRC}"}),
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
