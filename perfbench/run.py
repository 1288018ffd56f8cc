"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dma-sweep --seed 7 --seconds 20 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any round failed its checks or the library cannot be imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: numpy/BLAS pool sizes, forced to one thread before numpy is imported:
#: the benchmark measures the single-threaded engine, and pool threads
#: would compete with it for the machine's cores.
THREAD_LIMITS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _main() -> int:
    for variable in THREAD_LIMITS:
        os.environ[variable] = "1"
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    start = perf_counter()
    try:
        import repro

        from perfbench.harness import main
    except ImportError as exc:
        print(f"error: cannot import from {SOURCE}: {exc}", file=sys.stderr)
        return 2
    if SOURCE not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from outside {SOURCE}", file=sys.stderr)
        return 2
    return main(sys.argv[1:], import_s=perf_counter() - start)


if __name__ == "__main__":
    sys.exit(_main())
