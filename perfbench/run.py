"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload sweep-nodal --seed 1 --seconds 20 --trace 0

BLAS is pinned to one thread before numpy loads, and the package is
imported from this checkout's ``src``; without it the script exits with
status 1 and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def _bootstrap() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    package = ROOT / "src" / "neuralfield" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a repository checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


if __name__ == "__main__":
    _bootstrap()
    from perfbench.bench import main

    sys.exit(main())
