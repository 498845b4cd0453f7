"""Run one benchmark workload; see bench/README.md.

    python3 bench/run.py --workload sk-enum --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
"""

import os
import sys
from pathlib import Path

# Pin the BLAS and OpenMP pools to one thread before numpy loads: workers=2
# plus BLAS threads would oversubscribe the two cores.  Set-up probes inherit
# this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

if __name__ == "__main__":
    if not (SRC_DIR / "wienergamma" / "__init__.py").is_file():
        print(f"error: no wienergamma package under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    from harness import main

    raise SystemExit(main())
