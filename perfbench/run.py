"""Run one slowmo-sim benchmark workload; the last line of stdout is the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The simulator is imported from ``src/``
as it is; nothing is installed. OpenBLAS (and any OpenMP/MKL BLAS) is
pinned to one thread before numpy is first imported: with more threads the
d=2000 trajectories change bit for bit and run times spread more.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "slowmo_sim" / "__init__.py").is_file():
        print(f"error: no slowmo-sim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench_measure  # imports numpy, so only after the pinning above

    return bench_measure.main()


if __name__ == "__main__":
    sys.exit(main())
