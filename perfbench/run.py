"""Planner benchmark launcher.

    python3 perfbench/run.py --workload zones2d --seed 1 --seconds 15 --trace 0

Reads the clock, then starts ``worker.py`` (same arguments plus ``--t0``) in a
fresh single-threaded process and waits for it, so the worker's set-up time
runs from its own process start.  BLAS and OpenMP pools are pinned to one
thread.  The exit code and output are the worker's.  See README.md.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

TIMEOUT_S = 175
SINGLE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def main() -> int:
    t0 = time.monotonic()
    # On SIGTERM, exit through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worker = Path(__file__).resolve().parent / "worker.py"
    cmd = [sys.executable, str(worker), *sys.argv[1:], "--t0", repr(t0)]
    try:
        return subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD}, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: worker ran longer than {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
