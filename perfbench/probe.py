"""Set-up probe: a fresh interpreter imports linearwebs and sets up a workload.

    python3 perfbench/probe.py <workload> <seed>

Times ``import linearwebs`` (with its CLI) and the workload's set-up with
``perf_counter``, leaving out interpreter start-up and the benchmark's own
imports, and prints the seconds as the last line.  run.py normalizes each
probe to the reference speed (speed.py) and reports the median over
several probes as ``setup_s``.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

start = time.perf_counter()
import linearwebs  # noqa: E402,F401
import linearwebs.cli  # noqa: E402,F401
imported = time.perf_counter() - start

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
start = time.perf_counter()
state = workload.setup(int(sys.argv[2]))
seconds = imported + time.perf_counter() - start
workload.teardown(state)
print(repr(seconds))
