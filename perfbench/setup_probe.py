"""Time one cold set-up: import slewguard and build a workload's scenarios.

    python3 perfbench/setup_probe.py <workload> <seed>

prints the seconds taken and then the median of three gauge readings
(see ``gauge.py``) taken in the same interpreter right after.  The inputs
are generated before the clock starts, since making them is the
benchmark's work, not the program's.
"""

import statistics
import sys
import time
from pathlib import Path

import cases

items = cases.inputs(sys.argv[1], int(sys.argv[2]))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
from slewguard import cli, engine, scenario  # noqa: E402,F401

cases.build(scenario, items)
setup_s = time.perf_counter() - t0

import gauge  # noqa: E402  (numpy is loaded by now)

g = gauge.Gauge()
for _ in range(3):
    g.tick()
print(setup_s, statistics.median(g.readings))
