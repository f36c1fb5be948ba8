"""Time one fresh-process set-up: import weylnf and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds on standard output.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports weylnf; timed on purpose)

workloads.WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
