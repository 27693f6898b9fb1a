"""One fresh-process set-up of a workload, timed from outside by run.py.

Imports decodex, loads the BG tables with their hash check, and builds the
expansions and encoder plans for the workload's code-block shapes.

    python3 perfbench/setup_probe.py <workload>
"""

import sys

import program

program.load()

from workloads import WORKLOADS, warm_caches  # noqa: E402

warm_caches(WORKLOADS[sys.argv[1]].allocations())
