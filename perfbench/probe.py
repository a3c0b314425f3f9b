"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

    python3 perfbench/probe.py <workload> <seed>

Prints ``CLOCK_MONOTONIC`` when the set-up is done; ``run.py`` subtracts
the time at which it spawned this interpreter.
"""

import sys
import time

import workloads as wl

if __name__ == "__main__":
    wl.prepare(sys.argv[1], int(sys.argv[2]))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
