"""Time the benchmark's set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

The set-up is importing seqent from ./src and building every input of the
workload (systems, partitions, families and test families).
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tasks  # noqa: E402  (imports seqent)

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    tasks.build(workload, seed, HERE / "_out")  # building writes nothing
    print(repr(time.perf_counter() - START))
