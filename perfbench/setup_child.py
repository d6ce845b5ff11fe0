"""One set-up sample, in a fresh interpreter.

Usage: python perfbench/setup_child.py WORKLOAD SEED WORKDIR
Times `import scramblegon` and building the workload's inputs (the
benchmark's own imports in between are left out) and prints {"raw": s}.
The parent calibrates it with the set-up kernel of calib.py.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import scramblegon  # noqa: F401
    t1 = time.perf_counter()
    from perfbench import workloads
    t2 = time.perf_counter()
    workloads.build(workload, seed, workdir)
    t3 = time.perf_counter()
    print(json.dumps({"raw": (t1 - t0) + (t3 - t2)}))


if __name__ == "__main__":
    main()
