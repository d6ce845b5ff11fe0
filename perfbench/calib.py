"""Host-speed calibration.

Operations: a fixed kernel (an interpreter loop and dict churn) is timed,
REPS times, just before and just after every measured operation, and the
operation's raw time is scaled by NOMINAL_S divided by the median of those
timings, so a host that runs everything 30% slower for a while reports about
the same calibrated seconds.

Set-up: a set-up sample is interpreter start-up and imports in a fresh
process, which the in-process kernel does not follow, so it is scaled
instead by IMPORT_NOMINAL_S divided by the mean time of a fresh interpreter
importing scramblegon's dependencies, timed just before and just after it.

Why these kernels and this scaling, with the measurements behind them, is
in README.md.
"""

import statistics
import subprocess
import sys
import time

# Kernel time on the reference machine (see README.md).  Changing it rescales
# every calibrated figure, so it stays fixed across commits.
NOMINAL_S = 0.0011
# Kernel repetitions timed on each side of an operation.
REPS = 5
# What the set-up kernel imports, and its time on the reference machine.
IMPORT_KERNEL = "import numpy, networkx"
IMPORT_NOMINAL_S = 0.30


def kernel():
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    table = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
        if i % 5 == 0:
            table.pop((i * 3) % 97, None)
    return acc + len(table)


def kernel_reps(reps=REPS):
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def calibrate(raw_s, kernel_times):
    """raw_s in calibrated seconds, given the kernel timings around it."""
    return raw_s * NOMINAL_S / statistics.median(kernel_times)


def import_kernel_s(env):
    """Seconds for a fresh interpreter to import IMPORT_KERNEL."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_KERNEL], env=env, check=True, timeout=120)
    return time.perf_counter() - t0
