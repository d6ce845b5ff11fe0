"""scramblegon benchmark.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (gonality, scramble, certify or cli) from the root of a
checkout, importing scramblegon from its src/.  Operations run one after
another in whole rounds of the workload's fixed list until S seconds have
passed; every output is checked independently.  The last line of standard
output is a JSON object with correct, attempted, failed and metrics:

  --trace 0  setup_s, wall_s (calibrated seconds) and peak_rss_mb
  --trace 1  the per-layer metrics of README.md, from rounds run with the
             library wrapped by the tracer, alternating with plain rounds
             so that trace.overhead_s can be reported

Raw-second figures go to standard error and, with the spans, to
perfbench/results/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
IMPORT_MODULES = ("scramblegon", "numpy", "networkx", "scipy")


def setup_samples(workload, seed, workdir):
    """Raw and calibrated set-up times of SETUP_SAMPLES fresh interpreters,
    each between two runs of the set-up kernel; one unmeasured sample first
    writes the bytecode caches."""
    from perfbench import calib
    from perfbench.workloads import child_env

    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "setup_child.py"),
           workload, str(seed), workdir]
    env = child_env()
    kernel = [calib.import_kernel_s(env)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up sample failed: " + proc.stderr.strip()[-500:])
        kernel.append(calib.import_kernel_s(env))
        if i:
            raw = json.loads(proc.stdout.strip().splitlines()[-1])["raw"]
            samples.append((raw, raw * calib.IMPORT_NOMINAL_S / ((kernel[-2] + kernel[-1]) / 2)))
    return samples


def import_times():
    """Cumulative import time per top-level package of `import scramblegon`
    in a fresh interpreter, from -X importtime; median of IMPORT_SAMPLES."""
    from perfbench.workloads import child_env

    per = {m: [] for m in IMPORT_MODULES}
    for i in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import scramblegon"],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("import scramblegon failed: " + proc.stderr.strip()[-500:])
        found = dict.fromkeys(IMPORT_MODULES, 0)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found:
                found[fields[2].strip()] = max(found[fields[2].strip()], int(fields[1]))
        if i:  # the first interpreter writes the bytecode caches
            for m in IMPORT_MODULES:
                per[m].append(found[m] / 1e6)
    return {"import.%s_s" % m: (statistics.median(v), "s") for m, v in per.items()}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []

    def run(self, op, fn):
        """Run one operation through fn and check its output; returns the
        value fn returned besides the result, or None if the op failed."""
        from perfbench.checks import CheckFailed

        self.attempted += op.calls
        try:
            result, extra = fn(op.fn)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += op.calls
            self.errors.append("%s failed: %s" % (op.name, traceback.format_exc(limit=3)))
            return None
        try:
            op.check(result)
        except CheckFailed as exc:
            self.correct = False
            self.errors.append("%s: wrong output: %s" % (op.name, exc))
        return extra


def _calibrated(fn):
    """Run fn between two sets of kernel timings; returns
    (result, (raw seconds, calibrated seconds))."""
    from perfbench import calib

    before = calib.kernel_reps()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, (raw, calib.calibrate(raw, before + calib.kernel_reps()))


def untraced(workload, seed, seconds, workdir, log):
    from perfbench import workloads

    setup = setup_samples(workload, seed, workdir)
    ops = workloads.build(workload, seed, workdir)
    tally = Tally()

    times = {op.name: [] for op in ops}
    start, rounds = time.perf_counter(), 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            measured = tally.run(op, _calibrated)
            if measured is not None:
                times[op.name].append(measured)
        rounds += 1

    def total(i):
        return sum(statistics.median(t[i] for t in ts) for ts in times.values() if ts)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    log.update(rounds=rounds, setup_raw_s=statistics.median(s[0] for s in setup),
               wall_raw_s=total(0), setup_samples_s=setup, op_rounds_s=times)
    metrics = {"setup_s": (statistics.median(s[1] for s in setup), "s"),
               "wall_s": (total(1), "s"),
               "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    return tally, metrics


def traced(workload, seed, seconds, workdir, log, spans_path):
    from perfbench import workloads
    from perfbench.tracer import Tracer

    metrics = import_times()
    ops = workloads.build(workload, seed, workdir)
    tally, tracer = Tally(), Tracer()
    plain_s = traced_s = 0.0  # calibrated

    start, pairs = time.perf_counter(), 0
    while pairs == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            plain_s += (tally.run(op, _calibrated) or (0.0, 0.0))[1]
        tracer.install()
        try:
            for op in ops:
                traced_s += (tally.run(op, _calibrated) or (0.0, 0.0))[1]
        finally:
            tracer.uninstall()
        pairs += 1
    tracer.dump(spans_path, workload=workload, seed=seed, traced_rounds=pairs)
    metrics.update(tracer.layer_metrics(pairs))
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / pairs, "s")
    log.update(rounds=pairs, plain_round_s=plain_s / pairs, traced_round_s=traced_s / pairs)
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="scramblegon benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scramblegon", "__init__.py")):
        print("perfbench: no scramblegon package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[0:0] = [SRC, ROOT]
    import scramblegon
    from perfbench.workloads import WORKLOADS

    if not os.path.abspath(scramblegon.__file__).startswith(SRC + os.sep):
        print("perfbench: scramblegon was imported from outside %s" % SRC, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix="work-%s-" % tag, dir=RESULTS)
    log = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        if args.trace:
            tally, metrics = traced(args.workload, args.seed, args.seconds, workdir, log,
                                    os.path.join(RESULTS, "spans-%s.json" % tag))
        else:
            tally, metrics = untraced(args.workload, args.seed, args.seconds, workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    log.update(out, errors=tally.errors)
    with open(os.path.join(RESULTS, "result-%s.json" % tag), "w") as fh:
        json.dump(log, fh, indent=1)
    for line in tally.errors:
        print(line, file=sys.stderr)
    summary = {k: round(v, 4) for k, v in log.items() if k.endswith("_s") and isinstance(v, float)}
    print("perfbench %s: rounds=%s %s" % (tag, log.get("rounds"), summary), file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
