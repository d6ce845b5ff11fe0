"""Self-test of the benchmark's output checks.

Usage: python3 perfbench/selftest.py

Runs every operation of every workload once (seed 1), requires its check to
pass on the genuine output, then feeds the same check corrupted copies of
that output and requires each to fail.  Exits 1 and names the check if any
corruption goes unnoticed.  Takes about half a minute.
"""

import dataclasses
import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks as ck  # noqa: E402
from perfbench import workloads  # noqa: E402


def _gonality(result):
    from scramblegon.divisors import Divisor

    value, w = result
    chips = w.chips.tolist()
    more = list(chips)
    more[0] += 1
    fewer = list(chips)
    fewer[chips.index(max(chips))] -= 1
    negative = list(chips)
    negative[0] -= value + 1
    negative[1] += value + 1
    yield "value + 1 with a padded witness", (value + 1, Divisor(w.graph, more))
    yield "value - 1 with a thinned witness", (value - 1, Divisor(w.graph, fewer))
    yield "witness degree off by one", (value, Divisor(w.graph, more))
    yield "non-effective witness", (value, Divisor(w.graph, negative))


def _order(o):
    first = min(o.witness_hitting_set)
    yield "hitting witness loses a vertex", dataclasses.replace(
        o, witness_hitting_set=o.witness_hitting_set - {first}, hitting=o.hitting - 1,
        order=min(o.hitting - 1, o.egg_cut))
    spare = min(set(range(64)) - o.witness_hitting_set)
    yield "hitting number + 1", dataclasses.replace(
        o, witness_hitting_set=o.witness_hitting_set | {spare}, hitting=o.hitting + 1,
        order=min(o.hitting + 1, o.egg_cut))
    if o.witness_cut is not None:
        side, size = o.witness_cut
        yield "cut value + 1", dataclasses.replace(o, egg_cut=size + 1, witness_cut=(side, size + 1),
                                                   order=min(o.hitting, size + 1))
        yield "cut side holds no egg", dataclasses.replace(
            o, witness_cut=(frozenset([min(side)]), size))
    yield "order != min(h, e)", dataclasses.replace(o, order=o.order + 1)


def _reduce_alpha(result):
    from scramblegon.multigraph import Multigraph

    alpha, m, cone = result
    yield "alpha + 1", (alpha + 1, m, cone)
    mult = cone.mult.copy()
    mult[0, m] = mult[m, 0] = 0
    yield "cone loses an apex edge", (alpha, m, Multigraph(mult))


def _brute(r):
    yield "sn + 1", dataclasses.replace(r, value=r.value + 1)
    yield "not exact", dataclasses.replace(r, exact=False)


def _bounds(r):
    yield "lower bound above the gonality", dataclasses.replace(r, lower=r.upper + 50, upper=r.upper + 50)
    yield "bounds collapsed to 0", dataclasses.replace(r, lower=0, upper=0)


def _certificates(row, certs):
    """Corrupt one certificate of a certify_product row at a time.  Off-by-one
    values are only detectable where the product is small enough for the
    exhaustive gonality check."""
    from scramblegon import multigraph as mg

    sizes = {name: g.n for name, g in workloads.certify_factors(mg)}
    g_n, h_ns = sizes[row], list(sizes.values())
    for i, cert in enumerate(certs):
        fake = list(certs)
        if cert.certified:
            fake[i] = dataclasses.replace(cert, value=cert.value + 1000)
            yield "certified value + 1000 (pair %d)" % i, fake
            if g_n * h_ns[i] <= ck.GON_ENUM_MAX_N:
                small = list(certs)
                small[i] = dataclasses.replace(cert, value=cert.value - 1)
                yield "certified value - 1 (pair %d)" % i, small
        else:
            b = cert.bounds
            fake[i] = dataclasses.replace(cert, bounds=dataclasses.replace(
                b, lower=b.upper + 1000, upper=b.upper + 1000))
            yield "open bounds above the gonality (pair %d)" % i, fake


def _dense(cert):
    yield "value + 1", dataclasses.replace(cert, value=cert.value + 1)
    yield "refused", None


def _sub(text, key, fn):
    return re.sub(r"(?m)^%s=(.*)$" % re.escape(key), lambda m: "%s=%s" % (key, fn(m.group(1))), text)


def _cli(name, text):
    bump = lambda v: str(int(v) + 1)  # noqa: E731
    if name == "cli gen":
        yield "an edge line dropped", "\n".join(text.splitlines()[:-1]) + "\n"
    elif name == "cli info":
        for key in ("independence_number", "edge_connectivity", "vertex_connectivity", "min_degree"):
            yield key + " + 1", _sub(text, key, bump)
        yield "bridges invented", _sub(text, "bridges", lambda v: "0-1")
    elif name == "cli gonality":
        yield "value + 1", _sub(_sub(text, "gonality", bump), "witness",
                                lambda v: " ".join([bump(v.split()[0])] + v.split()[1:]))
        yield "witness degree off by one", _sub(text, "witness",
                                                lambda v: " ".join([bump(v.split()[0])] + v.split()[1:]))
    elif name == "cli certify":
        yield "certified + 1", _sub(text, "certified", bump)
    elif name == "cli sn-bounds":
        yield "lower bound above the gonality", _sub(_sub(text, "lower", lambda v: "50"), "upper",
                                                     lambda v: "50")
    elif name == "cli scramble-order":
        yield "hitting witness loses a vertex", _sub(text, "hitting_witness",
                                                     lambda v: ",".join(v.split(",")[1:]))
        yield "cut value + 1", _sub(_sub(text, "egg_cut", bump), "order", lambda v: v)
    elif name == "cli reduce":
        yield "reduced chip moved", _sub(text, "reduced", lambda v: " ".join(
            [bump(v.split()[0])] + [str(int(v.split()[1]) - 1)] + v.split()[2:]))
        yield "last firing dropped", _sub(text, "firings", lambda v: str(max(int(v) - 1, 0)))


def corruptions(op, result):
    from scramblegon.certify import Certificate
    from scramblegon.scrambles import BoundReport, BruteForceResult, ScrambleOrder

    if isinstance(result, str):
        return _cli(op.name, result)
    if isinstance(result, ScrambleOrder):
        return _order(result)
    if isinstance(result, BruteForceResult):
        return _brute(result)
    if isinstance(result, BoundReport):
        return _bounds(result)
    if isinstance(result, Certificate):
        return _dense(result)
    if isinstance(result, list):
        return _certificates(op.name.split()[1], result)
    if len(result) == 3:
        return _reduce_alpha(result)
    return _gonality(result)


def direct_checks():
    """Checks called on hand-made inputs, outside any workload."""
    c4 = ck.product_matrix([[0, 1], [1, 0]], [[0, 1], [1, 0]])  # the cycle 0-1-3-2
    wheel = ck.cone_matrix(c4, 1)
    yield "rank of a single chip on C4", lambda: ck.check_positive_rank_witness(c4, 1, [1, 0, 0, 0])
    yield "C4 gonality claimed 3", lambda: ck.check_gonality_lower(c4, 3)
    # {0, 1} cuts 4 wheel edges between the eggs {0} and {3}; {0} alone cuts 3
    yield "non-minimal egg-cut", lambda: ck.check_scramble_order(
        wheel, [{0}, {3}], 2, 2, 4, {0, 3}, ({0, 1}, 4))


def main():
    missed, caught = [], 0
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, "perfbench"))
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, 1, workdir):
                result = op.fn()
                op.check(result)
                for label, bad in corruptions(op, result):
                    try:
                        op.check(bad)
                    except ck.CheckFailed:
                        caught += 1
                    else:
                        missed.append("%s: %s" % (op.name, label))
                print("ok  %-45s" % op.name, flush=True)
        for label, call in direct_checks():
            try:
                call()
            except ck.CheckFailed:
                caught += 1
            else:
                missed.append(label)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in missed:
        print("NOT CAUGHT: " + line)
    print("%d corrupted results caught, %d missed" % (caught, len(missed)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
