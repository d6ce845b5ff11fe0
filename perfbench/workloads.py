"""The four workloads: their inputs, their fixed list of operations, and the
independent check of every operation's output.

build(name, seed, workdir) imports scramblegon, builds the inputs from the
seed and returns the operations.  Library calls go through the module
objects (dv.gonality, not scramblegon.gonality), so the traced run can wrap
them by patching module attributes.
"""

import contextlib
import io
import math
import os
import random

from . import checks as ck
from .checks import require

WORKLOADS = ("gonality", "scramble", "certify", "cli")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Op:
    """One measured operation: fn() runs it, check(result) raises
    CheckFailed on a wrong output, calls counts the library calls it makes."""

    __slots__ = ("name", "fn", "check", "calls")

    def __init__(self, name, fn, check, calls=1):
        self.name, self.fn, self.check, self.calls = name, fn, check, calls


def _relabelled(mg, base, rng):
    perm = list(range(base.n))
    rng.shuffle(perm)
    return mg.relabel(base, perm)


def _connected_gnp(mg, n, p, rng):
    while True:
        g = mg.random_graph(n, p, rng.randrange(1 << 30))
        if ck.is_connected(g.mult):
            return g


def _dense_base(mg, n, fixed_seed):
    """A fixed G(n,.8) with minimum degree >= floor(n/2) + 1."""
    rng = random.Random(fixed_seed)
    while True:
        g = mg.random_graph(n, 0.8, rng.randrange(1 << 30))
        if int(g.mult.sum(axis=1).min()) >= n // 2 + 1:
            return g


def _edge_eggs(mult):
    n = mult.shape[0]
    return [{u, v} for u in range(n) for v in range(u + 1, n) if mult[u, v]]


class _Memo:
    """Reference values keyed by name, so each is computed once per run."""

    def __init__(self):
        self.values = {}

    def get(self, key, compute):
        if key not in self.values:
            self.values[key] = compute()
        return self.values[key]


MEMO = _Memo()


def _gon(key, mult):
    return MEMO.get(("gon",) + key, lambda: ck.gonality(mult))


def _alpha(key, mult):
    return MEMO.get(("alpha",) + key, lambda: ck.alpha(mult))


# ---------------------------------------------------------------------------
# gonality: exact divisor search on a ladder of graphs


def _gonality_ops(seed):
    from scramblegon import divisors as dv
    from scramblegon import multigraph as mg

    rng = random.Random(seed)
    c5 = mg.cycle(5)
    P = mg.cartesian_product
    ladder = [
        ("K4xK3", P(mg.complete(4), mg.complete(3)), (3 - 1) * 4),  # rook: (m-1)n, m <= n
        ("C3xC5", P(mg.cycle(3), c5), 2 * 3),                      # 2 min(m, n)
        ("C3xC4", P(mg.cycle(3), mg.cycle(4)), 2 * 3),
        ("cone(C5,5)", mg.cone(c5, 5), None),                      # 2m - alpha
        ("K3xK3", P(mg.complete(3), mg.complete(3)), (3 - 1) * 3),
        ("G(10,.5)", _connected_gnp(mg, 10, 0.5, rng), None),     # exhaustive
    ]
    cone_base = {"cone(C5,5)": c5}

    def check_for(name, g, known):
        def check(result):
            value, witness = result
            ck.check_positive_rank_witness(g.mult, value, witness.chips)
            if name in cone_base:
                base = cone_base[name]
                require(value == 2 * base.n - _alpha((name,), base.mult), "cone gonality != 2m - alpha")
            elif known is not None:
                require(value == known, "%s gonality %d != known %d" % (name, value, known))
            else:
                ck.check_gonality_lower(g.mult, value)
        return check

    return [Op("gonality " + name, (lambda g=g: dv.gonality(g)), check_for(name, g, known))
            for name, g, known in ladder]


# ---------------------------------------------------------------------------
# scramble: egg-cut max-flows, hitting-set search and the brute-force oracle


def _scramble_ops(seed):
    from scramblegon import certify as ct
    from scramblegon import multigraph as mg
    from scramblegon import scrambles as sc

    rng = random.Random(seed)
    ops = []

    def order_check(g, eggs, edge_scramble=False, gon_upper=None):
        def check(o):
            # the edge scramble's hitting sets are vertex covers: h = n - alpha
            expected = g.n - _alpha(("edge", g.n), g.mult) if edge_scramble else None
            ck.check_scramble_order(g.mult, eggs, o.order, o.hitting, o.egg_cut,
                                    o.witness_hitting_set, o.witness_cut, expected)
            if gon_upper is not None:
                require(o.order <= gon_upper, "scramble order %d > gonality %d" % (o.order, gon_upper))
        return check

    for n in (10, 11, 12):
        g = _relabelled(mg, mg.random_graph(n, 0.8, 1000 + n), rng)
        require(ck.is_connected(g.mult), "edge-scramble host is disconnected")
        ops.append(Op("scramble_order edge_scramble G(%d,.8)" % n,
                      (lambda g=g: sc.scramble_order(sc.edge_scramble(g))),
                      order_check(g, _edge_eggs(g.mult), edge_scramble=True)))

    c4, c5 = mg.cycle(4), mg.cycle(5)
    host = mg.cartesian_product(c4, c5)
    # eggs: each copy of C4 (vertices u * 5 + w, u in C4, w fixed) minus one vertex
    copies = [frozenset(u * 5 + w for u in range(4)) for w in range(5)]
    eggs = [copy - {v} for copy in copies for v in copy]
    ops.append(Op("scramble_order product_scramble C4xC5 k=2",
                  lambda: sc.scramble_order(sc.product_scramble(c4, c5, 2)),
                  order_check(host, eggs, gon_upper=2 * 4)))

    def check_alpha(result):
        alpha, m, cone = result
        require(alpha == _alpha(("C5",), c5.mult), "reduce_alpha(C5) alpha %d is wrong" % alpha)
        require(m == 5 and (cone.mult == ck.cone_matrix(c5.mult, 5)).all(), "wrong cone over C5")

    ops.append(Op("reduce_alpha C5 scramble-sandwich",
                  lambda: ct.reduce_alpha(c5, "scramble-sandwich"), check_alpha))

    # not relabelled: the oracle's search order follows the labels, and
    # relabellings of this one graph took from 0.11 s to 0.29 s
    g10 = mg.random_graph(10, 0.5, 0)
    require(ck.is_connected(g10.mult), "brute-force graph is disconnected")

    def check_brute(r):
        require(r.exact, "brute-force result is not exact")
        eggs = [set(e) for e in r.witness.eggs]
        h, e = ck.hitting_number(eggs), ck.min_egg_cut(g10.mult, eggs)
        require(min(h, e) >= r.value, "witness scramble order %s < claimed sn %d" % (min(h, e), r.value))
        require(r.value <= _gon(("G10brute",), g10.mult), "sn %d exceeds the gonality" % r.value)
        require(r.value >= min(ck.edge_connectivity(g10.mult), 10),
                "sn %d below the vertex-scramble order" % r.value)

    ops.append(Op("brute_force_sn G(10,.5)", lambda: sc.brute_force_sn(g10), check_brute))
    return ops


# ---------------------------------------------------------------------------
# certify: many small certifier, bound and cone calls


def _petersen(mg):
    outer = [(i, (i + 1) % 5, 1) for i in range(5)]
    spokes = [(i, i + 5, 1) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    return mg.from_edge_list(10, outer + spokes + inner)


def certify_factors(mg):
    return [("P3", mg.path(3)), ("C2", mg.cycle(2)), ("K3", mg.complete(3)),
            ("C4", mg.cycle(4)), ("C5", mg.cycle(5)), ("K4", mg.complete(4)),
            ("K2,3", mg.complete_bipartite(2, 3)), ("S4", mg.star(4)),
            ("Q3", mg.hypercube(3)), ("K5", mg.complete(5))]


def _certify_ops(seed):
    from scramblegon import certify as ct
    from scramblegon import multigraph as mg
    from scramblegon import scrambles as sc

    rng = random.Random(seed)
    factors = certify_factors(mg)

    def pair_check(gname, g, hname, h):
        def check(cert):
            key = tuple(sorted((gname, hname)))
            lam_g = MEMO.get(("lam", gname), lambda: ck.edge_connectivity(g.mult))
            lam_h = MEMO.get(("lam", hname), lambda: ck.edge_connectivity(h.mult))
            lower = max(min(h.n, g.n * lam_h), min(g.n, h.n * lam_g))
            upper = min(g.n * _gon((hname,), h.mult), h.n * _gon((gname,), g.mult))
            exact = None
            if g.n * h.n <= ck.GON_ENUM_MAX_N:
                exact = _gon(("prod",) + key, ck.product_matrix(g.mult, h.mult))
            if cert.certified:
                require(lower <= cert.value <= upper, "certified %s x %s = %d outside [%d, %d]"
                        % (gname, hname, cert.value, lower, upper))
                if exact is not None:
                    require(cert.value == exact, "certified %s x %s = %d, gonality is %d"
                            % (gname, hname, cert.value, exact))
            else:
                b = cert.bounds
                require(b.lower <= b.upper, "open bounds cross")
                require(b.lower <= upper and b.upper >= lower,
                        "open bounds [%d, %d] miss [%d, %d]" % (b.lower, b.upper, lower, upper))
                if exact is not None:
                    require(b.lower <= exact <= b.upper, "open bounds miss the gonality")
        return check

    ops = []
    for gname, g in factors:
        checks = [pair_check(gname, g, hname, h) for hname, h in factors]

        def run(g=g):
            return [ct.certify_product(g, h) for _, h in factors]

        def check_row(certs, checks=checks):
            for cert, check in zip(certs, checks):
                check(cert)

        ops.append(Op("certify_product %s x *" % gname, run, check_row, calls=len(factors)))

    bridged = mg.from_edge_list(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1),
                                    (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    bound_graphs = [("Q3", mg.hypercube(3)), ("K3,3", mg.complete_bipartite(3, 3)),
                    ("prism", mg.cartesian_product(mg.cycle(3), mg.path(2))),
                    ("bridged-triangles", bridged), ("C6", mg.cycle(6)),
                    ("Petersen", _petersen(mg))]
    for name, g in bound_graphs:
        def check_bounds(r, name=name, g=g):
            # min(lambda, n) is the vertex scramble's order, so sn >= it
            vertex_order = min(MEMO.get(("lam", name), lambda: ck.edge_connectivity(g.mult)), g.n)
            require(r.lower <= r.upper, "sn bounds cross")
            require(1 <= r.lower <= _gon((name,), g.mult), "sn lower bound above the gonality")
            require(r.upper >= vertex_order, "sn upper bound below the vertex-scramble order")
        ops.append(Op("sn_bounds " + name, (lambda g=g: sc.sn_bounds(g)), check_bounds))

    c5 = mg.cycle(5)

    def check_alpha(result):
        alpha, m, cone = result
        require(alpha == _alpha(("C5",), c5.mult), "reduce_alpha(C5) alpha %d is wrong" % alpha)
        require(m == 5 and (cone.mult == ck.cone_matrix(c5.mult, 5)).all(), "wrong cone over C5")

    ops.append(Op("reduce_alpha C5 gonality", lambda: ct.reduce_alpha(c5), check_alpha))

    for n in (9, 10, 11):
        g = _relabelled(mg, _dense_base(mg, n, 2000 + n), rng)

        def check_dense(cert, g=g, n=n):
            require(cert is not None, "dense graph refused by check_all_equal")
            require(cert.value == n - ck.alpha(g.mult), "check_all_equal value != n - alpha")
        ops.append(Op("check_all_equal dense G(%d,.8)" % n, (lambda g=g: ct.check_all_equal(g)),
                      check_dense))
    return ops


# ---------------------------------------------------------------------------
# cli: one `scramblegon.cli.main(["--machine", ...])` call per operation


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli(argv):
    """One `scramblegon --machine` invocation through cli.main, in this
    process, with its standard output captured and returned."""
    from scramblegon import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--machine"] + argv)
    if code != 0:
        raise RuntimeError("cli %s exited %d: %s" % (argv[0], code, err.getvalue().strip()[-300:]))
    return out.getvalue()


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _parse_mel(text):
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, m = int(lines[0][0]), int(lines[0][1])
    require(len(lines) == m + 1, "MEL edge count disagrees with its header")
    mult = [[0] * n for _ in range(n)]
    for fields in lines[1:]:
        u, v = int(fields[0]), int(fields[1])
        k = int(fields[2]) if len(fields) > 2 else 1
        require(0 <= u < v < n and k >= 1, "bad MEL edge line %r" % fields)
        mult[u][v] += k
        mult[v][u] += k
    return mult


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_ops(seed, workdir):
    import numpy as np
    from scramblegon import mel
    from scramblegon import multigraph as mg

    rng = random.Random(seed)
    # one fixed graph: gonality and hitting-set search orders follow the
    # labels, so relabelling it moved sn-bounds and scramble-order by 20%
    g = mg.random_graph(10, 0.5, 1)
    q3, c4, c5 = mg.hypercube(3), mg.cycle(4), mg.cycle(5)
    chips = [rng.randint(-2, 3) for _ in range(g.n)]
    files = {
        "g": _write(workdir, "g.mel", mel.write_mel(g)),
        "q3": _write(workdir, "q3.mel", mel.write_mel(q3)),
        "c4": _write(workdir, "c4.mel", mel.write_mel(c4)),
        "c5": _write(workdir, "c5.mel", mel.write_mel(c5)),
        "eggs": _write(workdir, "eggs.scr", "".join("%d %d\n" % tuple(sorted(e))
                                                    for e in _edge_eggs(g.mult))),
        "div": _write(workdir, "div.txt", "%d\n%s\n" % (g.n, " ".join(map(str, chips)))),
    }
    gen_seed = rng.randrange(1 << 20)
    gm = g.mult

    def check_gen(text):
        mult = np.array(_parse_mel(text))
        require(mult.shape == (10, 10), "gen produced %d vertices" % mult.shape[0])

    def check_info(text):
        kv = _kv(text)
        lam = ck.edge_connectivity(gm)
        expect = {"n": 10, "edges": int(gm.sum()) // 2, "simple": True,
                  "min_degree": int(gm.sum(axis=1).min()), "edge_connectivity": lam,
                  "vertex_connectivity": ck.vertex_connectivity(gm), "components": 1,
                  "independence_number": _alpha(("cli-g",), gm),
                  "bridges": ";".join("%d-%d" % b for b in ck.bridges(gm)) or "none"}
        for key, value in expect.items():
            require(kv.get(key) == str(value), "info %s=%s, expected %s" % (key, kv.get(key), value))

    def check_gonality(text):
        kv = _kv(text)
        value = int(kv["gonality"])
        ck.check_positive_rank_witness(q3.mult, value, [int(c) for c in kv["witness"].split()])
        ck.check_gonality_lower(q3.mult, value)

    def check_certify(text):
        kv = _kv(text)
        require(kv.get("certified") == str(2 * 4), "certify C4 C5 gave %s" % kv.get("certified"))

    def check_bounds(text):
        kv = _kv(text)
        lower, upper = int(kv["lower"]), int(kv["upper"])
        require(1 <= lower <= upper, "sn bounds cross")
        require(lower <= _gon(("cli-g",), gm), "sn lower bound above the gonality")

    def check_order(text):
        kv = _kv(text)
        cut = kv.get("cut_witness")
        egg_cut = math.inf if kv["egg_cut"] == "inf" else int(kv["egg_cut"])
        ck.check_scramble_order(
            gm, _edge_eggs(gm), int(kv["order"]), int(kv["hitting"]), egg_cut,
            [int(v) for v in kv["hitting_witness"].split(",") if v],
            None if cut is None else ([int(v) for v in cut.split(",")], egg_cut),
            10 - _alpha(("cli-g",), gm))

    def check_reduce(text):
        kv = _kv(text)
        reduced = [int(c) for c in kv["reduced"].split()]
        script = [[int(v) for v in kv["firing_%d" % i].split(",")] for i in range(int(kv["firings"]))]
        require(list(ck.fire_sets(gm, chips, script)) == reduced, "firing script does not reach the output")
        require(ck.is_q_reduced(gm, reduced, 0), "output is not 0-reduced")

    invocations = [
        ("gen", ["gen", "random-graph", "10", "50", "--seed", str(gen_seed)], check_gen),
        ("info", ["info", files["g"]], check_info),
        ("gonality", ["gonality", files["q3"]], check_gonality),
        ("certify", ["certify", files["c4"], files["c5"]], check_certify),
        ("sn-bounds", ["sn-bounds", files["g"]], check_bounds),
        ("scramble-order", ["scramble-order", files["g"], files["eggs"]], check_order),
        ("reduce", ["reduce", files["g"], files["div"], "--q", "0"], check_reduce),
    ]
    return [Op("cli " + name, (lambda argv=argv: _run_cli(argv)), check)
            for name, argv, check in invocations]


def build(name, seed, workdir=None):
    if name == "gonality":
        return _gonality_ops(seed)
    if name == "scramble":
        return _scramble_ops(seed)
    if name == "certify":
        return _certify_ops(seed)
    if name == "cli":
        return _cli_ops(seed, workdir)
    raise ValueError("unknown workload %r" % name)
