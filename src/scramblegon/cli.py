"""Command-line interface.

Graphs travel as MEL v1 text; `-` reads from stdin.  Exit codes: 0 success,
2 validation or hypothesis failure, 1 internal error.  `--machine` switches
the report to stable key=value lines.

A call that names a verb parses its arguments with one flat parser of that
verb's options, which never prints.  Help, a missing or unknown verb and
every argument the flat parser refuses or leaves over go through the full
parser of all verbs, which prints the usage, help or error and exits 2
(0 for help).
"""

import argparse
import math
import sys

from . import certify as ct
from . import divisors as dv
from . import fixtures as fx
from . import invariants as inv
from . import mel
from . import multigraph as mg
from . import scrambles as sc


class _Out:
    def __init__(self, machine):
        self.machine = machine

    def kv(self, key, value, text=None):
        if self.machine:
            print("%s=%s" % (key, value))
        else:
            print(text if text is not None else "%s: %s" % (key, value))

    def raw(self, text):
        if not self.machine:
            print(text)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_graph(path):
    return mel.parse_mel(_read_text(path))


def _fmt_set(vertices):
    return ",".join(str(v) for v in sorted(vertices))


GENERATORS = {
    "path": (["m"], lambda a, seed: mg.path(a[0])),
    "cycle": (["m"], lambda a, seed: mg.cycle(a[0])),
    "complete": (["n"], lambda a, seed: mg.complete(a[0])),
    "complete-bipartite": (["m", "n"], lambda a, seed: mg.complete_bipartite(a[0], a[1])),
    "complete-multipartite": (["part..."], lambda a, seed: mg.complete_multipartite(a)),
    "hypercube": (["d"], lambda a, seed: mg.hypercube(a[0])),
    "grid": (["dim..."], lambda a, seed: mg.grid(a)),
    "star": (["m"], lambda a, seed: mg.star(a[0])),
    "random-tree": (["m"], lambda a, seed: mg.random_tree(a[0], seed)),
    "random-graph": (["n", "p%"], lambda a, seed: mg.random_graph(a[0], a[1] / 100.0, seed)),
}


def _cmd_gen(args, out):
    if args.family not in GENERATORS:
        raise ValueError("unknown family %r (choose from %s)"
                         % (args.family, ", ".join(sorted(GENERATORS))))
    params, build = GENERATORS[args.family]
    if args.family.startswith("random") and args.seed is None:
        raise ValueError("randomized generators require --seed")
    values = [int(x) for x in args.sizes]
    if "..." not in params[-1] and len(values) != len(params):
        raise ValueError("%s expects %d size argument(s): %s"
                         % (args.family, len(params), " ".join(params)))
    sys.stdout.write(mel.write_mel(build(values, args.seed)))


def _cmd_info(args, out):
    g = _read_graph(args.graph)
    out.kv("n", g.n)
    out.kv("edges", g.edge_count())
    out.kv("simple", g.is_simple())
    out.kv("min_degree", inv.min_degree(g))
    out.kv("edge_connectivity", inv.edge_connectivity(g))
    out.kv("vertex_connectivity", inv.vertex_connectivity(g))
    comps = inv.components(g)
    out.kv("components", len(comps))
    out.kv("bridges", ";".join("%d-%d" % b for b in inv.bridges(g)) or "none")
    out.kv("independence_number", inv.independence_number(g))


def _cmd_gonality(args, out):
    g = _read_graph(args.graph)
    value, witness = dv.gonality(g)
    out.kv("gonality", value)
    out.kv("witness", " ".join(str(c) for c in witness.chips),
           "witness divisor: %s" % witness.chips.tolist())


def _cmd_rank(args, out):
    g = _read_graph(args.graph)
    d = dv.Divisor(g, mel.parse_divisor(_read_text(args.divisor), g.n))
    out.kv("rank", dv.rank(d, args.cap))
    out.kv("cap", args.cap)


def _cmd_reduce(args, out):
    g = _read_graph(args.graph)
    d = dv.Divisor(g, mel.parse_divisor(_read_text(args.divisor), g.n))
    reduced, script = dv.q_reduce(d, args.q, with_script=True)
    out.kv("reduced", " ".join(str(c) for c in reduced.chips),
           "q-reduced divisor: %s" % reduced.chips.tolist())
    out.kv("firings", len(script))
    for i, fired in enumerate(script):
        out.kv("firing_%d" % i, _fmt_set(fired), "  fire {%s}" % _fmt_set(fired))


def _cmd_scramble_order(args, out):
    g = _read_graph(args.graph)
    eggs = mel.parse_scramble(_read_text(args.scramble), g.n)
    order = sc.scramble_order(sc.Scramble(g, eggs))
    out.kv("order", order.order)
    out.kv("hitting", order.hitting)
    out.kv("egg_cut", "inf" if order.egg_cut is math.inf else order.egg_cut)
    out.kv("hitting_witness", _fmt_set(order.witness_hitting_set))
    if order.witness_cut is not None:
        out.kv("cut_witness", _fmt_set(order.witness_cut[0]))


def _print_bounds(out, report):
    for key in ("lower", "upper", "lower_source", "upper_source"):
        out.kv(key, getattr(report, key))


def _cmd_sn_bounds(args, out):
    g = _read_graph(args.graph)
    extras = []
    if args.scramble:
        extras.append(sc.Scramble(g, mel.parse_scramble(_read_text(args.scramble), g.n)))
    report = sc.sn_bounds(g, extra_scrambles=extras, gonality_budget=args.budget,
                          use_brute=args.brute is not None,
                          max_eggs=args.brute if args.brute else None)
    _print_bounds(out, report)
    out.kv("exact", report.exact)


def _cmd_edge_scramble(args, out):
    g = _read_graph(args.graph)
    scramble = sc.edge_scramble(g)
    sys.stdout.write(mel.write_scramble(scramble))


def _cmd_product_scramble(args, out):
    g = _read_graph(args.graph_g)
    h = _read_graph(args.graph_h)
    scramble = sc.product_scramble(g, h, args.k)
    sys.stdout.write(mel.write_scramble(scramble))


def _cmd_product(args, out):
    g = _read_graph(args.graph_g)
    h = _read_graph(args.graph_h)
    sys.stdout.write(mel.write_mel(mg.cartesian_product(g, h)))


def _cmd_cone(args, out):
    g = _read_graph(args.graph)
    sys.stdout.write(mel.write_mel(mg.cone(g, args.l)))


def _cmd_certify(args, out):
    g = _read_graph(args.graph_g)
    h = _read_graph(args.graph_h)
    cert = ct.certify_product(g, h, budget=args.budget)
    out.kv("statement", cert.statement)
    if cert.orientation:
        out.kv("orientation", cert.orientation)
    for i, check in enumerate(cert.hypotheses):
        out.kv("hypothesis_%d" % i, "%s|%s|%s" % (check.description, check.value, check.passed),
               "  [%s] %s (%s)" % ("ok" if check.passed else "FAIL",
                                   check.description, check.value))
    if cert.certified:
        out.kv("certified", cert.value,
               "certified %s = %d" % (" = ".join(cert.proves), cert.value))
        if out.machine:  # the prose line above names them
            out.kv("proves", ",".join(cert.proves))
    else:
        out.kv("certified", "open", "not certified; open bounds:")
        _print_bounds(out, cert.bounds)


def _cmd_reduce_alpha(args, out):
    g = _read_graph(args.graph)
    alpha, m, cone_graph = ct.reduce_alpha(g)
    out.kv("alpha", alpha)
    out.kv("m", m)
    out.raw("cone graph:")
    sys.stdout.write(mel.write_mel(cone_graph))


def _cmd_fixtures(args, out):
    if args.out:
        for written in fx.write_fixtures(args.out):
            out.kv("wrote", written)
    if args.check or not args.out:
        failures = 0
        for name, ok, detail in fx.run_checks():
            out.kv("check", "%s|%s" % (name, "pass" if ok else "fail"),
                   "[%s] %s%s" % ("pass" if ok else "FAIL", name,
                                  "" if ok else " (%s)" % detail))
            failures += 0 if ok else 1
        if failures:
            raise RuntimeError("%d fixture check(s) failed" % failures)


def _arg(*flags, **kwargs):
    return flags, kwargs


# verb -> (help, handler, argument specs), in the order the help lists them
VERBS = {
    "gen": ("emit a generator-family graph as MEL", _cmd_gen,
            [_arg("family"), _arg("sizes", nargs="+"), _arg("--seed", type=int, default=None)]),
    "info": ("basic invariants of a graph", _cmd_info, [_arg("graph")]),
    "gonality": ("exact gonality with witness divisor", _cmd_gonality, [_arg("graph")]),
    "rank": ("truncated divisor rank", _cmd_rank,
             [_arg("graph"), _arg("divisor"), _arg("--cap", type=int, required=True)]),
    "reduce": ("q-reduced form with the firing script", _cmd_reduce,
               [_arg("graph"), _arg("divisor"), _arg("--q", type=int, required=True)]),
    "scramble-order": ("order of a scramble given as egg lines", _cmd_scramble_order,
                       [_arg("graph"), _arg("scramble")]),
    "sn-bounds": ("lower/upper bounds on the scramble number", _cmd_sn_bounds,
                  [_arg("graph"),
                   _arg("--scramble", default=None, help="extra user scramble file"),
                   _arg("--budget", type=int, default=12, help="gonality vertex budget"),
                   _arg("--brute", type=int, nargs="?", const=0, default=None,
                        metavar="MAX_EGGS", help="fold in the exact tiny-graph oracle")]),
    "edge-scramble": ("emit the edge scramble of a graph", _cmd_edge_scramble, [_arg("graph")]),
    "product-scramble": ("emit the k-deleted product scramble", _cmd_product_scramble,
                         [_arg("graph_g"), _arg("graph_h"), _arg("--k", type=int, required=True)]),
    "product": ("Cartesian product as MEL", _cmd_product, [_arg("graph_g"), _arg("graph_h")]),
    "cone": ("cone over a graph as MEL", _cmd_cone, [_arg("graph"), _arg("l", type=int)]),
    "certify": ("certify exact product gonality or emit bounds", _cmd_certify,
                [_arg("graph_g"), _arg("graph_h"), _arg("--budget", type=int, default=12)]),
    "reduce-alpha": ("recover alpha(G) from the cone's gonality", _cmd_reduce_alpha,
                     [_arg("graph")]),
    "fixtures": ("rebuild and check the benchmark figure graphs", _cmd_fixtures,
                 [_arg("--out", default=None, help="directory to write fixture files"),
                  _arg("--check", action="store_true")]),
}


def build_parser():
    """The command-line parser with every verb."""
    parser = argparse.ArgumentParser(
        prog="scramblegon",
        description="Chip-firing gonality and scramble-number toolkit on multigraphs.")
    parser.add_argument("--machine", action="store_true",
                        help="emit stable key=value lines instead of prose")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, func, specs) in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


class _Unparsed(Exception):
    """The flat parser met an argument list it does not accept."""


class _VerbParser(argparse.ArgumentParser):
    """One verb's arguments, with no help option, in a parser that never
    prints: its errors raise `_Unparsed` for the full parser to report."""

    def __init__(self, verb, machine):
        super().__init__(prog="scramblegon " + verb, add_help=False)
        for flags, kwargs in VERBS[verb][2]:
            self.add_argument(*flags, **kwargs)
        self.set_defaults(func=VERBS[verb][1], verb=verb, machine=machine)

    def error(self, message):
        raise _Unparsed(message)


def _parse(argv):
    """Parse `[--machine ...] VERB ARGS` with one flat parser of VERB's
    arguments.  Anything else, any argument it leaves over (help among
    them, as it has no help option) and any error go through the full
    parser, which prints the usage, help or error and exits."""
    i = 0
    while i < len(argv) and argv[i] == "--machine":
        i += 1
    if i < len(argv) and argv[i] in VERBS:
        try:
            args, rest = _VerbParser(argv[i], i > 0).parse_known_args(argv[i + 1:])
        except _Unparsed:
            pass
        else:
            if not rest:
                return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    out = _Out(args.machine)
    try:
        args.func(args, out)
    except BrokenPipeError:
        return 0
    except (mel.MelError, ct.HypothesisError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - internal failure path
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
