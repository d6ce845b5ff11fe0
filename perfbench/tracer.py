"""Spans around calls into scramblegon, recorded from outside the program.

install() replaces every public function in the namespace of each
scramblegon module (and __init__ of Multigraph and Scramble) with a wrapper
that records a span: name, start, end and the id of the enclosing span.
Module globals are the module's namespace, so calls inside a module are
traced too; names bound early in scramblegon/__init__.py are not, which is
why the workloads call through the module objects.  uninstall() puts the
originals back.
"""

import functools
import hashlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("multigraph", "invariants", "divisors", "scrambles", "certify", "mel", "cli")
CLASSES = (("multigraph", "Multigraph"), ("scrambles", "Scramble"))
# functions whose distinct graph arguments are counted, for calls_per_graph
GRAPH_KEYED = ("edge_connectivity", "vertex_connectivity", "is_connected", "independence_number")


def graph_key(g):
    return hashlib.blake2b(g.mult.tobytes(), digest_size=8, person=b"%d" % g.n).hexdigest()


def disjoint_pairs(eggs):
    eggs = list(eggs)
    return sum(1 for i, a in enumerate(eggs) for b in eggs[i + 1:] if not a & b)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent id); id is the index
        self.stack = []
        self.graphs = defaultdict(set)
        self.egg_pairs = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            parent = stack[-2] if len(stack) > 1 else -1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
                if after is not None:
                    after(args)
        return traced

    def _after(self, short):
        if short in GRAPH_KEYED:
            seen = self.graphs["invariants." + short]
            return lambda args: seen.add(graph_key(args[0]))
        if short == "egg_cut_number":
            def count(args):
                self.egg_pairs += disjoint_pairs(args[0].eggs)
            return count
        return None

    def install(self):
        import importlib

        for mod_name in MODULES:
            module = importlib.import_module("scramblegon." + mod_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("scramblegon."):
                    continue
                name = "%s.%s" % (home.split(".", 1)[1], attr)
                self._undo.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, obj, self._after(attr)))
        for mod_name, cls_name in CLASSES:
            cls = getattr(importlib.import_module("scramblegon." + mod_name), cls_name)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap("%s.%s" % (mod_name, cls_name), cls.__init__)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- persistence -------------------------------------------------------

    def to_dict(self):
        return {"spans": [[i, n, s, e, p] for i, (n, s, e, p) in enumerate(self.spans)],
                "graphs": {k: sorted(v) for k, v in self.graphs.items()},
                "egg_pairs": self.egg_pairs}

    def dump(self, path, **extra):
        data = self.to_dict()
        data.update(extra)
        with open(path, "w") as fh:
            json.dump(data, fh)

    # -- metrics -----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds (outermost spans of the
        name only) and self seconds (duration minus direct children)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        flows = 0
        for sid, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[sid]
            outer, in_egg_cut = True, False
            p = parent
            while p >= 0:
                pname = spans[p][0]
                outer = outer and pname != name
                in_egg_cut = in_egg_cut or pname == "scrambles.egg_cut_number"
                p = spans[p][3]
            if outer:
                incl[name] += end - start
            if name == "invariants.min_cut_between" and in_egg_cut:
                flows += 1
        return calls, incl, self_s, flows

    def layer_metrics(self, rounds):
        """The per-layer metrics, per traced round."""
        calls, incl, self_s, flows = self.totals()
        out = {
            "cli.invocations": (calls["cli.main"] / rounds, "count"),
            "cli.main.self_s": (self_s["cli.main"] / rounds, "s"),
            "mel.parse_mel.s": (incl["mel.parse_mel"] / rounds, "s"),
            "mel.write_mel.s": (incl["mel.write_mel"] / rounds, "s"),
            "multigraph.cartesian_product.s": (incl["multigraph.cartesian_product"] / rounds, "s"),
            "multigraph.cone.s": (incl["multigraph.cone"] / rounds, "s"),
            "multigraph.Multigraph.calls": (calls["multigraph.Multigraph"] / rounds, "count"),
            "divisors.gonality.calls": (calls["divisors.gonality"] / rounds, "count"),
            "divisors.gonality.self_s": (self_s["divisors.gonality"] / rounds, "s"),
            "invariants.min_cut_between.calls": (calls["invariants.min_cut_between"] / rounds, "count"),
            "invariants.min_cut_between.s": (incl["invariants.min_cut_between"] / rounds, "s"),
            "invariants.is_connected_subset.calls":
                (calls["invariants.is_connected_subset"] / rounds, "count"),
            "invariants.is_connected_subset.s": (incl["invariants.is_connected_subset"] / rounds, "s"),
        }
        for short in GRAPH_KEYED:
            name = "invariants." + short
            graphs = len(self.graphs[name])
            out[name + ".calls"] = (calls[name] / rounds, "count")
            out[name + ".s"] = (incl[name] / rounds, "s")
            # every round sees the same graphs, so divide the per-round calls
            out[name + ".calls_per_graph"] = (calls[name] / rounds / graphs if graphs else 0.0,
                                              "calls/graph")
        out.update({
            "invariants.bridges.s": (incl["invariants.bridges"] / rounds, "s"),
            "scrambles.Scramble.s": (incl["scrambles.Scramble"] / rounds, "s"),
            "scrambles.hitting_number.s": (incl["scrambles.hitting_number"] / rounds, "s"),
            "scrambles.egg_cut_number.self_s": (self_s["scrambles.egg_cut_number"] / rounds, "s"),
            "scrambles.egg_cut_number.flows_per_pair":
                (flows / self.egg_pairs if self.egg_pairs else 0.0, "flows/pair"),
            "scrambles.brute_force_sn.s": (incl["scrambles.brute_force_sn"] / rounds, "s"),
            "scrambles.sn_bounds.self_s": (self_s["scrambles.sn_bounds"] / rounds, "s"),
            "certify.certify_product.calls": (calls["certify.certify_product"] / rounds, "count"),
            "certify.certify_product.self_s": (self_s["certify.certify_product"] / rounds, "s"),
            "certify.reduce_alpha.self_s": (self_s["certify.reduce_alpha"] / rounds, "s"),
            "certify.check_all_equal.self_s": (self_s["certify.check_all_equal"] / rounds, "s"),
        })
        return out
