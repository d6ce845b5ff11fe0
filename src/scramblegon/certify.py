"""Closed-form lower bounds for Cartesian products, a certifier that proves
exact product gonality whenever a scramble lower bound meets a gonality upper
bound, and the cone-based reduction recovering the independence number from
gonality.

Each certifying statement has a descriptive id; the certifier tries the
statements in a fixed, documented order and both factor orientations, so the
emitted certificate is deterministic.  All applicable statements certify the
same number, so the order only affects provenance.

A certificate names the quantities its value equals (`Certificate.proves`).
Every statement but `rook` bounds the product from below by a scramble's
order, so it proves sn = gon.  `rook` proves gon only: on K4 [] K4 it
certifies 12, where sn is 11 (`brute_force_sn`, exact).

The paper's product lower bounds (Thm 4.1 at each k with kappa(G) >= k >= 1
and |V(G)| >= 2k-1, a rule kept in `scrambles._product_k_failure`; Prop 4.3 at
k = 2; Cor 4.2 from the k = 1 values) are one table, `_product_bounds`, read by
the public formulas and the open bounds.  Where a table entry meets the
factor-gonality upper bound min(|V(G)| gon(H), |V(H)| gon(G)), the certificate
is "met-bounds" and its lower hypothesis names the entry's k and orientation.

Six of the paper's product statements are left out, as a kept statement or
met-bounds always certifies the same value:
- G a tree and gon(H) = lam(H): tree-factor or tight-factor.
- kappa(G) >= gon(G) = k: this forces k = kappa(G) = lam(G), so G is a tree
  (tree-factor), or k = 2 with lam(H) <= 2 (tight-factor or, as below,
  biconnected-gon2), or k >= 3 with lam(H) = 1 (tight-factor).
- biconnected-gon2: Prop 4.3 at k = 2, (G,H), equals 2|V(H)| = |V(H)| gon(G).
- biconnected-tight: the same entry equals |V(G)| lam(H) = |V(G)| gon(H).
- high-connectivity-tight: its witness k gives a Thm 4.1 value of
  |V(G)| lam(H) = |V(G)| gon(H).
- one-vertex-factor: the K1 entry, H's vertex scramble order, equals gon(H).
A certify_product call works out each factor's invariants once, and kappa,
the gonality and the shape tests only when a statement or bound first reads
them.  The gonality of a factor with at most `budget` vertices is computed,
with no search where its scramble sandwich closes; a larger factor's is
unknown.  So a factor whose search would raise CandidateBudgetError fails
only the pairs that read its gonality.

`check_all_equal` and reduce_alpha's "scramble-sandwich" solver read their
values from the one gonality sandwich, `divisors._scan_bounds`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import divisors as dv
from . import invariants as inv
from . import multigraph as mg
from .scrambles import BoundReport, _product_k_failure, vertex_scramble_order


class HypothesisError(ValueError):
    """A bound formula was asked about a pair violating its hypotheses."""


@dataclass
class HypothesisCheck:
    description: str
    value: str
    passed: bool


@dataclass
class Certificate:
    statement: str                    # statement id, or "open"
    hypotheses: list
    value: object                     # certified number, or None when open
    bounds: object = None             # BoundReport when open
    orientation: str = ""             # which factor played G in the statement
    proves: tuple = ("sn", "gon")     # the quantities equal to value; () when open

    @property
    def certified(self):
        return self.value is not None


def _gon_upper(stats_g, stats_h):
    """min(|V(G)| gon(H), |V(H)| gon(G)) over the known factor gonalities,
    or None when neither is known."""
    terms = [a.n * b.gon for a, b in ((stats_g, stats_h), (stats_h, stats_g)) if b.gon is not None]
    return min(terms, default=None)


def _complete_bipartite_parts(g):
    """(m, n) with m <= n when g is a complete bipartite simple graph, else None.

    The far part can only be vertex 0's neighbours; g must have one and
    equal the 0/1 pattern that part and the rest span."""
    far = g.mult[0] > 0
    if not far.any() or not (g.mult == (far[:, None] != far[None, :])).all():
        return None
    m = int(far.sum())
    return tuple(sorted((m, g.n - m)))


class _FactorStats:
    """Invariants of one factor, for one certify_product call.  n, lam, delta
    and tree are computed at once; kappa, gon and the shape tests when a
    statement or bound first reads them, and then kept.  gon is None when
    the factor has more than `budget` vertices."""

    def __init__(self, g, budget):
        self.graph, self.n, self.budget = g, g.n, budget
        self.lam = inv.edge_connectivity(g)
        self.delta = inv.min_degree(g)
        self.tree = g.is_simple() and g.edge_count() == g.n - 1

    @cached_property
    def kappa(self):
        return inv.vertex_connectivity(self.graph)

    @cached_property
    def gon(self):
        # gon >= sn >= the vertex scramble's order; where that meets the
        # positive-rank upper bound (genus + 1, n - alpha, or n) no divisor
        # search runs; alpha is read only below min(genus + 1, n)
        if self.n > self.budget:
            return None
        return dv._sandwich(self.graph, vertex_scramble_order(self.n, self.lam))[1]

    @cached_property
    def complete_simple(self):
        g = self.graph
        return g.n >= 2 and g.is_simple() and g.edge_count() == g.n * (g.n - 1) // 2

    @cached_property
    def bipartite_parts(self):
        return _complete_bipartite_parts(self.graph)

    @cached_property
    def doubled_pair(self):
        # the 2-vertex doubled edge (the multigraph 2-cycle)
        return self.n == 2 and int(self.graph.mult[0, 1]) == 2


def _stats(g, budget):
    """A factor's _FactorStats; HypothesisError if it is disconnected, which
    on two or more vertices is exactly lam = 0."""
    stats = _FactorStats(g, budget)
    if g.n >= 2 and stats.lam == 0:
        raise HypothesisError("both factors must be connected")
    return stats


def _pair_stats(g, h, budget):
    """Both factors' _stats, computed once when the factors are equal."""
    stats_g = _stats(g, budget)
    return stats_g, stats_g if h == g else _stats(h, budget)


def _product_bounds(stats_g, stats_h):
    """The paper's lower bounds on sn(G [] H) as (orientation, k, value,
    Thm 4.1 value), orientation (G,H) then (H,G).  A one-vertex G gives
    k = None and H's vertex scramble order, as G [] H = H.  Each k that
    `_product_k_failure` admits gives Thm 4.1's value, which bounds the
    k-deleted product scramble's order and which Prop 4.3 raises at k = 2 with
    delta(G) for lam(G).  Cor 4.2 is the larger k = 1 value."""
    for a, b, tag in ((stats_g, stats_h, "G,H"), (stats_h, stats_g, "H,G")):
        if a.n == 1:
            yield tag, None, vertex_scramble_order(b.n, b.lam), None
        k = 1
        while _product_k_failure(a.n, a.kappa, k) is None:
            thm41 = min(k * b.n, a.n * b.lam, (a.n - 2 * k + 2) * b.lam + 2 * a.lam)
            value = min(2 * b.n, a.n * b.lam, (a.n - 2) * b.lam + 2 * a.delta) if k == 2 else thm41
            yield tag, k, value, thm41
            k += 1


def _table_entry(g, h, k):
    """(value, Thm 4.1 value) of the table's (G,H) entry at k, or HypothesisError."""
    stats_g, stats_h = _pair_stats(g, h, 0)
    for tag, j, value, thm41 in _product_bounds(stats_g, stats_h):
        if tag == "G,H" and j == k:
            return value, thm41
    raise HypothesisError(_product_k_failure(g.n, stats_g.kappa, k) or "k must be an integer")


def thm41_lower(g, h, k):
    """sn(G [] H) >= min(k|V(H)|, |V(G)|lam(H), (|V(G)|-2k+2)lam(H)+2lam(G))
    for kappa(G) >= k >= 1 and |V(G)| >= 2k-1, both factors connected."""
    return _table_entry(g, h, k)[1]


def cor42_lower(g, h):
    """sn(G [] H) >= max(min(|V(H)|, |V(G)|lam(H)), min(|V(G)|, |V(H)|lam(G)))."""
    values = [value for _, k, value, _ in _product_bounds(*_pair_stats(g, h, 0)) if k == 1]
    if len(values) < 2:
        raise HypothesisError("both factors need at least 2 vertices")
    return max(values)


def prop43_lower(g, h):
    """sn(G [] H) >= min(2|V(H)|, |V(G)|lam(H), (|V(G)|-2)lam(H)+2delta(G))
    for kappa(G) >= 2."""
    return _table_entry(g, h, 2)[0]


def _check(checks, description, value, passed):
    checks.append(HypothesisCheck(description, value, bool(passed)))
    return bool(passed)


# each statement: (id, function(a: _FactorStats, b: _FactorStats) -> (value, checks) or None)

def _stmt_tree_factor(a, b):
    # G a tree, |V(H)|/lam(H) <= |V(G)|  =>  value |V(H)|
    checks = []
    ok = _check(checks, "G is a tree", str(a.tree), a.tree)
    ok &= _check(checks, "|V(H)|/lam(H) <= |V(G)|",
                 "%d/%d <= %d" % (b.n, b.lam, a.n),
                 b.lam > 0 and b.n <= a.n * b.lam)
    return (b.n if ok else None), checks


def _stmt_tight_factor(a, b):
    # gon(H) = lam(H), |V(G)| <= |V(H)|/lam(H)  =>  value |V(G)| lam(H);
    # the size condition is tested first, so a pair failing it reads no
    # gon(H) (a failing statement's checks are discarded)
    checks = []
    if not (b.lam > 0 and a.n * b.lam <= b.n):
        return None, checks
    ok = (_check(checks, "gon(H) known", str(b.gon), b.gon is not None)
          and _check(checks, "gon(H) = lam(H)", "%s = %d" % (b.gon, b.lam), b.gon == b.lam))
    ok &= _check(checks, "|V(G)| <= |V(H)|/lam(H)",
                 "%d <= %d/%d" % (a.n, b.n, b.lam),
                 b.lam > 0 and a.n * b.lam <= b.n)
    return (a.n * b.lam if ok else None), checks


def _stmt_complete_bipartite_factor(a, b):
    # H = K_{m,n}, m <= n, |V(G)| <= (m+n)/m  =>  value m |V(G)|
    checks = []
    parts = b.bipartite_parts
    ok = _check(checks, "H is complete bipartite", str(parts), parts is not None)
    if not ok:
        return None, checks
    m, n = parts
    ok &= _check(checks, "|V(G)| <= (m+n)/m",
                 "%d <= (%d+%d)/%d" % (a.n, m, n, m),
                 a.n * m <= m + n)
    return (m * a.n if ok else None), checks


def _stmt_rook(a, b):
    # G = K_m, H = K_n simple complete, m <= min(n, 5)  =>  value (m-1) n
    checks = []
    ok = _check(checks, "G is complete simple", str(a.n), a.complete_simple)
    ok &= _check(checks, "H is complete simple", str(b.n), b.complete_simple)
    if ok:
        ok &= _check(checks, "|V(G)| <= min(|V(H)|, 5)",
                     "%d <= min(%d, 5)" % (a.n, b.n), a.n <= min(b.n, 5))
    return ((a.n - 1) * b.n if ok else None), checks


def _stmt_uniform(a, b):
    # k = kappa(G) = lam(G) = gon(G) <= lam(H), |V(G)| >= 2k-1,
    # |V(H)| <= |V(G)| - 2k + 4  =>  value k |V(H)|; as k must be lam(G),
    # the size conditions are tested with k = lam(G) before gon(G) is read,
    # and gon(G) = lam(G) before kappa(G) is (a failing statement's checks
    # are discarded)
    checks = []
    k = a.lam
    if not (k <= b.lam and a.n >= 2 * k - 1 and b.n <= a.n - 2 * k + 4) or a.gon != k:
        return None, checks
    _check(checks, "gon(G) known", str(a.gon), True)
    ok = _check(checks, "kappa(G) = lam(G) = gon(G)",
                "%d = %d = %d" % (a.kappa, a.lam, k), a.kappa == a.lam == k)
    ok &= _check(checks, "gon(G) <= lam(H)", "%d <= %d" % (k, b.lam), k <= b.lam)
    ok &= _check(checks, "|V(G)| >= 2 gon(G) - 1", "%d >= %d" % (a.n, 2 * k - 1), a.n >= 2 * k - 1)
    ok &= _check(checks, "|V(H)| <= |V(G)| - 2 gon(G) + 4",
                 "%d <= %d" % (b.n, a.n - 2 * k + 4), b.n <= a.n - 2 * k + 4)
    return (k * b.n if ok else None), checks


def _stmt_doubled_edge_times_complete(a, b):
    # G the doubled edge, H = K_n (n >= 2)  =>  value 2n - 2
    checks = []
    ok = _check(checks, "G is the 2-vertex doubled edge", str(a.n), a.doubled_pair)
    ok &= _check(checks, "H is complete simple", str(b.n), b.complete_simple)
    return (2 * b.n - 2 if ok else None), checks


# each statement: (id, function, the quantities its value equals)
_STATEMENTS = [
    ("tree-factor", _stmt_tree_factor, ("sn", "gon")),
    ("tight-factor", _stmt_tight_factor, ("sn", "gon")),
    ("complete-bipartite-factor", _stmt_complete_bipartite_factor, ("sn", "gon")),
    ("rook", _stmt_rook, ("gon",)),
    ("uniform-connectivity", _stmt_uniform, ("sn", "gon")),
    ("doubled-edge-times-complete", _stmt_doubled_edge_times_complete, ("sn", "gon")),
]


def certify_product(g, h, budget=12):
    """Try the certifying statements in fixed order, each in both factor
    orientations; the first passing one proves the product's gonality, and
    its sn too unless the statement is `rook` (`Certificate.proves`).
    Otherwise take the bounds from the closed-form lower formulas and the
    factor-gonality upper bound: where they meet they prove sn = gon
    (statement "met-bounds"), and else they are emitted as open bounds."""
    if budget < 0:
        raise ValueError("gonality budget must be >= 0, got %d" % budget)
    return _certify(*_pair_stats(g, h, budget))


def _certify(stats_g, stats_h):
    for statement_id, statement, proves in _STATEMENTS:
        for a, b, orientation in ((stats_g, stats_h, "G,H"), (stats_h, stats_g, "H,G")):
            value, checks = statement(a, b)
            if value is not None:
                return Certificate(statement=statement_id, hypotheses=checks,
                                   value=value, orientation=orientation, proves=proves)
    bounds = _open_bounds(stats_g, stats_h)
    if bounds.exact:
        # the lower bound is a scramble's order, so sn >= lower, and the
        # upper bound a positive-rank divisor's degree, so gon <= upper
        checks = [HypothesisCheck("sn(G [] H) >= lower bound",
                                  "%d by %s" % (bounds.lower, bounds.lower_source), True),
                  HypothesisCheck("gon(G [] H) <= upper bound",
                                  "%d by %s" % (bounds.upper, bounds.upper_source), True)]
        return Certificate(statement="met-bounds", hypotheses=checks, value=bounds.lower)
    return Certificate(statement="open", hypotheses=[], value=None, bounds=bounds, proves=())


def _open_bounds(stats_g, stats_h):
    # the best entry of the product-bound table, the first of equal ones
    tag, k, lower, _ = max(_product_bounds(stats_g, stats_h), key=lambda entry: entry[2])
    lsrc = ("vertex scramble of H (%s)" % tag if k is None
            else "k=%d product scramble (%s)" % (k, tag))
    upper, usrc = _gon_upper(stats_g, stats_h), "factor gonality"
    if upper is None:
        upper, usrc = stats_g.n * stats_h.n, "vertex count"
    return BoundReport("gon", lower, upper, lsrc, usrc)


def check_all_equal(g):
    """Certified sn = gon = n - alpha for dense simple graphs.

    Applies when delta(G) >= floor(n/2) + 1, where `divisors._scan_bounds`
    finds the edge scramble's order equal to n - alpha; returns None when
    the hypothesis fails (it cannot be weakened: K_m [] K_2 has delta = n/2
    but gon < n - alpha).
    """
    if not g.is_simple():
        raise HypothesisError("needs a simple graph")
    if not inv.is_connected(g):
        raise HypothesisError("needs a connected graph")
    n = g.n
    delta = inv.min_degree(g)
    if delta < n // 2 + 1:
        return None
    _, start, upper = dv._scan_bounds(g, 1)
    if start != upper:
        raise RuntimeError("soundness bug: edge scramble order %d != upper bound %d"
                           % (start, upper))
    checks = [
        HypothesisCheck("G simple connected", "True", True),
        HypothesisCheck("delta(G) >= floor(n/2) + 1", "%d >= %d" % (delta, n // 2 + 1), True),
        HypothesisCheck("edge scramble order = n - alpha", "%d" % upper, True),
    ]
    return Certificate(statement="dense-edge-scramble", hypotheses=checks, value=upper)


def reduce_alpha(g, solver="gonality"):
    """Recover alpha(G) from the gonality of the cone over G.

    Builds the cone with m = |V(G)| apex vertices; its scramble number and
    gonality both equal 2m - alpha(G), so alpha = 2m - gon.  Solver
    "gonality" runs the exact divisor search on the cone.  Solver
    "scramble-sandwich" is circular: the cone's `divisors._sandwich` closes
    at n - alpha with no search, alpha read from `max_independent_set`, and
    its only independent check is that the edge scramble's order meets it.
    The recovered alpha is cross-checked against the direct branch-and-bound
    value; a mismatch is a soundness bug and raises."""
    if not g.is_simple():
        raise HypothesisError("the reduction is defined for simple graphs")
    if not inv.is_connected(g):
        raise HypothesisError("the reduction needs a connected graph")
    m = g.n
    if m < 2:
        raise HypothesisError("need at least 2 vertices")
    cone_graph = mg.cone(g, m)
    if solver == "gonality":
        value = dv.gonality(cone_graph)[0]
    elif solver == "scramble-sandwich":
        value = dv._sandwich(cone_graph, 1)[1]
    else:
        raise ValueError("solver must be 'gonality' or 'scramble-sandwich'")
    alpha = 2 * m - value
    direct = inv.independence_number(g)
    if alpha != direct:
        raise RuntimeError("soundness bug: reduction recovered alpha = %d, "
                           "direct computation says %d" % (alpha, direct))
    return alpha, m, cone_graph
