"""Scrambles and their order, the named scramble constructions, bound
reports for the scramble number, and an exact brute-force oracle for tiny
graphs.

A scramble is a collection of eggs: nonempty connected vertex sets.  Its
order is min(h, e) where h is the minimum hitting-set size and e the
minimum egg-cut: the smallest edge boundary |E(A, A^C)| over sets A that
fully contain one egg while A^C fully contains another.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import invariants as inv
from . import divisors as dv
from . import multigraph as mg


class Scramble:
    """Eggs on a host multigraph.

    Duplicate eggs are dropped, as is any egg strictly containing another:
    hitting sets are unchanged (hitting the contained egg hits the container)
    and every egg-cut of the container is an egg-cut of the contained egg, so
    the order is preserved exactly.
    """

    __slots__ = ("host", "eggs")

    def __init__(self, host, eggs):
        cleaned = []
        seen = set()
        for egg in eggs:
            fs = frozenset(int(v) for v in egg)
            if not inv.is_connected_subset(host, fs):
                raise ValueError("egg %s is empty or not connected in the host" % sorted(fs))
            if fs not in seen:
                seen.add(fs)
                cleaned.append(fs)
        if not cleaned:
            raise ValueError("a scramble needs at least one egg")
        kept = [e for e in cleaned if not any(o < e for o in cleaned)]
        kept.sort(key=lambda e: (len(e), sorted(e)))
        self.host = host
        self.eggs = tuple(kept)

    def __len__(self):
        return len(self.eggs)

    def __repr__(self):
        return "Scramble(%d eggs on %r)" % (len(self.eggs), self.host)


@dataclass
class ScrambleOrder:
    order: int
    hitting: int
    egg_cut: object  # int or math.inf
    witness_hitting_set: frozenset
    witness_cut: object  # (A, size) or None


def hitting_number(scramble):
    """Exact minimum hitting set; returns (size, witness set)."""
    eggs = [frozenset(e) for e in scramble.eggs]

    best_set = set()
    covered = set()
    # greedy warm start on most-frequent vertices
    while True:
        missed = [e for e in eggs if not e & covered]
        if not missed:
            break
        counts = {}
        for e in missed:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        v = max(sorted(counts), key=counts.get)
        best_set.add(v)
        covered.add(v)
    best = [len(best_set), frozenset(best_set)]

    def disjoint_lower_bound(missed):
        used = set()
        count = 0
        for e in sorted(missed, key=len):
            if not e & used:
                count += 1
                used |= e
        return count

    def search(chosen):
        missed = [e for e in eggs if not e & chosen]
        if not missed:
            if len(chosen) < best[0]:
                best[0], best[1] = len(chosen), frozenset(chosen)
            return
        if len(chosen) + disjoint_lower_bound(missed) >= best[0]:
            return
        egg = min(missed, key=len)
        for v in sorted(egg):
            chosen.add(v)
            search(chosen)
            chosen.remove(v)

    search(set())
    return best[0], best[1]


def egg_cut_number(scramble):
    """Minimum egg-cut over disjoint egg pairs, via max-flow with the two
    eggs contracted to source and sink.  (inf, None) when no two eggs are
    disjoint.

    Returns (value, (A, value)) with A the maximal source side of the first
    pair, in egg order, whose cut attains the minimum.  Each flow is capped
    at the running minimum: a pair that cannot cut below it cannot replace
    the witness, so it is abandoned as soon as its flow reaches it."""
    g = scramble.host
    best = math.inf
    witness = None
    for a, b in itertools.combinations(scramble.eggs, 2):
        if a & b:
            continue
        value, side = inv.min_cut_between(g, a, b, limit=best)
        if value < best:
            best = value
            witness = (frozenset(side), value)
            if best == 0:
                break
    return best, witness


def scramble_order(scramble):
    h, h_wit = hitting_number(scramble)
    e, e_wit = egg_cut_number(scramble)
    order = h if e is math.inf else min(h, e)
    return ScrambleOrder(order=int(order), hitting=h, egg_cut=e,
                         witness_hitting_set=h_wit, witness_cut=e_wit)


def vertex_scramble(g):
    """Every vertex its own egg; order = min(lambda, n) on connected graphs."""
    return Scramble(g, [{v} for v in range(g.n)])


def edge_scramble(g):
    """One egg per adjacent vertex pair; parallel edges collapse to one egg.

    Its hitting number is n - alpha by vertex-cover duality.
    """
    eggs = [{u, v} for u, v, _ in g.edges()]
    if not eggs:
        raise ValueError("edge scramble needs at least one edge")
    return Scramble(g, eggs)


def product_scramble(g, h, k):
    """The scramble on g [] h whose eggs are canonical g-copies minus (k-1)
    vertex subsets.  Needs kappa(g) >= k >= 1 and |V(g)| >= 2k - 1, which also
    guarantee every egg is connected."""
    if k < 1:
        raise ValueError("k must be >= 1")
    kappa = inv.vertex_connectivity(g)
    if kappa < k:
        raise ValueError("need kappa(G) >= k: kappa = %d < k = %d" % (kappa, k))
    if g.n < 2 * k - 1:
        raise ValueError("need |V(G)| >= 2k - 1: %d < %d" % (g.n, 2 * k - 1))
    if not inv.is_connected(h):
        raise ValueError("need H connected")
    host = mg.cartesian_product(g, h)
    eggs = []
    for w in range(h.n):
        copy = mg.canonical_copy(g, h, "left", w)
        for removed in itertools.combinations(sorted(copy), k - 1):
            eggs.append(copy - frozenset(removed))
    return Scramble(host, eggs)


@dataclass
class BoundReport:
    quantity: str
    lower: int
    upper: int
    lower_source: str
    upper_source: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bound report with lower %d > upper %d" % (self.lower, self.upper))

    @property
    def exact(self):
        return self.lower == self.upper


def _core_sn_bounds(g, gonality_budget, use_brute, max_eggs):
    """Bounds for a connected, smooth, bridgeless-or-tiny graph."""
    lower, lsrc = 0, "trivial"
    order = scramble_order(vertex_scramble(g)).order
    if order > lower:
        lower, lsrc = order, "vertex scramble"
    if g.edge_count() > 0:
        order = scramble_order(edge_scramble(g)).order
        if order > lower:
            lower, lsrc = order, "edge scramble"
    if g.n <= gonality_budget:
        # sn <= gon, so the scramble lower bound is a sound starting degree
        upper, usrc = dv.gonality(g, lower_hint=lower)[0], "gonality"
    else:
        upper, usrc = g.n, "vertex count"
    if use_brute:
        result = brute_force_sn(g, max_eggs=max_eggs)
        if result.value > lower:
            lower, lsrc = result.value, "brute force"
        if result.exact and result.value < upper:
            upper, usrc = result.value, "brute force"
    return BoundReport("sn", lower, upper, lsrc, usrc)


def _split_sn_bounds(g, gonality_budget, use_brute, max_eggs):
    comps = inv.components(g)
    if len(comps) > 1:
        parts = [_split_sn_bounds(mg.induced_subgraph(g, c), gonality_budget, use_brute, max_eggs)
                 for c in comps]
        return _combine_max(parts, "component split")
    smooth = mg.smooth_two_valent(g)
    if smooth.n < g.n:
        g = smooth
    cut_edges = inv.bridges(g)
    if cut_edges and g.n > 2:
        u, v = cut_edges[0]
        side = _bridge_side(g, u, v)
        parts = [_split_sn_bounds(mg.induced_subgraph(g, side), gonality_budget, use_brute, max_eggs),
                 _split_sn_bounds(mg.induced_subgraph(g, set(range(g.n)) - side),
                                  gonality_budget, use_brute, max_eggs)]
        return _combine_max(parts, "bridge split")
    return _core_sn_bounds(g, gonality_budget, use_brute, max_eggs)


def _bridge_side(g, u, v):
    """Vertices on u's side after deleting the bridge uv (u included)."""
    side = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if (x, y) in ((u, v), (v, u)):
                continue
            if y not in side:
                side.add(y)
                stack.append(y)
    return side


def _combine_max(parts, label):
    lower = max(p.lower for p in parts)
    upper = max(p.upper for p in parts)
    pick_l = max(parts, key=lambda p: p.lower)
    pick_u = max(parts, key=lambda p: p.upper)
    return BoundReport("sn", lower, upper,
                       "%s: %s" % (label, pick_l.lower_source),
                       "%s: %s" % (label, pick_u.upper_source))


def sn_bounds(g, extra_scrambles=(), gonality_budget=12, use_brute=False, max_eggs=None):
    """Lower/upper bounds on the scramble number.

    Reduces first (per-component maximum, bridge splitting, smoothing of
    2-valent vertices — all order-preserving), then takes the best scramble
    lower bound and the gonality upper bound within the vertex budget.  User
    scrambles are evaluated on the original graph.  With use_brute the exact
    tiny-graph oracle is folded in.
    """
    report = _split_sn_bounds(g, gonality_budget, use_brute, max_eggs)
    lower, lsrc = report.lower, report.lower_source
    for scramble in extra_scrambles:
        if scramble.host != g:
            raise ValueError("user scramble lives on a different host graph")
        order = scramble_order(scramble).order
        if order > lower:
            lower, lsrc = order, "user scramble"
    upper = max(report.upper, lower)
    return BoundReport("sn", lower, upper, lsrc, report.upper_source)


@dataclass
class BruteForceResult:
    value: int
    witness: Scramble
    exact: bool


def brute_force_sn(g, max_eggs=None):
    """Exact scramble number by exhausting the definition (tiny graphs only).

    sn >= k iff every (k-1)-subset C admits an egg avoiding it, with all
    chosen eggs pairwise either intersecting or separated by cuts >= k.  Any
    such egg may be grown to a full component of G - C: growing preserves
    avoidance and only raises pairwise cuts, so searching over components of
    G - C per constraint C is lossless.  max_eggs caps the witness size; when
    the cap prunes a failed search the result is flagged as a lower bound
    only (exact=False).
    """
    n = g.n
    if n > 16:
        raise ValueError("brute-force oracle is exponential; refusing n > 16")
    full = (1 << n) - 1

    def comp_masks(avoid_mask):
        """Components of the graph minus the avoided vertices, as bitmasks."""
        left = full & ~avoid_mask
        comps = []
        while left:
            v = (left & -left).bit_length() - 1
            comp = 1 << v
            stack = [v]
            left &= ~(1 << v)
            while stack:
                x = stack.pop()
                for y in g.neighbors(x):
                    if left >> y & 1:
                        left &= ~(1 << y)
                        comp |= 1 << y
                        stack.append(y)
            comps.append(comp)
        return comps

    def members(mask):
        return [v for v in range(n) if mask >> v & 1]

    capped = [False]

    def decide(k):
        constraints = [sum(1 << v for v in c)
                       for c in itertools.combinations(range(n), k - 1)]
        options = {c: comp_masks(c) for c in constraints}
        chosen = []

        @lru_cache(maxsize=None)
        def cut_reaches_k(a, b):
            return inv.min_cut_between(g, members(a), members(b), limit=k)[0] >= k

        def compatible(e, f):
            return e & f or cut_reaches_k(min(e, f), max(e, f))

        def backtrack(todo):
            """todo maps each constraint that no chosen egg avoids, in
            constraint order, to its options compatible with every chosen
            egg; the first shortest list is branched on."""
            if not todo:
                return True
            cands = min(todo.values(), key=len)
            if max_eggs is not None and len(set(chosen)) >= max_eggs:
                capped[0] = True
                return False
            for e in cands:
                narrowed = {}
                for c, listed in todo.items():
                    if e & c:
                        listed = [f for f in listed if compatible(f, e)]
                        if not listed:
                            break  # a dead end: no egg is left for c
                        narrowed[c] = listed
                else:
                    chosen.append(e)
                    if backtrack(narrowed):
                        return True
                    chosen.pop()
            return False

        if backtrack(options):
            return [frozenset(members(e)) for e in set(chosen)]
        return None

    best = 1
    witness_eggs = [set(range(n))] if inv.is_connected(g) else [{0}]
    for k in range(2, n + 1):
        capped[0] = False
        eggs = decide(k)
        if eggs is None:
            return BruteForceResult(best, Scramble(g, witness_eggs), not capped[0])
        best, witness_eggs = k, eggs
    return BruteForceResult(best, Scramble(g, witness_eggs), True)
