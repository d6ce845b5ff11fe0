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

import numpy as np

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
        n = host.n
        nbrs = inv._adjacency(host.mult)
        inside = [False] * n
        cleaned = []
        seen = set()
        for egg in eggs:
            fs = frozenset(int(v) for v in egg)
            if not all(0 <= v < n for v in fs):
                raise ValueError("vertex out of range")
            for v in fs:
                inside[v] = True
            connected = bool(fs) and len(inv._bfs(nbrs, min(fs), inside)) == len(fs)
            for v in fs:
                inside[v] = False
            if not connected:
                raise ValueError("egg %s is empty or not connected in the host" % sorted(fs))
            if fs not in seen:
                seen.add(fs)
                cleaned.append(fs)
        if not cleaned:
            raise ValueError("a scramble needs at least one egg")
        # an egg can only strictly contain a smaller one, and every dropped
        # egg contains a kept one, so each egg is compared with the kept
        # eggs of smaller size, kept[:smaller], alone
        cleaned.sort(key=lambda e: (len(e), sorted(e)))
        kept = []
        smaller = 0
        for e in cleaned:
            if kept and len(kept[-1]) < len(e):
                smaller = len(kept)
            if not any(kept[i] < e for i in range(smaller)):
                kept.append(e)
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
    """Exact minimum hitting set; returns (size, witness set).

    The eggs are split into groups, the components of their intersection
    graph, and each group is searched on its own, its eggs in scramble
    order.  Groups share no vertex, so a hitting set meets each group's
    vertices in a hitting set of that group: the minimum is the sum of the
    groups' minima, and the union of their witnesses attains it.  A
    k-product scramble has one group per copy.

    When every egg has two vertices, the eggs are the edges of a graph, and
    a set hits them all iff the rest of the vertices is independent in it:
    h is n minus its alpha, and the witness the complement of a maximum
    independent set, with no search over the eggs."""
    eggs = scramble.eggs
    n = scramble.host.n
    if all(len(egg) == 2 for egg in eggs):
        spanned = mg.from_edge_list(n, [(*egg, 1) for egg in eggs])
        witness = frozenset(range(n)) - inv.max_independent_set(spanned)
        return len(witness), witness
    m = len(eggs)
    # the egg-vertex incidence graph: egg i is node i, vertex v is node m + v;
    # vertices in no egg are left unflagged, so every component holds an egg
    nbrs = [[m + v for v in egg] for egg in eggs] + [[] for _ in range(n)]
    for i, egg in enumerate(eggs):
        for v in egg:
            nbrs[m + v].append(i)
    flagged = [bool(a) for a in nbrs]
    groups = [sorted(x for x in comp if x < m) for comp in inv._flagged_components(nbrs, flagged)]
    size, witness = 0, frozenset()
    for group in groups:
        s, w = _group_hitting_number([eggs[i] for i in group])
        size, witness = size + s, witness | w
    return size, witness


def _group_hitting_number(eggs):
    """Branch and bound for the minimum hitting set of `eggs`, warm-started
    by a greedy cover; returns (size, witness set).  Each step narrows its
    list of missed eggs, in egg order, by the one vertex it adds.

    `eggs` must be sorted by size, as a Scramble's are and `hitting_number`
    keeps them within a group; narrowing keeps the order, so every missed
    list is sorted too: the disjoint-egg bound takes its eggs smallest
    first and the branching egg, a smallest one, is the first."""
    best_set = set()
    # greedy warm start on most-frequent vertices
    missed = list(eggs)
    while missed:
        counts = {}
        for e in missed:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        v = max(sorted(counts), key=counts.get)
        best_set.add(v)
        missed = [e for e in missed if v not in e]
    best, witness = len(best_set), frozenset(best_set)

    def disjoint_lower_bound(missed):
        used = set()
        count = 0
        for e in missed:
            if not e & used:
                count += 1
                used |= e
        return count

    # depth first, children in vertex order, over a stack of (chosen, missed):
    # a witness can hold more vertices than Python allows nested calls
    stack = [((), list(eggs))]
    while stack:
        chosen, missed = stack.pop()
        if not missed:
            if len(chosen) < best:
                best, witness = len(chosen), frozenset(chosen)
        elif len(chosen) + disjoint_lower_bound(missed) < best:
            stack.extend((chosen + (v,), [e for e in missed if v not in e])
                         for v in sorted(missed[0], reverse=True))
    return best, witness


_NO_SET = np.iinfo(np.int64).max


def _spectral_cut_bounds(g):
    """spec[s] <= |boundary(S)| for every vertex set S of size s, s = 0..n:
    Fiedler's bound ceil(a s (n - s) / n), a the algebraic connectivity, the
    second-smallest eigenvalue of the Laplacian diag(deg) - mult (it holds
    with multiplicities as edge weights).

    a is max(0, lambda_2 - 1e-9 (1 + lambda_max)) from one `eigvalsh` call:
    the margin is far above the eigenvalues' rounding error, so a is at most
    the true one and the ceiling never rises past an integral bound, as on
    K_n or Q3.  Unless n**2 times the largest multiplicity is below 2**53,
    the valences may not be exact in float64, and spec is 0 throughout; below
    it every spec[s] is at most the edge count and converts exactly."""
    n = g.n
    if n < 2 or n * n * int(g.mult.max()) >= 2**53:
        return np.zeros(n + 1, dtype=np.int64)
    eig = np.linalg.eigvalsh(np.diag(g.mult.sum(axis=1)) - g.mult)
    a = max(0.0, eig[1] - 1e-9 * (1 + eig[-1]))
    s = np.arange(n + 1)
    return np.ceil(a * (s * (n - s)) / n).astype(np.int64)


def _cut_bound_table(g, member):
    """F[i, s] <= |boundary(S)| for every vertex set S of size s holding egg i
    (its row of the 0/1 egg-vertex matrix `member`); _NO_SET where s is
    below the egg's size.

    Two lower bounds, and F is their maximum.  A vertex v of S has at most
    s - 1 neighbours in S, so at least t_s(v) = deg(v) - (v's s - 1 largest
    multiplicities) of its edges leave S: one bound sums t_s over the egg
    and adds the s - |egg| smallest t_s of all vertices.  The other is the
    spectral bound `_spectral_cut_bounds`, spec[s] for every s-set, its
    eigenvalue lowered by a margin before the ceiling."""
    n = g.n
    deg = g.mult.sum(axis=1)
    # kept[v, j]: the sum of v's j largest multiplicities, j = 0..n-1
    kept = np.zeros((n, n), dtype=np.int64)
    kept[:, 1:] = np.cumsum(-np.sort(-g.mult, axis=1), axis=1)[:, :-1]
    t = np.zeros((n + 1, n), dtype=np.int64)  # t[s, v], row 0 unused
    t[1:] = (deg[:, None] - kept).T
    least = np.zeros((n + 1, n + 1), dtype=np.int64)  # sum of the j smallest t[s]
    least[:, 1:] = np.cumsum(np.sort(t, axis=1), axis=1)
    s = np.arange(n + 1)
    others = s - member.sum(axis=1)[:, None]
    table = np.maximum(member @ t.T + least[s, np.maximum(others, 0)], _spectral_cut_bounds(g))
    table[others < 0] = _NO_SET
    return table


def _pair_bounds(table, i, first):
    """B(i, j) for every egg j from `first` on: the least, over the sizes s
    of the side holding egg i, of max(F[i, s], F[j, n - s]), at most every
    cut separating the two eggs, as both sides of a cut have its boundary.
    F's spectral term is the same for s and n - s and holds for every s-set,
    so B(i, j) takes it in with no change here."""
    return np.maximum(table[i], table[first:, ::-1]).min(axis=1)


def _cut_setup(g, eggs):
    """What the egg-cut flows and bounds of one call read, built once: the
    host's capacity rows and neighbour lists, the 0/1 egg-vertex matrix and
    its `_cut_bound_table`."""
    member = np.zeros((len(eggs), g.n), dtype=np.int64)
    for i, egg in enumerate(eggs):
        member[i, list(egg)] = 1
    return g.mult.tolist(), inv._adjacency(g.mult), member, _cut_bound_table(g, member)


def _least_row_cut(eggs, setup, i, first, best, floor):
    """(min(best, c), side), c the least cut from egg i to a disjoint egg
    from `first` on, and side the maximal source side of the last flow to
    lower the running minimum, or None.  A pair whose `_pair_bounds` reaches
    that minimum runs no flow, the others are capped at it, and the scan
    stops once it is at most `floor`."""
    rows, nbrs, member, table = setup
    bounds = _pair_bounds(table, i, first)
    disjoint = member[first:] @ member[i] == 0
    side = None
    for j in np.flatnonzero(disjoint & (bounds < best)).tolist():
        if bounds[j] >= best:  # the running minimum fell within this row
            continue
        value, cut = inv._min_cut(rows, nbrs, eggs[i], eggs[first + j], best)
        if value < best:
            best, side = value, cut
            if best <= floor:
                break
    return best, side


def _least_edge_egg_cut(g, eggs, setup, limit):
    """min(e, limit), e the minimum egg-cut, for eggs that are exactly the
    adjacent vertex pairs of g (in any order; `setup` is their `_cut_setup`),
    with no flow capped above limit: the restricted edge connectivity of
    Esfahanian and Hakimi.

    In a least egg-cut every vertex of positive valence has a neighbour on
    its own side: moving one that has none across would cut fewer edges and
    leave an egg on each side.  So for one such vertex u, the one with the
    fewest distinct neighbours, the flows from each egg {u, w} to the eggs
    disjoint from it, run in `_least_row_cut`, reach e.  Their running
    minimum starts at the least boundary of an egg with a disjoint egg, an
    egg-cut; where the spectral bound meets it, as on K4 [] K3, Q4,
    C3 [] C4 and C4 [] K3,3, no flow runs."""
    nbrs = setup[1]
    a, b = np.array([sorted(egg) for egg in eggs]).T
    distinct = np.array([len(x) for x in nbrs])
    # {a, b} meets itself and distinct[a] + distinct[b] - 2 other eggs
    has_disjoint = distinct[a] + distinct[b] - 1 < len(eggs)
    if not has_disjoint.any():
        return limit  # no two eggs are disjoint: e is infinite
    deg = g.mult.sum(axis=1)
    best = min(limit, int((deg[a] + deg[b] - 2 * g.mult[a, b])[has_disjoint].min()))
    u = min((v for v in range(g.n) if nbrs[v]), key=lambda v: len(nbrs[v]))
    number = {egg: i for i, egg in enumerate(eggs)}
    for w in nbrs[u]:
        best = _least_row_cut(eggs, setup, number[frozenset((u, w))], 0, best, 0)[0]
    return best


def egg_cut_number(scramble):
    """Minimum egg-cut over disjoint egg pairs, via max-flow with the two
    eggs contracted to source and sink.  (inf, None) when no two eggs are
    disjoint.

    Returns (value, (A, value)) with A the maximal source side of the first
    pair, in egg order, whose cut attains the minimum.  Each egg's flows to
    the later eggs run in `_least_row_cut`, on its pair bounds (degree
    counting and Fiedler's spectral bound), built one egg row at a time, and
    on the rows of `_cut_setup`: a skipped or capped pair cannot cut
    strictly below the running minimum, so cannot replace the witness.

    When the eggs are exactly the adjacent vertex pairs of the host, as in
    `edge_scramble`, the minimum e comes first from the flows at one vertex
    (`_least_edge_egg_cut`).  The scan in egg order then only finds the
    witness: its running minimum starts at e + 1 and it stops at the first
    pair that cuts e."""
    g = scramble.host
    eggs = scramble.eggs
    setup = _cut_setup(g, eggs)
    least, best = 0, math.inf
    if all(len(egg) == 2 for egg in eggs) and len(eggs) == np.count_nonzero(g.mult) // 2:
        least = _least_edge_egg_cut(g, eggs, setup, math.inf)
        if least is math.inf:
            return least, None
        best = least + 1
    witness = None
    for i in range(len(eggs) - 1):
        best, side = _least_row_cut(eggs, setup, i, i + 1, best, least)
        if side is not None:
            witness = (side, best)
            if best == least:
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


def vertex_scramble_order(n, lam):
    """The vertex scramble's order on a connected graph with n vertices and
    edge connectivity lam: min(lam, n), and 1 on a single vertex."""
    return max(1, min(lam, n))


def edge_scramble(g):
    """One egg per adjacent vertex pair; parallel edges collapse to one egg.

    Its hitting number is n - alpha by vertex-cover duality, and its egg-cut
    the restricted edge connectivity, which `egg_cut_number` finds from the
    flows at one vertex.  `_edge_scramble_order` gives the order alone.
    """
    eggs = [{u, v} for u, v, _ in g.edges()]
    if not eggs:
        raise ValueError("edge scramble needs at least one edge")
    return Scramble(g, eggs)


def _edge_scramble_order(g, alpha):
    """scramble_order(edge_scramble(g)).order, min(n - alpha, e), for a g
    with an edge and independence number alpha: no hitting-set search, no
    witness, and no flow capped above n - alpha."""
    eggs = [frozenset(pair) for pair in np.transpose(np.nonzero(np.triu(g.mult))).tolist()]
    return _least_edge_egg_cut(g, eggs, _cut_setup(g, eggs), g.n - alpha)


def _product_k_failure(n, kappa, k):
    """Why the k-deleted product scramble (and its bounds in certify) does not
    apply to a factor G of n vertices and connectivity kappa, or None."""
    if k < 1:
        return "k must be >= 1"
    if kappa < k:
        return "need kappa(G) >= k: kappa = %d < k = %d" % (kappa, k)
    if n < 2 * k - 1:
        return "need |V(G)| >= 2k - 1: %d < %d" % (n, 2 * k - 1)
    return None


def product_scramble(g, h, k):
    """The scramble on g [] h whose eggs are canonical g-copies minus (k-1)
    vertex subsets.  Needs kappa(g) >= k >= 1 and |V(g)| >= 2k - 1, which also
    guarantee every egg is connected."""
    failure = _product_k_failure(g.n, inv.vertex_connectivity(g), k)
    if failure:
        raise ValueError(failure)
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
    """Bounds for a piece of sn_bounds' one pass: connected, smooth, and
    bridgeless (smoothing keeps it so) or on at most two vertices.  Its
    alpha is worked out once; the edge scramble's order is the sandwich's
    scan start (`divisors._scan_start`)."""
    order = vertex_scramble_order(g.n, inv.edge_connectivity(g))
    alpha = inv.independence_number(g)
    if g.n <= gonality_budget:
        (start, upper, _), usrc = dv._sandwich(g, order, alpha), "gonality"
    else:
        start = dv._scan_start(g, order, dv._gonality_upper(g, alpha), alpha)
        upper, usrc = g.n, "vertex count"
    lower, lsrc = (start, "edge scramble") if start > order else (order, "vertex scramble")
    if use_brute:
        result = brute_force_sn(g, max_eggs=max_eggs)
        if result.value > lower:
            lower, lsrc = result.value, "brute force"
        if result.exact and result.value < upper:
            upper, usrc = result.value, "brute force"
    return BoundReport("sn", lower, upper, lsrc, usrc)


def _split_sn_bounds(g, gonality_budget, use_brute, max_eggs):
    parts = []
    for comp in inv.components(g):
        h = mg.smooth_two_valent(mg.induced_subgraph(g, comp))
        cut_edges = inv.bridges(h)
        if not cut_edges or h.n <= 2:
            parts.append(_core_sn_bounds(h, gonality_budget, use_brute, max_eggs))
            continue
        mult = np.array(h.mult)
        for u, v in cut_edges:
            mult[u, v] = mult[v, u] = 0
        pieces = [_core_sn_bounds(mg.smooth_two_valent(mg.induced_subgraph(h, piece)),
                                  gonality_budget, use_brute, max_eggs)
                  for piece in inv.components(mg.Multigraph(mult))]
        parts.append(_combine_max(pieces, "bridge split"))
    return parts[0] if len(parts) == 1 else _combine_max(parts, "component split")


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

    Reduces first, keeping sn: the maximum over the components, and in each
    smoothed component (2-valent vertices suppressed) over the pieces left
    by cutting every bridge at once, each smoothed again.  A piece needs no
    second cut: each edge of it lies on a cycle with no bridge on it, and
    smoothing keeps a bridgeless graph bridgeless.  Each piece then takes
    the best scramble lower bound and the gonality upper bound within the
    vertex budget.  User scrambles are evaluated on the original graph.
    With use_brute the exact tiny-graph oracle is folded in.
    """
    report = _split_sn_bounds(g, gonality_budget, use_brute, max_eggs)
    lower, lsrc = report.lower, report.lower_source
    for scramble in extra_scrambles:
        if scramble.host != g:
            raise ValueError("user scramble lives on a different host graph")
        order = scramble_order(scramble).order
        if order > lower:
            lower, lsrc = order, "user scramble"
    return BoundReport("sn", lower, report.upper, lsrc, report.upper_source)


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
    G - C per constraint C is lossless.  max_eggs, None or at least 1, caps
    the witness size; when the cap prunes a failed search the result is
    flagged as a lower bound only (exact=False).

    Eggs are vertex bitmasks and constraints are numbered in combinations
    order.  Per k the distinct component eggs are numbered by smallest
    member, and each constraint's options, its components, are one bitset
    of egg numbers.  The search branches on the first open constraint with
    the fewest options, found from bitsets of the constraints by option
    count.  Choosing egg i closes the constraints it avoids with one AND
    against its bitset of constraints meeting it.  Of the rest it narrows
    only those offering an egg not yet known to be compatible with i, found
    from per-egg bitsets of the constraints offering it; each is narrowed,
    in constraint order, by one AND with i's bitset of compatible eggs:
    those meeting it, and the disjoint ones whose cut reaches k.  A disjoint
    pair's cut is settled by one `invariants._min_cut` flow the first time a
    narrowing meets it, on capacity rows and neighbour lists built once per
    call and left as they were, with no copy, between the two eggs' vertex
    lists, each built at most once per k.  A branch stops at the first
    constraint it empties, and its narrowings are undone from a trail when
    the search backtracks.
    """
    n = g.n
    if max_eggs is not None and max_eggs < 1:
        raise ValueError("max_eggs must be at least 1, got %d" % max_eggs)
    if n > 16:
        raise ValueError("brute-force oracle is exponential; refusing n > 16")

    rows = g.mult.tolist()
    nbrs = inv._adjacency(g.mult)

    def bits(mask):
        """The positions of the set bits of mask, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def union_tables(values):
        """Tables lo, hi such that lo[m & 255] | hi[m >> 8] is the union of
        values[v] over the vertices v of the vertex mask m."""
        tables = []
        for part in (values[:8], values[8:]):
            table = [0]
            for value in part:
                table += [x | value for x in table]
            tables.append(table)
        return tables

    def holders(masks):
        """For each vertex, the bitset of the positions of the masks
        holding it."""
        held = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        return [int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
                for col in held.T.astype(np.uint8)]

    near_lo, near_hi = union_tables([sum(1 << u for u in a) for a in nbrs])

    def comp_masks(avoid_mask):
        """Components of the graph minus the avoided vertices, as bitmasks
        sorted by smallest member."""
        rest = ((1 << n) - 1) & ~avoid_mask
        out = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                frontier = (near_lo[frontier & 255] | near_hi[frontier >> 8]) & rest & ~comp
                comp |= frontier
            rest &= ~comp
            out.append(comp)
        return out

    capped = [False]

    def decide(k):
        constraints = [sum(c) for c in itertools.combinations([1 << v for v in range(n)], k - 1)]
        comps = [comp_masks(c) for c in constraints]
        eggs = sorted({e for cs in comps for e in cs}, key=lambda e: (e & -e, e))
        number = {e: i for i, e in enumerate(eggs)}
        # options[t]: the eggs constraint t may still take; offers[i]: the
        # constraints whose options hold egg i; by_count[s]: the constraints
        # with s options
        options = []
        offers = [0] * len(eggs)
        by_count = [0] * (n + 1)
        for t, cs in enumerate(comps):
            opts = 0
            for e in cs:
                i = number[e]
                opts |= 1 << i
                offers[i] |= 1 << t
            options.append(opts)
            by_count[len(cs)] |= 1 << t
        # the eggs, and the constraints, meeting a vertex mask
        eggs_lo, eggs_hi = union_tables(holders(eggs))
        held_lo, held_hi = union_tables(holders(constraints))
        # compatible[i]: the eggs known to be compatible with egg i, at first
        # those meeting it; unsettled[i]: the disjoint eggs no flow has
        # settled against it yet
        compatible = [eggs_lo[e & 255] | eggs_hi[e >> 8] for e in eggs]
        everything = (1 << len(eggs)) - 1
        unsettled = [everything ^ meets for meets in compatible]
        trail = []  # (constraint, its options before a narrowing)
        chosen = []
        vertex_lists = [None] * len(eggs)

        def vertices(i):
            """Egg i's vertex list, built on first use."""
            if vertex_lists[i] is None:
                vertex_lists[i] = list(bits(eggs[i]))
            return vertex_lists[i]

        def settle(i, fresh):
            """One flow from egg i to each egg numbered in fresh."""
            side = vertices(i)
            for j in bits(fresh):
                if inv._min_cut(rows, nbrs, side, vertices(j), k)[0] >= k:
                    compatible[i] |= 1 << j
                    compatible[j] |= 1 << i
                unsettled[j] &= ~(1 << i)
            unsettled[i] &= ~fresh

        def replace(t, opts):
            """Set constraint t's options to opts, keeping the index."""
            bit = 1 << t
            by_count[options[t].bit_count()] ^= bit
            by_count[opts.bit_count()] ^= bit
            for j in bits(options[t] ^ opts):
                offers[j] ^= bit
            options[t] = opts

        def undo(mark):
            while len(trail) > mark:
                replace(*trail.pop())

        def choose(i, open_):
            """The constraints left open by choosing egg i, narrowed on the
            trail, or None when one of them is left no egg."""
            open_ &= held_lo[eggs[i] & 255] | held_hi[eggs[i] >> 8]
            offering = 0
            for j in bits(everything & ~compatible[i]):
                offering |= offers[j]
            for t in bits(open_ & offering):
                opts = options[t]
                fresh = opts & unsettled[i]
                if fresh:
                    settle(i, fresh)
                narrowed = opts & compatible[i]
                if narrowed != opts:
                    if not narrowed:
                        return None
                    trail.append((t, opts))
                    replace(t, narrowed)
            return open_

        def branch_options(open_):
            """The options of the first open constraint with fewest options."""
            for group in by_count:
                fewest = open_ & group
                if fewest:
                    return options[(fewest & -fewest).bit_length() - 1]

        def search():
            """Depth first over a stack of frames [options left to try, open
            constraints, trail mark], one per chosen egg and the root, as a
            witness can hold more eggs than Python allows nested calls.
            True when every constraint is closed."""
            open_ = (1 << len(constraints)) - 1
            stack = []
            while open_:
                if max_eggs is not None and len(chosen) >= max_eggs:
                    capped[0] = True
                else:
                    stack.append([branch_options(open_), open_, len(trail)])
                open_ = None
                while open_ is None and stack:
                    frame = stack[-1]
                    undo(frame[2])
                    del chosen[len(stack) - 1:]  # keep the eggs of the frames below
                    if not frame[0]:
                        stack.pop()
                        continue
                    low = frame[0] & -frame[0]
                    frame[0] ^= low
                    i = low.bit_length() - 1
                    open_ = choose(i, frame[1])
                    if open_ is not None:
                        chosen.append(i)
            return open_ is not None

        if search():
            return [frozenset(bits(eggs[i])) for i in chosen]
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
