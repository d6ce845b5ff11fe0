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
            fs = frozenset(map(mg._integer, egg))
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
    by the greedy cover of the eggs by vertices (`invariants._greedy_cover`,
    the least vertex on ties); returns (size, witness set).  Each step
    narrows its list of missed eggs, in egg order, by the one vertex it adds.

    `eggs` must be sorted by size, as a Scramble's are and `hitting_number`
    keeps them within a group; narrowing keeps the order, so every missed
    list is sorted too: the disjoint-egg bound takes its eggs smallest
    first and the branching egg, a smallest one, is the first."""
    vertices = sorted(set().union(*eggs))
    holders = [sum(1 << i for i, egg in enumerate(eggs) if v in egg) for v in vertices]
    picks = inv._greedy_cover(holders, (1 << len(eggs)) - 1)
    best, witness = len(picks), frozenset(vertices[j] for j in picks)

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


class _CutBounds:
    """Lower bounds on the boundaries of one host g's vertex sets.

    A vertex v of a set S of s vertices has at most s - 1 neighbours in S,
    so at least t_s(v) = deg(v) - (v's s - 1 largest multiplicities) of its
    edges leave S: t[v, s - 1] = t_s(v), and least[j - 1, s - 1] is the sum
    of the j smallest t_s.  size[s] <= |boundary(S)| for every S of s
    vertices, s = 0..n: the larger of the degree count, the sum of the s
    smallest t_s, and Fiedler's bound `_spectral_cut_bounds`."""

    __slots__ = ("t", "least", "size")

    def __init__(self, g):
        desc = -np.sort(-g.mult, axis=1)
        kept = np.cumsum(desc, axis=1)
        self.t = kept[:, -1:] - kept + desc
        self.least = np.cumsum(np.sort(self.t, axis=0), axis=0)
        size = np.zeros(g.n + 1, dtype=np.int64)
        size[1:] = self.least.diagonal()
        self.size = np.maximum(size, _spectral_cut_bounds(g))

    def table(self, member):
        """F[i, s] <= |boundary(S)| for every s-set S holding egg i, row i of
        the 0/1 egg-vertex matrix `member`: t_s summed over the egg, plus the
        s - |egg| smallest t_s, raised to size[s]; _NO_SET below |egg|."""
        n = len(self.t)
        s = np.arange(1, n + 1)
        others = s - member.sum(axis=1)[:, None]
        least = np.zeros((n + 1, n), dtype=np.int64)  # least[j, s - 1], from j = 0
        least[1:] = self.least
        table = np.full((len(member), n + 1), _NO_SET)
        table[:, 1:] = np.maximum(member @ self.t + least[np.maximum(others, 0), s - 1], self.size[1:])
        table[:, 1:][others < 0] = _NO_SET
        return table


def _membership(eggs, n):
    """The 0/1 egg-vertex matrix: row i marks the vertices of egg i."""
    member = np.zeros((len(eggs), n), dtype=np.int64)
    for i, egg in enumerate(eggs):
        member[i, list(egg)] = 1
    return member


def _pairwise_meeting(member):
    """Whether every two rows of the 0/1 egg-vertex matrix `member` share a
    vertex: at once where one vertex lies in every egg, else row by row up
    to the first row that misses a later one."""
    if member.all(axis=0).any():
        return True
    return all((member[i + 1:] @ member[i]).all() for i in range(len(member) - 1))


class _EggCuts:
    """What the egg-cut flows and bounds of one call read, built once: the
    host's capacity rows and neighbour lists, the 0/1 egg-vertex matrix
    `member` (`_membership`), and its table from the host's `_CutBounds`."""

    __slots__ = ("g", "eggs", "bounds", "rows", "nbrs", "member", "table", "label", "asked")

    def __init__(self, g, eggs, member, bounds):
        self.g, self.eggs, self.bounds, self.member = g, eggs, bounds, member
        self.rows, self.nbrs = g.mult.tolist(), inv._adjacency(g.mult)
        self.table = bounds.table(member)
        self.label, self.asked = None, 0

    def leads(self, i, j):
        """False, for egg numbers i < j about to run a flow, when an earlier
        pair in egg order lies in the orbit of {i, j} (`_pair_labels`): it
        has the same cut and met a running minimum no lower, so this flow
        cannot lower it.  The labels are built at the second call, so a scan
        with one flow builds none, and never while one of the m x m int64
        arrays, about five at their peak, would take over an eighth of
        `multigraph.MATRIX_BUDGET` (m > 2,048 eggs)."""
        self.asked += 1
        m = len(self.eggs)
        if self.asked == 2 and 64 * m * m <= mg.MATRIX_BUDGET:
            self.label = _pair_labels(self.g, self.member)
        return self.label is None or self.label[i, j] == i * m + j

    def least_row_cut(self, i, others, best, floor, orbits=False):
        """(min(best, c), side), c the least cut from egg i to a disjoint egg
        of `others` (a slice or list of egg numbers), and side the maximal
        source side of the last flow to lower the running minimum, or None.
        A pair {i, j} whose bound, the least over s of max(F[i, s],
        F[j, n - s]) as both sides of a cut have its boundary, reaches that
        minimum runs no flow; the others are capped at it, and the scan
        stops once it is at most `floor`.  With `orbits` a pair runs a flow
        only if `leads(i, j)`: one flow runs per orbit of egg pairs."""
        table, member = self.table, self.member
        bounds = np.maximum(table[i], table[others, ::-1]).min(axis=1)
        disjoint = member[others] @ member[i] == 0
        numbers = range(len(self.eggs))[others] if isinstance(others, slice) else others
        side = None
        for j in np.flatnonzero(disjoint & (bounds < best)).tolist():
            if bounds[j] >= best:  # the running minimum fell within this row
                continue
            k = numbers[j]
            if orbits and not self.leads(i, k):
                continue
            value, cut = inv._min_cut(self.rows, self.nbrs, self.eggs[i], self.eggs[k], best)
            if value < best:
                best, side = value, cut
                if best <= floor:
                    break
        return best, side


def _pair_labels(g, member):
    """label[i, j]: i' m + j' for the least pair i' < j', in egg order, of
    the orbit of the egg pair {i, j} under the host automorphisms of
    `invariants._automorphism_generators` that map the egg set onto itself;
    m is the egg count and `member` the 0/1 egg-vertex matrix.  Labels
    start as each pair's own number and take the least label of the pair's
    image under each generator and its inverse, with a pointer jump, until
    none moves."""
    m = len(member)
    number = {row.tobytes(): i for i, row in enumerate(np.packbits(member, axis=1))}
    moves = []
    for P in inv._automorphism_generators(g):
        # egg i goes to the egg holding P[v] for each v in egg i
        moved = np.packbits(member[:, np.argsort(P)], axis=1)
        to = [number.get(row.tobytes()) for row in moved]
        if None not in to:
            moves += [np.array(to), np.argsort(to)]
    index = np.arange(m * m).reshape(m, m)
    label, last = np.minimum(index, index.T), None  # label[j, i] = label[i, j]
    while moves and not np.array_equal(label, last):
        last = label
        for to in moves:
            label = np.minimum(label, label[np.ix_(to, to)])
        label = label.ravel()[label]
    return label


def _least_edge_egg_cut(g, limit, cuts=None):
    """min(e, limit), e the minimum egg-cut, for eggs that are exactly the
    adjacent vertex pairs of g, with no flow capped above limit: the
    restricted edge connectivity of Esfahanian and Hakimi.  `cuts`, the
    caller's `_EggCuts` of those eggs in any order, lends its `_CutBounds`;
    without it the eggs and their `_EggCuts` are built only where a flow
    runs.

    The running minimum xi starts at the least boundary of an egg with a
    disjoint egg, an egg-cut.  A side of an egg-cut holds an egg, and a
    side of two or n - 2 vertices is one, with a disjoint egg across: its
    boundary is at least xi.  So where the size bounds of every other
    split, max(size[s], size[n - s]) for 3 <= s <= n - 3, reach xi, e is
    xi and no flow runs, as on K4 [] K3, Q3, Q4, C3 [] C4 and Petersen; a
    host of at most five vertices has no other split at all.

    In a least egg-cut every vertex of positive valence has a neighbour on
    its own side: moving one that has none across would cut fewer edges and
    leave an egg on each side.  Take u with the fewest distinct neighbours
    and its neighbour v with the fewest.  A least egg-cut either keeps u
    and v on one side, and then separates the egg {u, v} from an egg
    disjoint from it, one `least_row_cut` row; or splits them, and then
    separates some egg {u, w} from some egg {v, x}, the (d(u) - 1)(d(v) - 1)
    pairs of the split rows."""
    distinct = np.count_nonzero(g.mult, axis=1)
    a, b = np.nonzero(np.triu(g.mult))  # the eggs
    # {a, b} meets itself and distinct[a] + distinct[b] - 2 other eggs
    has_disjoint = distinct[a] + distinct[b] - 1 < len(a)
    if not has_disjoint.any():
        return limit  # no two eggs are disjoint: e is infinite
    deg = g.mult.sum(axis=1)
    best = min(limit, int((deg[a] + deg[b] - 2 * g.mult[a, b])[has_disjoint].min()))
    n = g.n
    if n < 6:
        return best
    bounds = _CutBounds(g) if cuts is None else cuts.bounds
    if (np.maximum(bounds.size, bounds.size[::-1])[3:n - 2] >= best).all():
        return best
    if cuts is None:
        eggs = [frozenset(pair) for pair in zip(a.tolist(), b.tolist())]
        cuts = _EggCuts(g, eggs, _membership(eggs, n), bounds)
    u = min(np.flatnonzero(distinct).tolist(), key=distinct.__getitem__)
    v = min(cuts.nbrs[u], key=distinct.__getitem__)
    number = {egg: i for i, egg in enumerate(cuts.eggs)}
    best = cuts.least_row_cut(number[frozenset((u, v))], slice(None), best, 0)[0]
    at_v = [number[frozenset((v, x))] for x in cuts.nbrs[v]]
    for w in cuts.nbrs[u]:
        if w != v:
            best = cuts.least_row_cut(number[frozenset((u, w))], at_v, best, 0)[0]
    return best


def egg_cut_number(scramble):
    """Minimum egg-cut over disjoint egg pairs, via max-flow with the two
    eggs contracted to source and sink.  (inf, None) when no two eggs are
    disjoint (`_pairwise_meeting`), before any bound is built.

    Returns (value, (A, value)) with A the maximal source side of the first
    pair, in egg order, whose cut attains the minimum.  Each egg's flows to
    the later eggs run in `_EggCuts.least_row_cut`, on the egg table of the
    host's `_CutBounds` (degree counting raised to the size bounds, which
    take in Fiedler's spectral bound), one flow per orbit of egg pairs
    under the host automorphisms that map the egg set onto itself
    (`_EggCuts.leads`).  A skipped or capped pair cannot cut strictly below
    the running minimum, so cannot replace the witness.

    When the eggs are exactly the adjacent vertex pairs of the host, as in
    `edge_scramble`, the minimum e comes first from `_least_edge_egg_cut`
    on the same `_EggCuts`: from the size bounds alone, or from the flows
    of one split edge.  The scan in egg order then only finds the witness:
    its running minimum starts at e + 1 and it stops at the first pair that
    cuts e."""
    g = scramble.host
    eggs = scramble.eggs
    member = _membership(eggs, g.n)
    if _pairwise_meeting(member):
        return math.inf, None
    cuts = _EggCuts(g, eggs, member, _CutBounds(g))
    least, best = 0, math.inf
    if all(len(egg) == 2 for egg in eggs) and len(eggs) == np.count_nonzero(g.mult) // 2:
        least = _least_edge_egg_cut(g, math.inf, cuts)
        best = least + 1
    witness = None
    for i in range(len(eggs) - 1):
        best, side = cuts.least_row_cut(i, slice(i + 1, None), best, least, orbits=True)
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
    size bounds of the host's `_CutBounds` or from Esfahanian and Hakimi's
    split of one edge (`_least_edge_egg_cut`), on one `_EggCuts` of its
    eggs.  `_edge_scramble_order` gives the order alone.
    """
    eggs = [{u, v} for u, v, _ in g.edges()]
    if not eggs:
        raise ValueError("edge scramble needs at least one edge")
    return Scramble(g, eggs)


def _edge_scramble_order(g, alpha):
    """scramble_order(edge_scramble(g)).order, min(n - alpha, e), for a g
    with an edge and independence number alpha: no hitting-set search, no
    witness, and no flow capped above n - alpha."""
    return _least_edge_egg_cut(g, g.n - alpha)


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


def _core_sn_bounds(g, gonality_budget, use_brute):
    """Bounds for a piece of sn_bounds' one pass: connected, smooth, and
    bridgeless (smoothing keeps it so) or on at most two vertices.  The
    edge scramble's order is the sandwich's scan start
    (`divisors._scan_bounds`), which works out alpha only where it reads it.
    Over the budget no degree is scanned, and the upper bound is the
    sandwich's own: the least of genus + 1, n - alpha (simple) and n."""
    order = vertex_scramble_order(g.n, inv.edge_connectivity(g))
    if g.n <= gonality_budget:
        (start, upper, _), usrc = dv._sandwich(g, order), "gonality"
    else:
        (_, start, upper), usrc = dv._scan_bounds(g, order), "positive-rank bound"
    lower, lsrc = (start, "edge scramble") if start > order else (order, "vertex scramble")
    if use_brute:
        result = brute_force_sn(g)
        if result.value > lower:
            lower, lsrc = result.value, "brute force"
        if result.value < upper:
            upper, usrc = result.value, "brute force"
    return BoundReport("sn", lower, upper, lsrc, usrc)


def _split_sn_bounds(g, gonality_budget, use_brute):
    parts = []
    for comp in inv.components(g):
        h = mg.smooth_two_valent(mg.induced_subgraph(g, comp))
        cut_edges = inv.bridges(h)
        if not cut_edges or h.n <= 2:
            parts.append(_core_sn_bounds(h, gonality_budget, use_brute))
            continue
        mult = np.array(h.mult)
        for u, v in cut_edges:
            mult[u, v] = mult[v, u] = 0
        pieces = [_core_sn_bounds(mg.smooth_two_valent(mg.induced_subgraph(h, piece)),
                                  gonality_budget, use_brute)
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


def sn_bounds(g, extra_scrambles=(), gonality_budget=12, use_brute=False):
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
    if gonality_budget < 0:
        raise ValueError("gonality budget must be >= 0, got %d" % gonality_budget)
    report = _split_sn_bounds(g, gonality_budget, use_brute)
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
    """`brute_force_sn`'s answer.  exact is always True, and stays while
    perfbench's `check_brute` and self-test read it (ROADMAP item 12)."""
    value: int
    witness: Scramble
    exact: bool


def _boundary_table(g):
    """delta[S] = |boundary(S)|, multiplicities counted, for every vertex
    mask S of g (bit v for vertex v), by doubling: the masks holding v
    follow the 2**v below it, each the mask without v plus deg(v) less twice
    v's multiplicity into it, read from a table doubled the same way over
    the vertices below v.  O(n 2**n) int64 entries, none of which can wrap:
    `Multigraph` keeps the multiplicities' total below 2**63."""
    deg = g.mult.sum(axis=1)
    delta = np.zeros(1, dtype=np.int64)
    for v in range(g.n):
        into = np.zeros(1, dtype=np.int64)  # into[S]: v's multiplicity into S
        for u in range(v):
            into = np.concatenate((into, into + g.mult[v, u]))
        delta = np.concatenate((delta, delta + deg[v] - 2 * into))
    return delta


def _holding(masks, n):
    """holds[S] for every vertex mask S of n bits: whether S holds one of
    `masks` (an int64 array), one pass per vertex."""
    holds = np.zeros(1 << n, dtype=bool)
    holds[masks] = True
    for v in range(n):
        halves = holds.reshape(-1, 2, 1 << v)
        halves[:, 1] |= halves[:, 0]
    return holds


def brute_force_sn(g):
    """Exact scramble number by exhausting the definition (tiny graphs only).

    sn >= k iff every (k-1)-subset C admits an egg avoiding it, with all
    chosen eggs pairwise either intersecting or separated by cuts >= k.  Any
    such egg may be grown to a full component of G - C: growing preserves
    avoidance and only raises pairwise cuts, so searching over components of
    G - C per constraint C is lossless.  The result is always exact.

    No flow runs.  `_boundary_table` gives every vertex set's boundary once
    per call, and at each k the light cuts are the sets S holding vertex 0
    with |boundary(S)| < k and a whole component egg inside S and another
    inside V - S.  By max-flow/min-cut two disjoint eggs cut below k exactly
    when a light cut holds one inside S and the other inside V - S, so a
    family of eggs is pairwise compatible exactly when each light cut has a
    whole egg of it on at most one side.  sn >= k is decided by `orient`, a
    depth-first search that closes one side of each light cut in turn,
    branching only where both sides still hold a live egg, one that no
    closed side holds whole, and tests every constraint's options after
    each choice, until every constraint keeps a live egg.

    The witness is the live eggs of the orientation that passes at the
    largest k: no light cut has a whole live egg on each side, so they are
    pairwise compatible at k, and every constraint keeps one, so no k - 1
    vertices hit them all.  Eggs are vertex bitmasks, numbered per k by
    smallest member, and each constraint's options, its components, and
    the live eggs are bitsets of egg numbers.
    """
    n = g.n
    if n > 16:
        raise ValueError("brute-force oracle is exponential; refusing n > 16")
    full = (1 << n) - 1
    delta = _boundary_table(g)

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

    near_lo, near_hi = union_tables([sum(1 << u for u in a) for a in inv._adjacency(g.mult)])

    def comp_masks(avoid_mask):
        """Components of the graph minus the avoided vertices, as bitmasks
        sorted by smallest member."""
        rest = full & ~avoid_mask
        out = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                frontier = (near_lo[frontier & 255] | near_hi[frontier >> 8]) & rest & ~comp
                comp |= frontier
            rest &= ~comp
            out.append(comp)
        return out

    def orient(k):
        """The live egg masks of an orientation of k's light cuts that
        leaves every (k - 1)-set constraint a live egg, so sn >= k, or None
        when none does.  Depth first over a stack of (next cut, live eggs):
        a cut with a live egg on each side branches on the side it closes,
        which kills the live eggs whole in it, and a branch lives while
        every constraint keeps a live option."""
        constraints = [sum(c) for c in itertools.combinations([1 << v for v in range(n)], k - 1)]
        comps = [comp_masks(c) for c in constraints]
        eggs = sorted({e for cs in comps for e in cs}, key=lambda e: (e & -e, e))
        number = {e: i for i, e in enumerate(eggs)}
        options = [sum(1 << number[e] for e in cs) for cs in comps]
        everything = (1 << len(eggs)) - 1
        # the light cuts, as the side S holding vertex 0, with a whole egg on
        # each side; inside[c] and outside[c]: the eggs whole in S and in V - S
        holds = _holding(np.array(eggs, dtype=np.int64), n)
        sides = np.arange(1, full, 2)
        sides = sides[(delta[1:full:2] < k) & holds[1:full:2] & holds[full - 1:0:-2]].tolist()
        # holders[v]: the bitset of the eggs holding vertex v
        held = (np.array(eggs, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        holders = [int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
                   for col in held.T.astype(np.uint8)]
        eggs_lo, eggs_hi = union_tables(holders)
        inside = [everything & ~(eggs_lo[(full ^ s) & 255] | eggs_hi[(full ^ s) >> 8]) for s in sides]
        outside = [everything & ~(eggs_lo[s & 255] | eggs_hi[s >> 8]) for s in sides]
        stack = [(0, everything)]
        while stack:
            c, live = stack.pop()
            while c < len(sides) and not (inside[c] & live and outside[c] & live):
                c += 1
            if c == len(sides):
                return [eggs[i] for i in inv._bits(live)]
            for closed in (inside[c], outside[c]):
                left = live & ~closed
                if all(opts & left for opts in options):
                    stack.append((c + 1, left))
        return None

    def witness(masks):
        """The Scramble of the egg masks, built from the minimal ones, as
        Scramble would keep: `_holding` marks the vertex masks holding one
        of them, and an egg is dropped where removing one of its vertices
        leaves a marked mask."""
        masks = np.unique(np.array(masks, dtype=np.int64))
        holds = _holding(masks, n)
        inner = np.zeros(len(masks), dtype=bool)
        for v in range(n):
            inner |= (masks >> v & 1).astype(bool) & holds[masks & ~(1 << v)]
        return Scramble(g, [frozenset(inv._bits(m)) for m in masks[~inner].tolist()])

    best = 1
    witness_masks = [full] if inv.is_connected(g) else [1]
    for k in range(2, n + 1):
        masks = orient(k)
        if masks is None:
            break
        best, witness_masks = k, masks
    return BruteForceResult(best, witness(witness_masks), True)
