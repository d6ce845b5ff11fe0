"""Slow, independent reference implementations used only to cross-check the
library.  Everything here exhausts definitions directly (bitmask subsets,
multiset enumeration, exact rational linear algebra, Dhar's burn in Python
integers) and shares no search logic with the package under test, except
the earlier forms of package routines kept as references for their exact
outputs: `all_pairs_egg_cut_number`, `restart_smooth_two_valent`,
`recounting_box_chunks`, `sweep_brute_force_sn` and `eager_factor_stats`.
"""

import contextlib
import functools
import itertools
import math
import types
from fractions import Fraction

import networkx as nx
import numpy as np

from scramblegon import certify as ct
from scramblegon import divisors as dv
from scramblegon import invariants as inv
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc


def brute_alpha(g):
    """Independence number by exhausting all vertex subsets."""
    n = g.n
    best = 0
    for mask in range(1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if len(verts) <= best:
            continue
        if all(g.mult[u, v] == 0 for u, v in itertools.combinations(verts, 2)):
            best = len(verts)
    return best


def brute_hitting_number(host_n, eggs):
    """Minimum hitting-set size over all subsets, smallest first."""
    eggs = [frozenset(e) for e in eggs]
    for size in range(host_n + 1):
        for hit in itertools.combinations(range(host_n), size):
            s = set(hit)
            if all(s & e for e in eggs):
                return size
    raise AssertionError("unhittable scramble")


def brute_egg_cut(g, eggs):
    """Minimum egg-cut by exhausting all bipartitions of the host."""
    eggs = [frozenset(e) for e in eggs]
    n = g.n
    best = math.inf
    for mask in range(1, (1 << n) - 1):
        a = {v for v in range(n) if mask >> v & 1}
        b = set(range(n)) - a
        if any(e <= a for e in eggs) and any(e <= b for e in eggs):
            best = min(best, inv.edge_boundary(g, a))
    return best


def least_boundaries(g):
    """The least edge boundary |E(S, S^C)| over the vertex sets S of each
    size s = 0..n, by exhausting all subsets in Python integers."""
    n = g.n
    rows = g.mult.tolist()
    best = [math.inf] * (n + 1)
    for mask in range(1 << n):
        inside = [v for v in range(n) if mask >> v & 1]
        outside = [v for v in range(n) if not mask >> v & 1]
        cut = sum(rows[u][v] for u in inside for v in outside)
        best[len(inside)] = min(best[len(inside)], cut)
    return best


def brute_vertex_connectivity(g):
    """kappa of the underlying simple graph by removing vertex subsets,
    smallest first, until the rest is disconnected; n - 1 when no subset of
    at most n - 2 vertices does it (complete graphs and n = 1)."""
    n = g.n
    adj = [sum(1 << v for v in range(n) if g.mult[u, v]) for u in range(n)]
    for size in range(n - 1):
        for removed in itertools.combinations(range(n), size):
            rest = (1 << n) - 1
            for v in removed:
                rest &= ~(1 << v)
            seen = rest & -rest
            frontier = seen
            while frontier:
                v = frontier.bit_length() - 1
                frontier &= ~(1 << v)
                new = adj[v] & rest & ~seen
                seen |= new
                frontier |= new
            if seen != rest:
                return size
    return n - 1


def networkx_connectivity(g):
    """(edge connectivity, vertex connectivity, bridges) from networkx:
    stoer_wagner with multiplicities as weights, node_connectivity on the
    underlying simple graph and its bridges of multiplicity 1; 0 and 0 on one
    vertex or a disconnected graph."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for u, v, k in g.edges():
        nxg.add_edge(u, v, weight=k)
    cut_edges = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(nxg) if g.mult[u, v] == 1)
    if g.n == 1 or not nx.is_connected(nxg):
        return 0, 0, cut_edges
    return int(nx.stoer_wagner(nxg)[0]), nx.node_connectivity(nxg), cut_edges


def networkx_graph(g):
    """The underlying simple graph of g as an nx.Graph on 0..n-1."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u, v) for u, v, _ in g.edges())
    return nxg


def networkx_components(g, vertices):
    """Components of the subgraph induced on `vertices`, sorted by smallest
    member, from networkx."""
    sub = networkx_graph(g).subgraph(vertices)
    return sorted((frozenset(c) for c in nx.connected_components(sub)), key=min)


def networkx_complete_bipartite_parts(g):
    """(m, n) with m <= n when g is simple, connected, bipartite and has every
    edge between its two colour classes, from networkx; else None."""
    nxg = networkx_graph(g)
    if g.n < 2 or not g.is_simple() or not nx.is_connected(nxg) or not nx.is_bipartite(nxg):
        return None
    a, b = nx.bipartite.sets(nxg)
    if nxg.number_of_edges() != len(a) * len(b):
        return None
    return tuple(sorted((len(a), len(b))))


def networkx_min_cut(g, side_a, side_b):
    """(value, source side) of networkx's minimum cut with side_a and side_b
    contracted to a super source and a super sink of infinite capacity.  g is
    a multigraph, or capacity rows read as a digraph: lists, or dicts such as
    the split digraph of `vertex_connectivity`."""
    if isinstance(g, mg.Multigraph):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        for u, v, k in g.edges():
            nxg.add_edge(u, v, capacity=k)
    else:
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(len(g)))
        for u, row in enumerate(g):
            for v, k in (row.items() if isinstance(row, dict) else enumerate(row)):
                if k:
                    nxg.add_edge(u, v, capacity=k)
    big = sum(k for _, _, k in nxg.edges(data="capacity")) + 1
    for v in side_a:
        nxg.add_edge("src", v, capacity=big)
    for v in side_b:
        nxg.add_edge(v, "dst", capacity=big)
    value, (src_side, _) = nx.minimum_cut(nxg, "src", "dst")
    return int(value), frozenset(v for v in src_side if v != "src")


@contextlib.contextmanager
def counted_flows():
    """The (side_a, side_b) of every `invariants._min_cut` call made inside
    the block."""
    flows = []
    cut = inv._min_cut

    def counted(*args):
        flows.append(args[2:4])
        return cut(*args)

    inv._min_cut = counted
    try:
        yield flows
    finally:
        inv._min_cut = cut


def networkx_egg_cut_number(scramble):
    """Minimum egg-cut and its witness with one uncapped networkx flow per
    disjoint egg pair, the first minimal pair in egg order giving the side."""
    best, witness = math.inf, None
    for a, b in itertools.combinations(scramble.eggs, 2):
        if not a & b:
            value, side = networkx_min_cut(scramble.host, a, b)
            if value < best:
                best, witness = value, (side, value)
    return best, witness


def all_pairs_egg_cut_number(scramble):
    """`scrambles.egg_cut_number` with no bound and no symmetry: one flow
    per disjoint egg pair in egg order, the full edge scramble included,
    each capped at the running minimum, the first pair attaining the
    minimum giving the witness."""
    g = scramble.host
    rows = g.mult.tolist()
    nbrs = inv._adjacency(g.mult)
    best = math.inf
    witness = None
    for a, b in itertools.combinations(scramble.eggs, 2):
        if not a & b:
            value, side = inv._min_cut(rows, nbrs, a, b, best)
            if value < best:
                best = value
                witness = (frozenset(side), value)
                if best == 0:
                    return best, witness
    return best, witness


def dhar_burned(g, chips, q):
    """Dhar's burn from q by its definition, in Python integers: a vertex
    catches fire once its edges to burning vertices outnumber its chips.
    Returns one flag per vertex; chips[q] is never read."""
    mult = g.mult.tolist()
    burned = [v == q for v in range(g.n)]
    spread = True
    while spread:
        spread = False
        for v in range(g.n):
            if not burned[v] and sum(k for k, b in zip(mult[v], burned) if b) > int(chips[v]):
                burned[v] = spread = True
    return burned


def q_reduced(g, chips, q):
    """The q-reduced divisor equivalent to `chips` on a connected g, as a list
    of Python integers, by one firing at a time.  Debt off q is cleared from
    the layer farthest from q inward: a firing of the vertices nearer to q
    than that layer hands each of its vertices a chip and touches no farther
    one.  Then the vertices `dhar_burned` leaves unburned fire until a fire
    from q burns them all."""
    mult = g.mult.tolist()
    chips = [int(c) for c in chips]
    dist, queue = {q: 0}, [q]
    for v in queue:
        for u, k in enumerate(mult[v]):
            if k and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)

    def fire(members):
        for v in members:
            for u, k in enumerate(mult[v]):
                if u not in members:
                    chips[v] -= k
                    chips[u] += k

    while True:
        debt = [dist[v] for v, c in enumerate(chips) if v != q and c < 0]
        if not debt:
            break
        fire({v for v in dist if dist[v] < max(debt)})
    while True:
        burned = dhar_burned(g, chips, q)
        if all(burned):
            return chips
        fire({v for v, b in enumerate(burned) if not b})


@functools.lru_cache(maxsize=None)
def _reduced_laplacian_adjugate(g):
    """(adj, det) of the reduced Laplacian L~ of a connected g (the Laplacian
    without its last row and column), by exact rational Gauss-Jordan
    elimination: adj = det * inverse(L~)."""
    m = g.n - 1
    lap = (np.diag(g.valences()) - g.mult).tolist()
    rows = [[Fraction(x) for x in lap[i][:m]] + [Fraction(int(i == j)) for j in range(m)]
            for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = next((i for i in range(col, m) if rows[i][col] != 0), None)
        if piv is None:
            raise ValueError("the Laplacian oracle needs a connected graph")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        rows[col] = [x / pv for x in rows[col]]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [[int(det * x) for x in row[m:]] for row in rows], int(det)


def laplacian_equivalent(g, chips_a, chips_b):
    """Divisor equivalence decided by exact integer linear algebra.

    Two divisors are equivalent iff their difference d is L f for an integer
    firing vector f.  On a connected graph the Laplacian L has corank one
    with kernel spanned by the all-ones vector, so f may fix its last entry
    at 0: the other rows ask L~ f' = r, with r = d without its last entry,
    and the last row follows once deg d = 0.  The unique rational solution
    adj(L~) r / det(L~) is integral iff adj(L~) r = 0 mod det(L~); adj and
    det are computed once per graph.
    """
    d = [int(a) - int(b) for a, b in zip(chips_a, chips_b)]
    if sum(d) != 0:
        return False
    adj, det = _reduced_laplacian_adjugate(g)
    r = d[:-1]
    return all(sum(a * x for a, x in zip(row, r)) % det == 0 for row in adj)


def basepoint_positive_rank(divisor):
    """Positive rank by the q-reduced forms of `q_reduced`: D - (q) is
    equivalent to an effective divisor exactly when the q-reduced form of D
    keeps a chip on q, so D has positive rank when that holds at every
    vertex q."""
    g = divisor.graph
    return all(q_reduced(g, divisor.chips, q)[q] >= 1 for q in range(g.n))


def unpruned_gonality(g):
    """Gonality by enumerating every effective divisor as a vertex multiset,
    no pruning of any kind."""
    n = g.n
    for degree in itertools.count(1):
        for probe in itertools.combinations_with_replacement(range(n), degree):
            chips = np.zeros(n, dtype=np.int64)
            for v in probe:
                chips[v] += 1
            if dv.has_positive_rank(dv.Divisor(g, chips)):
                return degree


def connected_graph_corpus(max_n=5, max_edges=8):
    """All connected simple graphs with at most max_n vertices and max_edges
    edges, one representative per isomorphism class: the first edge mask of
    the class, its bit i standing for the i-th pair of combinations order.
    Masks are classed by their least image under the vertex permutations,
    found for every mask at once."""
    graphs = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        position = {pair: i for i, pair in enumerate(pairs)}
        bits = (np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1
        least = np.full(len(bits), np.iinfo(np.int64).max)
        for perm in itertools.permutations(range(n)):
            moved = [1 << position[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
            np.minimum(least, bits @ np.array(moved, dtype=np.int64), out=least)
        seen = set()
        for mask in np.flatnonzero(bits.sum(axis=1) <= max_edges).tolist():
            if least[mask] in seen:
                continue
            seen.add(least[mask])
            edges = [(u, v, 1) for i, (u, v) in enumerate(pairs) if mask >> i & 1]
            g = mg.from_edge_list(n, edges)
            if inv.is_connected(g):
                graphs.append(g)
    return graphs


def petersen():
    """The Petersen graph: an outer 5-cycle, an inner pentagram and five
    spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return mg.from_edge_list(10, [(u, v, 1) for u, v in outer + inner + spokes])


def brute_automorphisms(g):
    """Every automorphism of g, as a tuple P (v -> P[v]), by trying every
    vertex permutation; n <= 7."""
    if g.n > 7:
        raise ValueError("brute_automorphisms tries n! permutations; refusing n > 7")
    return [p for p in itertools.permutations(range(g.n))
            if np.array_equal(g.mult[np.ix_(p, p)], g.mult)]


def restart_smooth_two_valent(g):
    """Suppress 2-valent vertices with two distinct neighbors, restarting the
    scan from the first vertex after every suppression, until a full scan
    suppresses none."""
    mult = np.array(g.mult)
    alive = list(range(g.n))
    changed = True
    while changed:
        changed = False
        for i, v in enumerate(alive):
            row = mult[v][alive]
            if row.sum() == 2 and np.count_nonzero(row) == 2:
                u, w = [alive[j] for j in np.nonzero(row)[0]]
                mult[u, w] += 1
                mult[w, u] += 1
                mult[v, :] = 0
                mult[:, v] = 0
                alive.pop(i)
                changed = True
                break
    return mg.Multigraph(mult[np.ix_(alive, alive)])


def random_connected_multigraph(rng, n, p, max_mult=3):
    """Rejection-sample a connected multigraph, each present edge with a
    multiplicity drawn from 1..max_mult."""
    while True:
        edges = [(u, v, rng.randint(1, max_mult))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        g = mg.from_edge_list(n, edges)
        if inv.is_connected(g):
            return g


def random_connected_graph(rng, n, p):
    """Rejection-sample a connected simple graph with fresh seeds."""
    while True:
        g = mg.random_graph(n, p, seed=rng.randrange(1 << 30))
        if inv.is_connected(g):
            return g


def lex_least_gonality_witness(g):
    """(gonality, chips) of the 0-reduced positive-rank divisor of minimal
    degree with the lexicographically least chips[1:], found by 0-reducing
    every effective divisor of each degree, enumerated as vertex multisets,
    with `q_reduced` and `basepoint_positive_rank`."""
    n = g.n
    for degree in itertools.count(1):
        reduced = set()
        for probe in itertools.combinations_with_replacement(range(n), degree):
            chips = [0] * n
            for v in probe:
                chips[v] += 1
            reduced.add(tuple(q_reduced(g, chips, 0)))
        witnesses = [c for c in reduced if basepoint_positive_rank(dv.Divisor(g, c))]
        if witnesses:
            return degree, list(min(witnesses, key=lambda c: c[1:]))


def omitted_product_statements(g, h):
    """For each pair (gon(G), gon(H)) that factors of these shapes could have
    (1 on a tree, else max(2, min(lam, n)) to n), the (id, value) of each
    product statement the certifier leaves out, in each orientation (G, H)
    whose hypotheses hold, from networkx invariants (delta the least weighted
    degree):
    - tree-times-tight: G a tree and gon(H) = lam(H) give
      min(|V(H)|, lam(H)|V(G)|);
    - high-connectivity-gonk: kappa(G) >= gon(G) = k, |V(G)| >= 2k - 1,
      lam(G) >= (k-1)lam(H) and k|V(H)| <= |V(G)|lam(H) give k|V(H)|;
    - biconnected-gon2: kappa(G) >= 2, gon(G) = 2, 2|V(H)| <= |V(G)|lam(H)
      and 2|V(H)| <= |V(G)|lam(H) + 2delta(G) - 2lam(H) give 2|V(H)|;
    - biconnected-tight: kappa(G) >= 2, gon(H) = lam(H),
      |V(G)|lam(H) <= 2|V(H)| and lam(H) <= delta(G) give |V(G)|lam(H);
    - high-connectivity-tight: gon(H) = lam(H) and some k with
      kappa(G) >= k >= 1, |V(G)| >= 2k - 1, lam(G) >= (k-1)lam(H) and
      |V(G)|lam(H) <= k|V(H)| give |V(G)|lam(H);
    - one-vertex-factor: |V(G)| = 1 and gon(H) = max(1, min(lam(H), |V(H)|))
      give gon(H)."""
    sides = []
    for f in (g, h):
        lam, kappa, _ = networkx_connectivity(f)
        weighted = nx.Graph()
        weighted.add_nodes_from(range(f.n))
        weighted.add_weighted_edges_from(f.edges())
        tree = f.is_simple() and nx.is_tree(weighted)
        delta = min(d for _, d in weighted.degree(weight="weight"))
        sides.append((f, lam, kappa, delta, tree,
                      [1] if tree else range(max(2, min(lam, f.n)), f.n + 1)))
    result = {}
    for gons in itertools.product(sides[0][5], sides[1][5]):
        values = []
        for i in (0, 1):
            (a, lam_a, kappa_a, delta_a, tree_a, _), (b, lam_b, _, _, _, _) = sides[i], sides[1 - i]
            k, gon_b = gons[i], gons[1 - i]
            if tree_a and gon_b == lam_b:
                values.append(("tree-times-tight", min(b.n, lam_b * a.n)))
            if kappa_a >= k and a.n >= 2 * k - 1 and lam_a >= (k - 1) * lam_b and k * b.n <= a.n * lam_b:
                values.append(("high-connectivity-gonk", k * b.n))
            if (kappa_a >= 2 and k == 2 and 2 * b.n <= a.n * lam_b
                    and 2 * b.n <= a.n * lam_b + 2 * delta_a - 2 * lam_b):
                values.append(("biconnected-gon2", 2 * b.n))
            if kappa_a >= 2 and gon_b == lam_b and a.n * lam_b <= 2 * b.n and lam_b <= delta_a:
                values.append(("biconnected-tight", a.n * lam_b))
            if gon_b == lam_b and any(a.n >= 2 * j - 1 and lam_a >= (j - 1) * lam_b
                                      and a.n * lam_b <= j * b.n for j in range(1, kappa_a + 1)):
                values.append(("high-connectivity-tight", a.n * lam_b))
            if a.n == 1 and gon_b == max(1, min(lam_b, b.n)):
                values.append(("one-vertex-factor", gon_b))
        result[gons] = values
    return result


def eager_factor_stats(g, budget):
    """`certify._stats` as it computed every factor invariant up front, the
    gonality sandwich included (and its CandidateBudgetError with it), with
    the shape tests the statements read; HypothesisError if g is
    disconnected."""
    if not inv.is_connected(g):
        raise ct.HypothesisError("both factors must be connected")
    lam = inv.edge_connectivity(g)
    gon = dv._sandwich(g, sc.vertex_scramble_order(g.n, lam))[1] if g.n <= budget else None
    return types.SimpleNamespace(
        graph=g, n=g.n, lam=lam, kappa=inv.vertex_connectivity(g), delta=inv.min_degree(g),
        gon=gon, tree=g.is_simple() and g.edge_count() == g.n - 1,
        complete_simple=g.n >= 2 and g.is_simple() and g.edge_count() == g.n * (g.n - 1) // 2,
        bipartite_parts=networkx_complete_bipartite_parts(g),
        doubled_pair=g.n == 2 and int(g.mult[0, 1]) == 2)


def product_lower_formulas(g, h):
    """The paper's closed-form lower bounds on sn(G [] H) whose hypotheses
    hold, from networkx invariants (lam by stoer_wagner with multiplicities,
    kappa on the underlying simple graph, delta as the least weighted
    degree), keyed ("thm41", k), "prop43" and "cor42"; empty unless both
    factors are connected:
    - Thm 4.1 for kappa(G) >= k >= 1 and |V(G)| >= 2k - 1:
      min(k|V(H)|, |V(G)|lam(H), (|V(G)| - 2k + 2)lam(H) + 2lam(G));
    - Prop 4.3 for kappa(G) >= 2:
      min(2|V(H)|, |V(G)|lam(H), (|V(G)| - 2)lam(H) + 2delta(G));
    - Cor 4.2 for |V(G)|, |V(H)| >= 2:
      max(min(|V(H)|, |V(G)|lam(H)), min(|V(G)|, |V(H)|lam(G)))."""
    if not (nx.is_connected(networkx_graph(g)) and nx.is_connected(networkx_graph(h))):
        return {}
    lam_g, kappa_g, _ = networkx_connectivity(g)
    lam_h, _, _ = networkx_connectivity(h)
    weighted = nx.Graph()
    weighted.add_nodes_from(range(g.n))
    weighted.add_weighted_edges_from(g.edges())
    delta_g = min(d for _, d in weighted.degree(weight="weight"))
    result = {}
    for k in range(1, kappa_g + 1):
        if g.n >= 2 * k - 1:
            result["thm41", k] = min(k * h.n, g.n * lam_h, (g.n - 2 * k + 2) * lam_h + 2 * lam_g)
    if kappa_g >= 2:
        result["prop43"] = min(2 * h.n, g.n * lam_h, (g.n - 2) * lam_h + 2 * delta_g)
    if g.n >= 2 and h.n >= 2:
        result["cor42"] = max(min(h.n, g.n * lam_h), min(g.n, h.n * lam_g))
    return result


def recounting_box_chunks(bounds, total_max):
    """`divisors._box_chunks` as it counted the row box of every tail it
    tried from scratch: the rows of _bounded_vectors(bounds, total_max), in
    its order, in chunks of at most CHUNK_ROWS rows.

    The columns split into a head and the longest tail (one column at least)
    whose own box fits in a chunk.  In order, the rows are each head row
    followed by every tail row whose sum fits the head's remaining budget.  The
    head rows are streamed the same way, so each level holds its tail box and
    a chunk of rows, never the whole box.
    """
    k = max(len(bounds) - 1, 0)
    while k and dv._box_rows(bounds[k - 1:], total_max) <= dv.CHUNK_ROWS:
        k -= 1
    tails, tail_sums = dv._bounded_vectors(bounds[k:], total_max)
    # fits[first[t]:first[t + 1]]: indices of the tail rows with sum <= t
    fits = [np.flatnonzero(tail_sums <= t) for t in range(total_max + 1)]
    first = np.cumsum([0] + [f.size for f in fits])
    fits = np.concatenate(fits)
    head_chunks = recounting_box_chunks(bounds[:k], total_max) if k else [np.zeros((1, 0), dtype=np.int64)]
    for heads in head_chunks:
        budget = total_max - heads.sum(axis=1)
        counts = first[budget + 1] - first[budget]
        ends = np.cumsum(counts)
        shift = first[budget] - (ends - counts)  # row r of head h takes tail fits[shift[h] + r]
        total = int(ends[-1])
        for start in range(0, total, dv.CHUNK_ROWS):
            r = np.arange(start, min(start + dv.CHUNK_ROWS, total))
            h = np.searchsorted(ends, r, side="right")
            yield np.hstack([heads[h], tails[fits[shift[h] + r]]])


def sweep_brute_force_sn(g, max_eggs=None):
    """`scrambles.brute_force_sn` as a search that narrows every open
    constraint for every branch it tries, kept as the reference for its
    values, witness eggs and flows.

    Exact scramble number by exhausting the definition (tiny graphs only).

    sn >= k iff every (k-1)-subset C admits an egg avoiding it, with all
    chosen eggs pairwise either intersecting or separated by cuts >= k.  Any
    such egg may be grown to a full component of G - C: growing preserves
    avoidance and only raises pairwise cuts, so searching over components of
    G - C per constraint C is lossless.  max_eggs, None or at least 1, caps
    the witness size; when the cap prunes a failed search the result is
    flagged as a lower bound only (exact=False).

    Eggs are vertex bitmasks.  Per k the distinct component eggs are
    numbered by smallest member, and each constraint's options, its
    components (disjoint, so in the same order), are one bitset of egg
    numbers.  Egg i narrows an option set by one AND with its bitset of
    compatible eggs: those meeting it, found from per-vertex bitsets of the
    eggs containing it, and the disjoint ones whose cut reaches k.  A
    disjoint pair's cut is settled by one flow the first time a narrowing
    meets it, on capacity rows and neighbour lists built once per call.
    """
    n = g.n
    if max_eggs is not None and max_eggs < 1:
        raise ValueError("max_eggs must be at least 1, got %d" % max_eggs)
    if n > 16:
        raise ValueError("brute-force oracle is exponential; refusing n > 16")

    rows = g.mult.tolist()
    nbrs = inv._adjacency(g.mult)
    adj = [sum(1 << u for u in a) for a in nbrs]

    def bits(mask):
        """The positions of the set bits of mask, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def comp_masks(avoid_mask):
        """Components of the graph minus the avoided vertices, as bitmasks
        sorted by smallest member."""
        rest = ((1 << n) - 1) & ~avoid_mask
        out = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                grown = 0
                for v in bits(frontier):
                    grown |= adj[v]
                frontier = grown & rest & ~comp
                comp |= frontier
            rest &= ~comp
            out.append(comp)
        return out

    capped = [False]

    def decide(k):
        constraints = [sum(1 << v for v in c)
                       for c in itertools.combinations(range(n), k - 1)]
        comps = [comp_masks(c) for c in constraints]
        eggs = sorted({e for cs in comps for e in cs}, key=lambda e: (e & -e, e))
        number = {e: i for i, e in enumerate(eggs)}
        options = {c: sum(1 << number[e] for e in cs) for c, cs in zip(constraints, comps)}
        vertices = [[v for v in range(n) if e >> v & 1] for e in eggs]
        containing = [sum(1 << i for i, e in enumerate(eggs) if e >> v & 1) for v in range(n)]
        # compatible[i]: the eggs known to be compatible with egg i, at first
        # those meeting it; unsettled[i]: the disjoint eggs no flow has
        # settled against it yet
        compatible = []
        for vs in vertices:
            meets = 0
            for v in vs:
                meets |= containing[v]
            compatible.append(meets)
        everything = (1 << len(eggs)) - 1
        unsettled = [everything ^ meets for meets in compatible]
        chosen = []

        def settle(i, fresh):
            """One flow from egg i to each egg numbered in fresh."""
            for j in bits(fresh):
                if inv._min_cut(rows, nbrs, vertices[i], vertices[j], k)[0] >= k:
                    compatible[i] |= 1 << j
                    compatible[j] |= 1 << i
                unsettled[j] &= ~(1 << i)
            unsettled[i] &= ~fresh

        def branches(todo):
            """(egg, todo after choosing it) for each option of the first
            smallest option set of todo that leaves every constraint an egg."""
            for i in bits(min(todo.values(), key=int.bit_count)):
                e = eggs[i]
                narrowed = {}
                for c, opts in todo.items():
                    if e & c:
                        fresh = opts & unsettled[i]
                        if fresh:
                            settle(i, fresh)
                        opts &= compatible[i]
                        if not opts:
                            break  # a dead end: no egg is left for c
                        narrowed[c] = opts
                else:
                    yield i, narrowed

        def backtrack(todo):
            """todo maps each constraint that no chosen egg avoids, in
            constraint order, to its options compatible with every chosen
            egg.  Depth first over a stack of branches generators, one per
            chosen egg and the root, as a witness can hold more eggs than
            Python allows nested calls; todo ends {} on success."""
            stack = []
            while todo:
                if max_eggs is not None and len(set(chosen)) >= max_eggs:
                    capped[0] = True
                else:
                    stack.append(branches(todo))
                todo = None
                while todo is None and stack:
                    del chosen[len(stack) - 1:]  # keep the eggs of the frames below
                    e, todo = next(stack[-1], (None, None))
                    if todo is None:
                        stack.pop()
                    else:
                        chosen.append(e)
            return todo is not None

        if backtrack(options):
            return [frozenset(vertices[i]) for i in set(chosen)]
        return None

    best = 1
    witness_eggs = [set(range(n))] if inv.is_connected(g) else [{0}]
    for k in range(2, n + 1):
        capped[0] = False
        eggs = decide(k)
        if eggs is None:
            return sc.BruteForceResult(best, sc.Scramble(g, witness_eggs), not capped[0])
        best, witness_eggs = k, eggs
    return sc.BruteForceResult(best, sc.Scramble(g, witness_eggs), True)
