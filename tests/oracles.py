"""Slow, independent reference implementations used only to cross-check the
library.  Everything here exhausts definitions directly (bitmask subsets,
multiset enumeration, exact rational linear algebra) and shares no search
logic with the package under test.
"""

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np

from scramblegon import divisors as dv
from scramblegon import invariants as inv
from scramblegon import multigraph as mg


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


def networkx_min_cut(g, side_a, side_b):
    """(value, source side) of networkx's minimum cut with side_a and side_b
    contracted to a super source and a super sink of infinite capacity."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for u, v, k in g.edges():
        nxg.add_edge(u, v, capacity=k)
    big = int(g.mult.sum()) + 1
    for v in side_a:
        nxg.add_edge("src", v, capacity=big)
    for v in side_b:
        nxg.add_edge("dst", v, capacity=big)
    value, (src_side, _) = nx.minimum_cut(nxg, "src", "dst")
    return int(value), frozenset(v for v in src_side if v != "src")


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


def laplacian_equivalent(g, chips_a, chips_b):
    """Divisor equivalence decided by exact rational linear algebra.

    Two divisors are equivalent iff their difference is an integer
    combination of single-vertex firing vectors, i.e. lies in the image of
    the Laplacian over the integers.  On a connected graph the Laplacian has
    corank one with kernel spanned by the all-ones vector, so fixing the last
    firing count to zero leaves a full-column-rank system: an integer firing
    vector exists iff the unique rational solution is integral.
    """
    n = g.n
    lap = np.diag(g.valences()) - g.mult
    d = np.asarray(chips_a, dtype=np.int64) - np.asarray(chips_b, dtype=np.int64)
    if int(d.sum()) != 0:
        return False
    m = n - 1
    rows = [[Fraction(int(lap[i, j])) for j in range(m)] + [Fraction(int(d[i]))]
            for i in range(n)]
    rank = 0
    pivots = []
    for col in range(m):
        piv = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    if any(rows[i][m] != 0 for i in range(rank, n)):
        return False
    solution = [Fraction(0)] * m
    for i, col in enumerate(pivots):
        solution[col] = rows[i][m]
    return all(x.denominator == 1 for x in solution)


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


def _canonical(mult):
    n = mult.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        key = mult[np.ix_(p, p)].tobytes()
        if best is None or key < best:
            best = key
    return best


def connected_graph_corpus(max_n=5, max_edges=8):
    """All connected simple graphs with at most max_n vertices and max_edges
    edges, one representative per isomorphism class."""
    graphs = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            if bin(mask).count("1") > max_edges:
                continue
            edges = [(u, v, 1) for i, (u, v) in enumerate(pairs) if mask >> i & 1]
            g = mg.from_edge_list(n, edges)
            if not inv.is_connected(g):
                continue
            key = _canonical(g.mult)
            if key not in seen:
                seen.add(key)
                graphs.append(g)
    return graphs


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
    every effective divisor of each degree, enumerated as vertex multisets."""
    n = g.n
    for degree in itertools.count(1):
        reduced = set()
        for probe in itertools.combinations_with_replacement(range(n), degree):
            chips = np.zeros(n, dtype=np.int64)
            for v in probe:
                chips[v] += 1
            reduced.add(tuple(dv.q_reduce(dv.Divisor(g, chips), 0).chips.tolist()))
        witnesses = [c for c in reduced if dv.has_positive_rank(dv.Divisor(g, c))]
        if witnesses:
            return degree, list(min(witnesses, key=lambda c: c[1:]))
