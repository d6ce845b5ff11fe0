"""Loopless multigraphs with integer edge multiplicities, plus the standard
generators and graph constructions (Cartesian product, cone, smoothing).

Vertices are always 0..n-1.  A graph is stored as a symmetric n x n numpy
matrix of multiplicities with zero diagonal; instances are immutable after
construction, so every operation returns a new graph.
"""

import heapq
import itertools
import operator
import random

import numpy as np


class Multigraph:
    """A finite multigraph: parallel edges allowed, loops rejected."""

    __slots__ = ("mult",)

    def __init__(self, mult):
        self._own(_int64_array(mult))

    @classmethod
    def _adopt(cls, m):
        """A graph on the int64 array m itself, with the checks of
        `Multigraph(m)` and no copy: for a builder that made m and keeps no
        other reference to it."""
        g = cls.__new__(cls)
        g._own(m)
        return g

    def _own(self, m):
        """Check the int64 array m and make it this graph's read-only matrix."""
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("multiplicity matrix must be square and nonempty")
        top = int(m.view(np.uint64).max())  # a negative entry reads as 2**63 or more
        if top >= 2**63:
            raise ValueError("edge multiplicities must be nonnegative")
        if (m != m.T).any():
            raise ValueError("multiplicity matrix must be symmetric")
        if np.diagonal(m).any():
            raise ValueError("loop edges are not allowed")
        if top * m.size >= 2**63:  # only then can the entries total 2**63
            _check_total(sum(m.ravel().tolist()))
        m.setflags(write=False)
        self.mult = m

    @property
    def n(self):
        return self.mult.shape[0]

    def edge_count(self):
        """Number of edges counted with multiplicity."""
        return int(self.mult.sum()) // 2

    def valence(self, v):
        return int(self.mult[v].sum())

    def valences(self):
        return self.mult.sum(axis=1)

    def neighbors(self, v):
        return [int(u) for u in np.nonzero(self.mult[v])[0]]

    def edges(self):
        """(u, v, multiplicity) with u < v, as a list in row-major order."""
        us, vs = np.nonzero(np.triu(self.mult, 1))
        return list(zip(us.tolist(), vs.tolist(), self.mult[us, vs].tolist()))

    def is_simple(self):
        return bool(self.mult.max() <= 1)

    def __eq__(self, other):
        return isinstance(other, Multigraph) and np.array_equal(self.mult, other.mult)

    def __hash__(self):
        return hash((self.n, self.mult.tobytes()))

    def __repr__(self):
        return "Multigraph(n=%d, edges=%d)" % (self.n, self.edge_count())


def _integer(x):
    """x as an int; a ValueError names x unless it is an integer (an int, a
    bool or a numpy integer: a float or a string is refused, not truncated)."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError("%r is not an integer" % (x,)) from None


def _int64_array(values):
    """values as a new int64 array; a ValueError names the first entry that
    is not an integer (`_integer`) or lies outside int64."""
    a = np.array(values)
    if a.dtype.kind not in "bi":  # re-read the input: `a` may hold its ints as floats or strings
        for x in np.array(values, dtype=object).ravel().tolist():
            if not -2**63 <= _integer(x) < 2**63:
                raise ValueError("%d is outside the int64 range" % x)
    return a.astype(np.int64, copy=False)


# Bytes the dense n x n int64 multiplicity matrix may take, so at most 5,792
# vertices: a larger graph is refused before its matrix is allocated.
MATRIX_BUDGET = 256 * 2**20


def _check_order(n):
    """Raise ValueError when an n-vertex multiplicity matrix would take over
    MATRIX_BUDGET."""
    if n * n * 8 > MATRIX_BUDGET:
        raise ValueError("a %d-vertex multiplicity matrix would take %.1f MiB, over the "
                         "%d MiB matrix budget" % (n, n * n * 8 / 2**20, MATRIX_BUDGET >> 20))


def _check_total(total):
    """Refuse entries totalling 2|E| >= 2**63: int64 valences and cuts could wrap."""
    if total >= 2**63:
        raise ValueError("edge multiplicities total %d, at or above the limit 2**62" % (total // 2))


def from_edge_list(n, edges):
    """Build a multigraph from an iterable of (u, v, multiplicity) triples.

    Each triple is checked as it is read: non-integers, loops, out-of-range
    vertices, nonpositive multiplicities and a running total of 2**62 edges
    or more are rejected, so repeated (u, v) entries accumulate in int64.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_order(n)
    mult = np.zeros((n, n), dtype=np.int64)
    total = 0
    for u, v, k in edges:
        u, v, k = _integer(u), _integer(v), _integer(k)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("vertex index out of range: (%r, %r)" % (u, v))
        if u == v:
            raise ValueError("loop edge at vertex %r" % u)
        if k < 1:
            raise ValueError("edge multiplicity must be >= 1, got %r" % k)
        total += k
        _check_total(2 * total)
        mult[u, v] += k
        mult[v, u] += k
    return Multigraph._adopt(mult)


# ---------------------------------------------------------------------------
# generators


def path(m):
    if m < 1:
        raise ValueError("path needs at least one vertex")
    return from_edge_list(m, ((i, i + 1, 1) for i in range(m - 1)))


def cycle(m):
    """Cycle on m >= 2 vertices; cycle(2) is two vertices with a doubled edge."""
    if m < 2:
        raise ValueError("cycle needs at least two vertices")
    return from_edge_list(m, ((i, (i + 1) % m, 1) for i in range(m)))


def complete(n):
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    _check_order(n)  # before the n parts are listed
    return complete_multipartite([1] * n)


def complete_bipartite(m, n):
    return complete_multipartite([m, n])


def complete_multipartite(parts):
    parts = list(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("all parts must have size >= 1")
    _check_order(sum(parts))
    label = np.repeat(np.arange(len(parts)), parts)
    return Multigraph._adopt((label[:, None] != label[None, :]).astype(np.int64))


def star(m):
    """Star on m vertices: vertex 0 is the center."""
    if m < 1:
        raise ValueError("star needs at least one vertex")
    return complete_bipartite(1, m - 1) if m > 1 else complete(1)


def hypercube(d):
    if d < 0:
        raise ValueError("hypercube dimension must be >= 0")
    return grid(2 for _ in range(d))


def grid(dims):
    """Iterated Cartesian product of paths; K1 when dims is empty.  The
    running product of the dimensions is checked against MATRIX_BUDGET as
    they are read, so a grid over it is refused before any product is built."""
    sizes, order = [], 1
    for d in dims:
        if d < 1:
            raise ValueError("all grid dimensions must be >= 1")
        order *= d
        _check_order(order)
        sizes.append(d)
    g = complete(1)
    for d in sizes:
        g = cartesian_product(g, path(d))
    return g


def random_tree(m, seed):
    """Uniform random labeled tree on m vertices, via a Pruefer sequence."""
    if m < 1:
        raise ValueError("tree needs at least one vertex")
    _check_order(m)
    if m == 1:
        return complete(1)
    rng = random.Random(seed)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(m) if degree[v] == 1)
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x, 1))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v, 1))
    return from_edge_list(m, edges)


def random_graph(n, p, seed):
    """Erdos-Renyi G(n, p).  Not guaranteed connected."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    _check_order(n)
    rng = random.Random(seed)
    edges = [(u, v, 1) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# constructions


def cartesian_product(g, h):
    """Cartesian product; vertex (u, w) is linearized as u * h.n + w.

    Two product vertices are adjacent when they agree in one coordinate and
    the other coordinates are adjacent in their factor; multiplicities carry
    over from the factor edge.
    """
    _check_order(g.n * h.n)
    mult = np.zeros((g.n, h.n, g.n, h.n), dtype=np.int64)
    u, w = np.arange(g.n), np.arange(h.n)
    mult[u, :, u, :] = h.mult  # (u, w) ~ (u, w') as w ~ w' in h
    mult[:, w, :, w] = g.mult  # (u, w) ~ (u', w) as u ~ u' in g
    return Multigraph._adopt(mult.reshape(g.n * h.n, g.n * h.n))


def canonical_copy(g, h, factor, index):
    """Vertex set of a canonical factor copy inside g [] h.

    factor="left" gives the copy of g at the h-vertex ``index``;
    factor="right" gives the copy of h at the g-vertex ``index``.
    Indices refer to the product linearization used by cartesian_product.
    """
    if factor == "left":
        if not 0 <= index < h.n:
            raise ValueError("h-vertex index out of range")
        return frozenset(u * h.n + index for u in range(g.n))
    if factor == "right":
        if not 0 <= index < g.n:
            raise ValueError("g-vertex index out of range")
        return frozenset(index * h.n + w for w in range(h.n))
    raise ValueError("factor must be 'left' or 'right'")


def cone(g, l):
    """Add l new vertices adjacent to every other vertex, including each other."""
    if l < 0:
        raise ValueError("cone height must be >= 0")
    n = g.n
    _check_order(n + l)
    mult = np.ones((n + l, n + l), dtype=np.int64)
    np.fill_diagonal(mult, 0)
    mult[:n, :n] = g.mult
    return Multigraph._adopt(mult)


def smooth_two_valent(g):
    """Suppress 2-valent vertices with two distinct neighbors until none remain.

    The inverse of subdivision; a cycle stabilizes at the doubled edge on
    two vertices.  Idempotent.  One sweep in vertex order suffices: replacing
    uv and vw by uw changes no valence, and can take a second distinct
    neighbor away but never add one, so a passed vertex stays unsuppressible.
    """
    mult = np.array(g.mult)
    alive = np.ones(g.n, dtype=bool)
    for v in np.flatnonzero(g.valences() == 2).tolist():
        nbrs = np.flatnonzero(mult[v])
        if nbrs.size == 2:
            u, w = nbrs
            mult[u, w] += 1
            mult[w, u] += 1
            mult[v] = 0
            mult[:, v] = 0
            alive[v] = False
    return Multigraph._adopt(mult[np.ix_(alive, alive)])


def subdivide(g, t=1):
    """Place t new vertices in the middle of every edge (each parallel copy)."""
    if t < 0:
        raise ValueError("subdivision count must be >= 0")
    if t == 0:
        return g
    _check_order(g.n + t * g.edge_count())
    edges = []
    next_vertex = g.n
    for u, v, k in g.edges():
        for _ in range(k):
            chain = [u] + list(range(next_vertex, next_vertex + t)) + [v]
            next_vertex += t
            edges.extend((a, b, 1) for a, b in zip(chain, chain[1:]))
    return from_edge_list(next_vertex, edges)


def induced_subgraph(g, vertices):
    """Induced subgraph; vertices are relabeled in sorted order."""
    idx = sorted(vertices)
    if not idx:
        raise ValueError("induced subgraph needs at least one vertex")
    return Multigraph._adopt(g.mult[np.ix_(idx, idx)])


def relabel(g, perm):
    """Apply a vertex permutation: new vertex perm[v] is old vertex v."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    inv = [0] * g.n
    for v, p in enumerate(perm):
        inv[p] = v
    return Multigraph._adopt(g.mult[np.ix_(inv, inv)])
