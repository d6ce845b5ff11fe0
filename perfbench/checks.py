"""Independent checks of scramblegon's outputs.

Nothing here calls scramblegon: every reference value is recomputed from the
multiplicity matrix by plain enumeration (vertex subsets, bipartitions,
effective divisors) or taken from a closed-form family value.  A failed check
raises CheckFailed.
"""

import itertools
import math

import numpy as np

# Bipartition and subset enumeration is exhaustive; above this many vertices
# only the witness itself is checked.
ENUM_MAX_N = 14
# Exhaustive gonality (every effective divisor of a degree) is run only on
# graphs with at most this many vertices.
GON_ENUM_MAX_N = 10


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _matrix(mult):
    m = np.asarray(mult, dtype=np.int64)
    require(m.ndim == 2 and m.shape[0] == m.shape[1], "matrix is not square")
    return m


def _edges(m):
    n = m.shape[0]
    return [(u, v, int(m[u, v])) for u in range(n) for v in range(u + 1, n) if m[u, v]]


def _bits(masks, n):
    """(len(masks), n) 0/1 matrix of the low n bits of each mask."""
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1


def _mask(vertices):
    out = 0
    for v in vertices:
        out |= 1 << int(v)
    return out


# ---------------------------------------------------------------------------
# graph invariants by enumeration


def alpha(mult):
    """Independence number by enumerating every vertex subset."""
    m = _matrix(mult)
    n = m.shape[0]
    require(n <= 20, "alpha enumeration refuses n > 20")
    masks = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(masks.shape[0], dtype=bool)
    for u, v, _ in _edges(m):
        ok &= ((masks >> u) & 1 & (masks >> v) & 1) == 0
    return int(_bits(masks[ok], n).sum(axis=1).max())


def boundary(mult, side):
    """|E(A, A^C)| with multiplicity, summed edge by edge from the matrix."""
    m = _matrix(mult)
    inside = set(int(v) for v in side)
    return sum(k for u, v, k in _edges(m) if (u in inside) != (v in inside))


def _boundaries(m, masks):
    n = m.shape[0]
    total = np.zeros(masks.shape[0], dtype=np.int64)
    for u, v, k in _edges(m):
        total += k * (((masks >> u) ^ (masks >> v)) & 1)
    return total


def edge_connectivity(mult):
    """lambda(G): the smallest boundary of a proper nonempty vertex set."""
    m = _matrix(mult)
    n = m.shape[0]
    require(n <= ENUM_MAX_N, "edge connectivity enumeration refuses n > %d" % ENUM_MAX_N)
    if n == 1:
        return 0
    # vertex n-1 stays outside A, so each bipartition is seen once
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    return int(_boundaries(m, masks).min())


def is_connected(mult, vertices=None):
    m = _matrix(mult)
    vs = set(range(m.shape[0])) if vertices is None else set(int(v) for v in vertices)
    if not vs:
        return False
    start = min(vs)
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for y in vs:
            if y not in seen and m[x, y]:
                seen.add(y)
                todo.append(y)
    return seen == vs


def vertex_connectivity(mult):
    """kappa(G) of the underlying simple graph: smallest separating vertex
    set, n - 1 for complete graphs, 0 when disconnected."""
    m = _matrix(mult)
    n = m.shape[0]
    if n == 1 or not is_connected(m):
        return 0
    for size in range(1, n - 1):
        for cut in itertools.combinations(range(n), size):
            if not is_connected(m, set(range(n)) - set(cut)):
                return size
    return n - 1


def bridges(mult):
    """Edges of multiplicity 1 whose removal disconnects the graph."""
    m = _matrix(mult)
    out = []
    for u, v, k in _edges(m):
        if k == 1:
            cut = m.copy()
            cut[u, v] = cut[v, u] = 0
            if not is_connected(cut):
                out.append((u, v))
    return out


def product_matrix(a, b):
    """Cartesian product: (u, w) ~ (u', w') when one coordinate agrees and
    the other is an edge of its factor; vertex (u, w) is u * |B| + w."""
    a, b = _matrix(a), _matrix(b)
    return np.kron(np.eye(a.shape[0], dtype=np.int64), b) + np.kron(a, np.eye(b.shape[0], dtype=np.int64))


def cone_matrix(mult, apexes):
    m = _matrix(mult)
    n = m.shape[0]
    out = np.ones((n + apexes, n + apexes), dtype=np.int64)
    np.fill_diagonal(out, 0)
    out[:n, :n] = m
    return out


# ---------------------------------------------------------------------------
# divisors: Dhar burning and q-reduction


def _reduce_rows(m, rows, q):
    """q-reduce effective chip rows by repeatedly firing the unburned set."""
    chips = np.array(rows, dtype=np.int64)
    valence = m.sum(axis=1)
    todo = np.arange(chips.shape[0])
    while todo.size:
        sub = chips[todo]
        burned = np.zeros(sub.shape, dtype=bool)
        burned[:, q] = True
        while True:
            heat = burned.astype(np.int64) @ m
            catch = ~burned & (heat > sub)
            if not catch.any():
                break
            burned |= catch
        stuck = ~burned.all(axis=1)
        if not stuck.any():
            break
        fire = (~burned[stuck]).astype(np.int64)
        chips[todo[stuck]] += fire @ m - fire * valence
        todo = todo[stuck]
    return chips


def positive_rank_rows(mult, rows):
    """Boolean mask: which effective chip rows have rank >= 1 (every
    q-reduced form keeps a chip on q)."""
    m = _matrix(mult)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    alive = np.ones(rows.shape[0], dtype=bool)
    for q in range(m.shape[0]):
        idx = np.nonzero(alive)[0]
        if not idx.size:
            break
        reduced = _reduce_rows(m, rows[idx], q)
        alive[idx[reduced[:, q] < 1]] = False
    return alive


def check_positive_rank_witness(mult, value, chips):
    """A gonality witness: degree equal to the value, effective, rank >= 1."""
    c = np.asarray(chips, dtype=np.int64)
    require(c.shape == (_matrix(mult).shape[0],), "witness has the wrong length")
    require(int(c.sum()) == value, "witness degree %d != claimed %d" % (c.sum(), value))
    require((c >= 0).all(), "witness is not effective")
    require(bool(positive_rank_rows(mult, c[None, :])[0]), "witness does not have positive rank")


def _effective_rows(n, degree):
    combos = np.array(list(itertools.combinations_with_replacement(range(n), degree)),
                      dtype=np.int64).reshape(-1, degree)
    rows = np.zeros((combos.shape[0], n), dtype=np.int64)
    for j in range(degree):
        np.add.at(rows, (np.arange(combos.shape[0]), combos[:, j]), 1)
    return rows


def has_positive_rank_of_degree(mult, degree):
    """True iff some effective divisor of this degree has rank >= 1."""
    m = _matrix(mult)
    require(m.shape[0] <= GON_ENUM_MAX_N, "exhaustive search refuses n > %d" % GON_ENUM_MAX_N)
    if degree < 1:
        return False
    return bool(positive_rank_rows(m, _effective_rows(m.shape[0], degree)).any())


def gonality(mult):
    """Exact gonality by trying every effective divisor of each degree."""
    m = _matrix(mult)
    require(is_connected(m), "gonality of a disconnected graph")
    for degree in range(1, m.shape[0] + 1):
        if has_positive_rank_of_degree(m, degree):
            return degree
    raise CheckFailed("no positive-rank divisor of degree <= n")  # pragma: no cover


def check_gonality_lower(mult, value):
    """No effective divisor of degree value - 1 has positive rank, so none of
    lower degree does either (adding a chip keeps rank >= 1)."""
    require(not has_positive_rank_of_degree(mult, value - 1),
            "a divisor of degree %d already has positive rank" % (value - 1))


def is_q_reduced(mult, chips, q):
    m = _matrix(mult)
    c = np.asarray(chips, dtype=np.int64)
    if (np.delete(c, q) < 0).any():
        return False
    burned = {q}
    grew = True
    while grew:
        grew = False
        for v in range(m.shape[0]):
            if v not in burned and sum(int(m[v, b]) for b in burned) > c[v]:
                burned.add(v)
                grew = True
    return len(burned) == m.shape[0]


def fire_sets(mult, chips, scripts):
    """Apply simultaneous firings of each vertex set in turn."""
    m = _matrix(mult)
    c = np.array(chips, dtype=np.int64)
    for fired in scripts:
        s = np.zeros(m.shape[0], dtype=np.int64)
        s[list(fired)] = 1
        c += m @ s - s * m.sum(axis=1)
    return c


# ---------------------------------------------------------------------------
# scrambles


def _egg_masks(eggs):
    return [_mask(e) for e in eggs]


def _overlap_groups(egg_masks):
    """Eggs grouped by chains of shared vertices: a hitting set splits
    into one independent hitting set per group."""
    groups = []
    for e in egg_masks:
        joined = [g for g in groups if g[0] & e]
        merged = [e, [e]]
        for g in joined:
            merged[0] |= g[0]
            merged[1].extend(g[1])
            groups.remove(g)
        groups.append(merged)
    return groups


def hitting_number(eggs):
    """Minimum hitting set size, by enumerating subsets of each group's vertices."""
    total = 0
    for union, members in _overlap_groups(_egg_masks(eggs)):
        verts = [v for v in range(union.bit_length()) if union >> v & 1]
        require(len(verts) <= 20, "hitting-set enumeration refuses a %d-vertex group" % len(verts))
        local = np.array([_mask(i for i, v in enumerate(verts) if e >> v & 1) for e in members],
                         dtype=np.int64)
        masks = np.arange(1 << len(verts), dtype=np.int64)
        hits = np.ones(masks.shape[0], dtype=bool)
        for e in local:
            hits &= (masks & e) != 0
        total += int(_bits(masks[hits], len(verts)).sum(axis=1).min())
    return total


def min_egg_cut(mult, eggs):
    """Minimum egg-cut by enumerating every bipartition of the host."""
    m = _matrix(mult)
    n = m.shape[0]
    require(n <= ENUM_MAX_N, "egg-cut enumeration refuses n > %d" % ENUM_MAX_N)
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    holds = np.zeros(masks.shape[0], dtype=bool)
    leaves = np.zeros(masks.shape[0], dtype=bool)
    for e in _egg_masks(eggs):
        holds |= (masks & e) == e
        leaves |= (masks & e) == 0
    ok = holds & leaves
    if not ok.any():
        return math.inf
    return int(_boundaries(m, masks[ok]).min())


def check_scramble_order(mult, eggs, order, hitting, egg_cut, hitting_set, cut,
                         expected_hitting=None):
    """Witnesses and values of a ScrambleOrder against the eggs and the matrix."""
    m = _matrix(mult)
    eggs = [frozenset(int(v) for v in e) for e in eggs]
    for e in eggs:
        require(e and is_connected(m, e), "egg %s is not connected" % sorted(e))
    hs = frozenset(int(v) for v in hitting_set)
    require(all(e & hs for e in eggs), "hitting witness misses an egg")
    require(len(hs) == hitting, "hitting witness has %d vertices, claimed %d" % (len(hs), hitting))
    if expected_hitting is None:
        expected_hitting = hitting_number(eggs)
    require(hitting == expected_hitting,
            "hitting number %d != %d by enumeration" % (hitting, expected_hitting))
    n = m.shape[0]
    if cut is None:
        require(egg_cut == math.inf, "finite egg-cut without a witness")
        require(all(a & b for a, b in itertools.combinations(eggs, 2)),
                "no cut witness although two eggs are disjoint")
    else:
        side, size = frozenset(int(v) for v in cut[0]), cut[1]
        rest = frozenset(range(n)) - side
        require(any(e <= side for e in eggs), "cut side holds no whole egg")
        require(any(e <= rest for e in eggs), "cut complement holds no whole egg")
        require(boundary(m, side) == egg_cut == size,
                "cut boundary %d != claimed %s" % (boundary(m, side), egg_cut))
        if n <= ENUM_MAX_N:
            best = min_egg_cut(m, eggs)
            require(egg_cut == best, "egg-cut %s is not minimal (%s)" % (egg_cut, best))
    require(order == min(hitting, egg_cut), "order %s != min(h, e)" % order)
