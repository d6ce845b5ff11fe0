"""Chip-firing divisor theory: firing moves, Dhar's burning algorithm,
q-reduced normal forms, truncated rank, and exact gonality search.

Divisors are integer chip vectors on the vertices of a host multigraph.
Equivalence is always decided through the unique q-reduced representative.
Every Dhar burn runs on `_burn_rows` and every Dhar firing loop on
`_batch_reduce_effective`, a single divisor as a one-row matrix.
"""

import itertools

import numpy as np

from . import invariants as inv
from . import scrambles as sc


class Divisor:
    """Integer chip assignment on the vertices of a multigraph."""

    __slots__ = ("graph", "chips")

    def __init__(self, graph, chips):
        c = np.array(chips, dtype=np.int64)
        if c.shape != (graph.n,):
            raise ValueError("chip vector length %r does not match %d vertices" % (c.shape, graph.n))
        c.setflags(write=False)
        self.graph = graph
        self.chips = c

    def degree(self):
        return sum(self.chips.tolist())  # Python ints: an int64 sum can wrap

    def is_effective(self):
        return bool((self.chips >= 0).all())

    def __getitem__(self, v):
        return int(self.chips[v])

    def __eq__(self, other):
        return (isinstance(other, Divisor) and self.graph == other.graph
                and np.array_equal(self.chips, other.chips))

    def __hash__(self):
        return hash((self.graph, self.chips.tobytes()))

    def __repr__(self):
        return "Divisor(%s)" % self.chips.tolist()


def zero_divisor(graph):
    return Divisor(graph, np.zeros(graph.n, dtype=np.int64))


def fire(divisor, v):
    """Fire one vertex: it loses val(v) chips, each neighbor u gains mult[u][v]."""
    return fire_set(divisor, [v])


def _fire_set_delta(mult, members):
    """Chip change vector of simultaneously firing the boolean vertex set."""
    s = members.astype(np.int64)
    return mult @ s - s * mult.sum(axis=1)


def fire_set(divisor, vertices):
    """Fire every vertex of the set simultaneously (order-independent)."""
    g = divisor.graph
    members = np.zeros(g.n, dtype=bool)
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError("vertex out of range")
        members[v] = True
    return Divisor(g, divisor.chips + _fire_set_delta(g.mult, members))


class BurnResult:
    """Outcome of Dhar's burning algorithm started at q."""

    __slots__ = ("burned", "unburned")

    def __init__(self, burned, unburned):
        self.burned = frozenset(burned)
        self.unburned = frozenset(unburned)

    def all_burned(self):
        return not self.unburned

    def __repr__(self):
        return "BurnResult(burned=%s, unburned=%s)" % (sorted(self.burned), sorted(self.unburned))


def _burn_matrix(mult):
    """The multiplicity matrix _burn_rows multiplies by, built once per search.

    float32 products take BLAS, many times faster than integer matmul, and are
    exact while every valence is below 2**24; past that the integer matrix
    itself is returned.
    """
    if mult.sum(axis=1).max() < 2**24:
        return mult.astype(np.float32)
    return mult


def _burn_rows(burn, chips, q):
    """Vertices burned by a fire started at q, for every row of a chip matrix;
    `burn` is _burn_matrix of the host's multiplicities.

    A vertex burns once its burning incident edges outnumber its chips; the
    closure is monotone, so the iteration order is irrelevant.  chips[:, q] is
    never consulted.  The chips are compared in the matrix's dtype: a float32
    product below 2**24 is exact, and rounding a larger chip count keeps it
    at 2**24 or above, so every comparison is exact.
    """
    chips = chips.astype(burn.dtype)
    burned = np.zeros(chips.shape, dtype=bool)
    burned[:, q] = True
    while True:
        fresh = ~burned & (burned @ burn > chips)
        if not fresh.any():
            return burned
        burned |= fresh


def dhar_burn(divisor, q):
    g = divisor.graph
    if not 0 <= q < g.n:
        raise ValueError("vertex out of range")
    chips = divisor.chips
    if (np.delete(chips, q) < 0).any():
        raise ValueError("Dhar's algorithm needs the divisor effective away from q")
    burned = _burn_rows(_burn_matrix(g.mult), chips[None], q)[0]
    verts = np.arange(g.n)
    return BurnResult(verts[burned].tolist(), verts[~burned].tolist())


def _check_chip_size(size):
    if size >= 2**63:
        raise ValueError("chips could total %d in absolute value during q-reduction, "
                         "past the int64 limit 2**63 - 1" % size)


def _reduce_chips(mult, burn, chips, q, script=None):
    """q-reduction of a raw chip vector; `burn` is _burn_matrix(mult).

    Phase 1 clears debt outside q, one BFS layer at a time starting from the
    farthest layer: firing the ball of radius k-1 hands every layer-k vertex
    at least one chip per firing while touching no farther layer.  Phase 2 is
    the Dhar loop of _batch_reduce_effective on the one row.

    No chip count exceeds the total of |chips|, which a phase-1 step raises
    by at most its firings times sum |delta| and phase 2 never raises.  So
    ValueError is raised, on entry or before a step's product and script,
    once that total could reach 2**63.
    """
    chips = np.array(chips, dtype=np.int64)
    n = mult.shape[0]
    reached = inv._bfs(inv._adjacency(mult), q)
    if len(reached) < n:
        raise ValueError("q-reduction needs a connected host graph")
    dist = np.array([reached[v] for v in range(n)])
    size = sum(abs(c) for c in chips.tolist())  # Python ints: cannot wrap
    _check_chip_size(size)

    for layer in range(int(dist.max()), 0, -1):
        on_layer = dist == layer
        worst = int(chips[on_layer].min())
        if worst >= 0:
            continue
        ball = dist < layer
        delta = _fire_set_delta(mult, ball)
        size += (-worst) * int(np.abs(delta).sum())
        _check_chip_size(size)
        chips += (-worst) * delta
        if script is not None:
            members = frozenset(np.nonzero(ball)[0].tolist())
            script.extend([members] * (-worst))

    return _batch_reduce_effective(mult, burn, chips[None], q, script)[0]


def q_reduce(divisor, q, with_script=False):
    """The unique q-reduced divisor equivalent to the input.

    With with_script=True also returns the list of vertex sets whose
    successive simultaneous firings transform the input into the output.
    """
    g = divisor.graph
    if not 0 <= q < g.n:
        raise ValueError("vertex out of range")
    script = [] if with_script else None
    chips = _reduce_chips(g.mult, _burn_matrix(g.mult), divisor.chips, q, script)
    reduced = Divisor(g, chips)
    if with_script:
        return reduced, script
    return reduced


def is_q_reduced(divisor, q):
    chips = divisor.chips
    if not 0 <= q < divisor.graph.n:
        raise ValueError("vertex out of range")
    if (np.delete(chips, q) < 0).any():
        return False
    return bool(_burn_rows(_burn_matrix(divisor.graph.mult), chips[None], q).all())


def has_positive_rank(divisor):
    """True iff rank >= 1: every vertex can be handed a chip.

    D - (q) is equivalent to an effective divisor exactly when the q-reduced
    form of D keeps at least one chip on q.
    """
    g = divisor.graph
    burn = _burn_matrix(g.mult)
    return all(int(_reduce_chips(g.mult, burn, divisor.chips, q)[q]) >= 1 for q in range(g.n))


def rank(divisor, cap):
    """Truncated rank in {-1, 0, ..., cap} (exact up to the cap).

    Quantifies over all effective divisors E of each degree r <= cap,
    enumerated as vertex multisets, and checks D - E against an effective
    divisor via reduction at a debt vertex of E.
    """
    if cap < 0:
        raise ValueError("rank cap must be >= 0")
    g = divisor.graph
    mult, burn = g.mult, _burn_matrix(g.mult)
    if int(_reduce_chips(mult, burn, divisor.chips, 0)[0]) < 0:
        return -1
    result = 0
    for r in range(1, cap + 1):
        for probe in itertools.combinations_with_replacement(range(g.n), r):
            chips = np.array(divisor.chips)
            for v in probe:
                chips[v] -= 1
            q = probe[0]
            if int(_reduce_chips(mult, burn, chips, q)[q]) < 0:
                return result
        result = r
    return result


# Bytes the int64 chip matrix of the rows one degree scans would take: the box
# of chips[1:] with total <= degree - 1.  The box is streamed CHUNK_ROWS rows
# at a time and never built whole, so memory is bounded by the chunk and the
# budget bounds the work of one degree.
CANDIDATE_BOX_BUDGET = 256 * 2**20

# Candidate rows filtered together: of 1,024 to 8,192, 2,048 was fastest on
# the benchmark's gonality ladder (products and cones on 9-15 vertices).
CHUNK_ROWS = 2048


class CandidateBudgetError(ValueError):
    """A gonality search would scan a candidate box over CANDIDATE_BOX_BUDGET."""


def _add_column(ways, b):
    """ways[s], the rows of a box that sum to s (s < len(ways)), after one
    more column, bounded by b."""
    return [sum(ways[max(0, s - b):s + 1]) for s in range(len(ways))]


def _box_rows(bounds, total_max):
    """Row count of _bounded_vectors(bounds, total_max), without building it."""
    ways = [1] + [0] * total_max  # ways[s]: rows of the columns so far summing to s
    for b in bounds:
        ways = _add_column(ways, b)
    return sum(ways)


def _bounded_vectors(bounds, total_max):
    """All nonnegative integer rows x with x[i] <= bounds[i] and sum(x) <= total_max,
    in lexicographic order, and their sums."""
    rows = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for b in bounds:
        counts = np.minimum(b, total_max - sums) + 1
        starts = np.cumsum(counts) - counts
        new_col = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)
        rows = np.hstack([np.repeat(rows, counts, axis=0), new_col[:, None]])
        sums = np.repeat(sums, counts) + new_col
    return rows, sums


def _box_chunks(bounds, total_max):
    """The rows of _bounded_vectors(bounds, total_max), in its order, in chunks
    of at most CHUNK_ROWS rows.

    The columns split into a head and the longest tail (one column at least)
    whose own box fits in a chunk.  In order, the rows are each head row
    followed by every tail row whose sum fits the head's remaining budget.  The
    head rows are streamed the same way, so each level holds its tail box and
    a chunk of rows, never the whole box.  The tail's row counts grow one
    column at a time, so each suffix of the columns is counted once.
    """
    k, ways = len(bounds), [1] + [0] * total_max
    while k:
        wider = _add_column(ways, bounds[k - 1])
        if sum(wider) > CHUNK_ROWS and k < len(bounds):
            break
        ways, k = wider, k - 1
    tails, tail_sums = _bounded_vectors(bounds[k:], total_max)
    # fits[first[t]:first[t + 1]]: indices of the tail rows with sum <= t
    fits = [np.flatnonzero(tail_sums <= t) for t in range(total_max + 1)]
    first = np.cumsum([0] + [f.size for f in fits])
    fits = np.concatenate(fits)
    head_chunks = _box_chunks(bounds[:k], total_max) if k else [np.zeros((1, 0), dtype=np.int64)]
    for heads in head_chunks:
        budget = total_max - heads.sum(axis=1)
        counts = first[budget + 1] - first[budget]
        ends = np.cumsum(counts)
        shift = first[budget] - (ends - counts)  # row r of head h takes tail fits[shift[h] + r]
        total = int(ends[-1])
        for start in range(0, total, CHUNK_ROWS):
            r = np.arange(start, min(start + CHUNK_ROWS, total))
            h = np.searchsorted(ends, r, side="right")
            yield np.hstack([heads[h], tails[fits[shift[h] + r]]])


def _box_bounds(g):
    """The box's column bounds: val(v) - 1 chips on each vertex v but 0."""
    return [int(val) - 1 for val in g.valences()[1:]]


def _check_box(g, bounds, degree):
    """Raise CandidateBudgetError when the degree's candidate box, of columns
    `bounds` (_box_bounds(g)), would take over CANDIDATE_BOX_BUDGET."""
    box_bytes = _box_rows(bounds, degree - 1) * g.n * 8
    if box_bytes > CANDIDATE_BOX_BUDGET:
        raise CandidateBudgetError(
            "the degree-%d candidate box would take %.1f MiB of chips, over the "
            "%d MiB candidate-box budget" % (degree, box_bytes / 2**20, CANDIDATE_BOX_BUDGET >> 20))


def _reduced_effective_divisors(g, degree):
    """The candidates for the 0-reduced effective divisors of the given degree
    that keep a chip on vertex 0: the raw rows of a bounded box, as chip
    matrices of at most CHUNK_ROWS rows, ordered by chips[1:].

    Away from the basepoint 0 a 0-reduced divisor carries at most val(v) - 1
    chips (a heavier vertex could never burn), so every such divisor is a row
    of the box; only rows of total <= degree - 1 are scanned, as a
    positive-rank divisor keeps a chip on 0 in its 0-reduced form.  The rows
    are not burned at 0 here: the caller keeps the reduced ones.
    """
    n = g.n
    bounds = _box_bounds(g)
    _check_box(g, bounds, degree)
    for rows in _box_chunks(bounds, degree - 1):
        chips = np.empty((rows.shape[0], n), dtype=np.int64)
        chips[:, 0] = degree - rows.sum(axis=1)
        chips[:, 1:] = rows
        yield chips


def _batch_reduce_effective(mult, burn, chips, q, script=None):
    """q-reduce many chip rows, effective away from q, at once; `burn` is
    _burn_matrix(mult), and the firing delta is taken through it too.
    Returns the reduced rows, order preserved; a script list (one row only)
    gets each fired set appended."""
    chips = np.array(chips)
    vals = mult.sum(axis=1)
    active = np.arange(chips.shape[0])
    while active.size:
        burned = _burn_rows(burn, chips[active], q)
        alive = ~burned.all(axis=1)
        if not alive.any():
            break
        unburned = ~burned[alive]
        chips[active[alive]] += (unburned @ burn).astype(np.int64) - unburned * vals
        if script is not None:
            script.append(frozenset(np.flatnonzero(unburned[0]).tolist()))
        active = active[alive]
    return chips


def _first_positive_rank_row(g, burn, degree):
    """The first 0-reduced positive-rank chip row of the given degree, in the
    order of chips[1:], or None when the degree has none; `burn` is
    _burn_matrix(g.mult), and g is connected with two or more vertices.

    Positive rank <=> every vertex q holds a chip in some effective divisor
    equivalent to the row.  The row covers its own support (vertex 0 among
    it) and each q-reduction met covers the support of the reduced row, so a
    row is reduced at q only while q is uncovered, and kept when the
    reduction covers q; one basepoint at a time, cheapest rejections first.
    Positive rank is a property of the divisor class, so these q-filters run
    on the raw box rows, and the burn at 0 only on their survivors: the
    0-reduced rows kept are the same rows in the same order.
    """
    mult = g.mult
    for candidates in _reduced_effective_divisors(g, degree):
        covered = candidates > 0
        for q in range(1, g.n):
            if not candidates.shape[0]:
                break
            todo = ~covered[:, q]
            if todo.any():
                covered[todo] |= _batch_reduce_effective(mult, burn, candidates[todo], q) > 0
                keep = covered[:, q]
                candidates, covered = candidates[keep], covered[keep]
        if candidates.shape[0]:
            candidates = candidates[_burn_rows(burn, candidates, 0).all(axis=1)]
            if candidates.shape[0]:
                return candidates[0]
    return None


def _gonality_upper(g, alpha):
    """The positive-rank upper bound on gon(g): the least of genus + 1 =
    |E| - n + 2 (|E| with multiplicity; by Riemann-Roch for graphs every
    divisor of that degree has rank >= 1, genus + 1 chips on one vertex
    say), n - alpha for a simple g on two or more vertices (one chip on each
    vertex outside a maximum independent set), and n (one chip on every
    vertex), for a connected g of independence number alpha."""
    genus_bound = g.edge_count() - g.n + 2
    if g.n >= 2 and g.is_simple():
        return min(genus_bound, g.n - alpha)
    return min(genus_bound, g.n)


def _scan_start(g, lower, upper, alpha):
    """A sound lower bound lower <= upper = _gonality_upper(g, alpha) on
    gon(g), raised to the edge scramble's order (sn <= gon), which is worked
    out only where lower is below upper: the start of a sandwich's scan."""
    if lower < upper:
        return max(lower, sc._edge_scramble_order(g, alpha))
    return lower


def _sandwich(g, lower, alpha, witness=False):
    """(start, gon(g), row) for a connected g of independence number alpha
    and a sound lower bound on gon(g): start is `_scan_start`, and row the
    first 0-reduced positive-rank row of degree gon(g), in the order of
    chips[1:], or None.  Degrees from start up are scanned, through upper =
    `_gonality_upper` with `witness`, else below it (none there proves gon =
    upper); each positive-rank class has a 0-reduced representative with a
    chip on vertex 0.  A refusal names the first over-budget degree from
    lower up, so the degrees below start are checked first."""
    lower = max(lower, 1)  # no divisor of degree < 1 has positive rank
    upper = _gonality_upper(g, alpha)
    if lower > upper:
        raise ValueError("gonality lower bound %d exceeds upper bound %d" % (lower, upper))
    start = _scan_start(g, lower, upper, alpha)
    stop = upper + 1 if witness else upper
    if start < stop:
        bounds = _box_bounds(g)
        for degree in range(lower, start):
            _check_box(g, bounds, degree)
    burn = _burn_matrix(g.mult)
    for degree in range(start, stop):
        row = _first_positive_rank_row(g, burn, degree)
        if row is not None:
            return start, degree, row
    return start, upper, None


def gonality(g):
    """Exact gonality with a positive-rank witness divisor: the 0-reduced one
    of least degree with the lexicographically least chips[1:], from
    `_sandwich` with the vertex scramble's order min(lam, n) as its lower
    bound.  Raises CandidateBudgetError, before scanning it, when a degree's
    candidate box would exceed CANDIDATE_BOX_BUDGET, naming the first such
    degree from min(lam, n) up; when that is min(lam, n) itself, before alpha
    or any edge-scramble flow is worked out."""
    if g.n == 1:
        # single vertex: one chip already has positive rank, zero chips do not
        return 1, Divisor(g, [1])
    lam = inv.edge_connectivity(g)
    if lam == 0:  # on two or more vertices, exactly a disconnected g
        raise ValueError("gonality needs a connected graph")
    lower = min(lam, g.n)
    _check_box(g, _box_bounds(g), lower)  # before alpha is computed
    _, value, row = _sandwich(g, lower, inv.independence_number(g), witness=True)
    if row is None:
        raise RuntimeError("soundness bug: no positive-rank divisor of degree <= %d found" % value)
    return value, Divisor(g, row)
