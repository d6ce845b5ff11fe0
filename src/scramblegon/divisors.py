"""Chip-firing divisor theory: firing moves, Dhar's burning algorithm,
q-reduced normal forms, truncated rank, and exact gonality search.

Divisors are integer chip vectors on the vertices of a host multigraph.
Equivalence is always decided through the unique q-reduced representative.
Every Dhar burn runs on `_burn_rows` and every Dhar firing loop on
`_batch_reduce_effective`, a single divisor as a one-row matrix.

The kernels do their chip arithmetic in the dtype of the rows.  The
gonality scan (`_first_positive_rank_row`) keeps its rows in the dtype of
the burn matrix (`_burn_matrix`: float32 while every valence is below
2**24, else int64) from the candidate box to the witness, which leaves it
as int64; counts of a row's chips or burned vertices are products with a
ones vector.  Rows from q_reduce, rank and the CLI keep int64 chip
arithmetic, compared in the burn dtype.  The scan is exact in float32: its
degrees are at most its upper bound, so at most n, and a Multigraph has at
most 5,792 vertices (`multigraph.MATRIX_BUDGET`); every chip of a scan
row, and of each q-reduction of it, lies in [0, degree]; each product with
the burn matrix is at most its vertex's valence, below 2**24; and each row
count is at most n.
"""

import itertools

import numpy as np

from . import invariants as inv
from . import multigraph as mg
from . import scrambles as sc


class Divisor:
    """Integer chip assignment on the vertices of a multigraph."""

    __slots__ = ("graph", "chips")

    def __init__(self, graph, chips):
        c = mg._int64_array(chips)
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
    """Vertices burned by a fire started at q, for every row of a chip matrix,
    as 0/1 flags in burn's dtype (so `burned @ burn` takes no cast); `burn` is
    _burn_matrix of the host's multiplicities.

    A vertex burns once its burning incident edges outnumber its chips; the
    closure is monotone (a burned vertex stays over its chips as the fire
    grows), so each wave recomputes the whole set and the iteration order is
    irrelevant.  chips[:, q] is never consulted: the copy compared against
    holds -1 there, so q burns in every wave.  The chips are compared in
    burn's dtype (rows already in it are copied, not cast): a float32
    product is at most its vertex's valence, so below 2**24 and exact, and
    rounding a larger chip count keeps it at 2**24 or above, so every
    comparison is exact.
    """
    chips = chips.astype(burn.dtype)
    chips[:, q] = -1
    fire = burn[q] > chips  # the first wave, from q alone
    count = len(chips)
    while True:
        burned = fire.astype(burn.dtype)
        last, count = count, np.count_nonzero(fire)
        if count == last:
            return burned
        fire = burned @ burn > chips


def dhar_burn(divisor, q):
    g = divisor.graph
    if not 0 <= q < g.n:
        raise ValueError("vertex out of range")
    chips = divisor.chips
    if (np.delete(chips, q) < 0).any():
        raise ValueError("Dhar's algorithm needs the divisor effective away from q")
    burned = _burn_rows(_burn_matrix(g.mult), chips[None], q)[0] > 0
    verts = np.arange(g.n)
    return BurnResult(verts[burned].tolist(), verts[~burned].tolist())


def _check_chip_size(size):
    if size >= 2**63:
        raise ValueError("chips could total %d in absolute value during q-reduction, "
                         "past the int64 limit 2**63 - 1" % size)


# Entries a firing script may hold, one per firing: a script that would pass
# it is refused before it is built.
SCRIPT_BUDGET = 2**22


def _check_script(script, firings):
    """Raise ValueError when `firings` more entries would take the script past
    SCRIPT_BUDGET."""
    if len(script) + firings > SCRIPT_BUDGET:
        raise ValueError("the firing script would hold %d firings, over the %d-firing "
                         "script budget" % (len(script) + firings, SCRIPT_BUDGET))


def _reduce_chips(mult, burn, chips, q, script=None):
    """q-reduction of a raw chip vector; `burn` is _burn_matrix(mult).

    Phase 1 clears debt outside q, one BFS layer at a time starting from the
    farthest layer: a firing of the ball of radius k-1 hands each layer-k
    vertex v its e(v, ball) >= 1 chips and touches no farther layer, so the
    ball fires max ceil(-chips[v] / e(v, ball)) times.  Phase 2 is the Dhar
    loop of _batch_reduce_effective on the one row.

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
        if chips[on_layer].min() >= 0:
            continue
        ball = dist < layer
        delta = _fire_set_delta(mult, ball)  # e(v, ball) on the layer
        firings = int((-(chips[on_layer] // delta[on_layer])).max())
        size += firings * int(np.abs(delta).sum())
        _check_chip_size(size)
        chips += firings * delta
        if script is not None:
            _check_script(script, firings)
            members = frozenset(np.nonzero(ball)[0].tolist())
            script.extend([members] * firings)

    return _batch_reduce_effective(mult, burn, chips[None], q, script)[0]


def q_reduce(divisor, q, with_script=False):
    """The unique q-reduced divisor equivalent to the input.

    With with_script=True also returns the list of vertex sets whose
    successive simultaneous firings transform the input into the output;
    ValueError is raised, before the script grows past it, once it would
    hold over SCRIPT_BUDGET firings.
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
    """True iff rank >= 1: every vertex can be handed a chip."""
    return rank(divisor, 1) == 1


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
    """rows[t], the row count of _bounded_vectors(bounds, t), for t <= total_max."""
    ways = [1] + [0] * total_max  # ways[s]: rows of the columns so far summing to s
    for b in bounds:
        ways = _add_column(ways, b)
    return list(itertools.accumulate(ways))


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


def _check_box(g, rows, degree):
    """Raise CandidateBudgetError when the degree's candidate box, of
    rows[degree - 1] rows (`_box_rows`), would take over CANDIDATE_BOX_BUDGET."""
    box_bytes = rows[degree - 1] * g.n * 8
    if box_bytes > CANDIDATE_BOX_BUDGET:
        raise CandidateBudgetError(
            "the degree-%d candidate box would take %.1f MiB of chips, over the "
            "%d MiB candidate-box budget" % (degree, box_bytes / 2**20, CANDIDATE_BOX_BUDGET >> 20))


def _batch_reduce_effective(mult, burn, chips, q, script=None):
    """q-reduce many chip rows, effective away from q, on a connected host,
    at once; `burn` is _burn_matrix(mult).  Returns the reduced rows, in the
    input's dtype and order; a script list (one row only) gets each fired
    set appended.

    Each wave burns the rows still in work and fires each row's unburned
    set, its delta taken through burn in burn's dtype and added in the rows'
    own.  A row is done once nothing is left unburned, tested as
    `unburned @ vals > 0`: every valence is positive and the terms are
    nonnegative, so the product is positive exactly when a vertex is
    unburned, even where a float32 sum rounds (an int64 one is at most
    2|E|, below 2**63, by the Multigraph check).  Only the rows in work are
    carried from wave to wave, and a row is written back once, when it is
    done.  Firing keeps an effective row effective with its degree, so a
    float32 row's chips stay in [0, degree] and each delta is at most a
    valence, below 2**24: every sum is exact.
    """
    out = np.array(chips)
    vals = mult.sum(axis=1).astype(burn.dtype)
    rows, active = out, np.arange(len(out))
    while True:
        unburned = 1 - _burn_rows(burn, rows, q)
        alive = unburned @ vals > 0
        if not alive.all():
            if rows is not out:  # else the done rows are out's own, unchanged
                done = ~alive
                out[active[done]] = rows[done]
            if not alive.any():
                return out
            rows, unburned, active = rows[alive], unburned[alive], active[alive]
        rows += (unburned @ burn - unburned * vals).astype(rows.dtype, copy=False)
        if script is not None:
            _check_script(script, 1)
            script.append(frozenset(np.flatnonzero(unburned[0]).tolist()))


def _first_positive_rank_row(g, burn, degree):
    """The first 0-reduced positive-rank chip row of the given degree, in the
    order of chips[1:], or None when the degree has none; `burn` is
    _burn_matrix(g.mult), and g is connected.

    The candidates are the raw rows of a box, in chunks of at most
    CHUNK_ROWS rows (the caller checks it against CANDIDATE_BOX_BUDGET):
    off the basepoint 0 a 0-reduced divisor has at most val(v) - 1 chips (a
    heavier vertex could never burn), and a positive-rank one keeps a chip
    on 0, so chips[1:] totals at most degree - 1 and the rest is on 0.

    Positive rank <=> every vertex q holds a chip in some effective divisor
    equivalent to the row.  The row covers its own support (vertex 0 among
    it) and each q-reduction met covers the support of the reduced row, so a
    row is reduced at q only while q is uncovered, and kept when the
    reduction covers q; one basepoint at a time, cheapest rejections first.
    Positive rank is a property of the divisor class, so these q-filters run
    on the raw box rows, and the burn at 0 only on their survivors: the
    0-reduced rows kept are the same rows in the same order.

    The candidates are built in burn's dtype, chips[0] as degree minus the
    product of chips[1:] with a ones vector, and the burn at 0 keeps the rows
    whose burned count, a product too, is n.  degree <= n <= 5,792, so every
    chip, of a row or of a q-reduction of it, lies in [0, degree] and every
    count is at most n: all exact in float32 (see the module docstring).
    The witness is returned as int64.
    """
    ones = np.ones(g.n, dtype=burn.dtype)
    for rows in _box_chunks(_box_bounds(g), degree - 1):
        candidates = np.empty((rows.shape[0], g.n), dtype=burn.dtype)
        candidates[:, 1:] = rows
        candidates[:, 0] = degree - candidates[:, 1:] @ ones[1:]
        covered = candidates > 0
        for q in range(1, g.n):
            if not candidates.shape[0]:
                break
            todo = ~covered[:, q]
            if todo.any():
                covered[todo] |= _batch_reduce_effective(g.mult, burn, candidates[todo], q) > 0
                keep = covered[:, q]
                candidates, covered = candidates[keep], covered[keep]
        if candidates.shape[0]:
            candidates = candidates[_burn_rows(burn, candidates, 0) @ ones == g.n]
            if candidates.shape[0]:
                return candidates[0].astype(np.int64)  # Divisor takes no floats
    return None


def _scan_bounds(g, lower):
    """(lower, start, upper) for a connected g and a sound lower bound on
    gon(g): lower raised to 1; upper the positive-rank bound min(genus + 1,
    n - alpha) on a simple g of two or more vertices, else min(genus + 1, n)
    (genus + 1 = |E| - n + 2 chips on one vertex, by Riemann-Roch for
    graphs; one chip on each vertex outside a maximum independent set, or on
    every vertex); start, lower raised to the edge scramble's order (sn <=
    gon) where it is below upper.  alpha, which both read, is worked out
    only where lower is not min(genus + 1, n), or is n < genus + 1 on a
    simple g."""
    lower = max(lower, 1)
    genus_bound = g.edge_count() - g.n + 2
    upper = min(genus_bound, g.n)
    simple = g.n >= 2 and g.is_simple()
    if lower != upper or (simple and upper < genus_bound):
        alpha = inv.independence_number(g)
        if simple:
            upper = min(upper, g.n - alpha)
    if lower > upper:
        raise ValueError("gonality lower bound %d exceeds upper bound %d" % (lower, upper))
    start = max(lower, sc._edge_scramble_order(g, alpha)) if lower < upper else lower
    return lower, start, upper


def _sandwich(g, lower, witness=False):
    """(start, gon(g), row) for a connected g and a sound lower bound on
    gon(g): start and upper are `_scan_bounds`' (alpha is read only where
    lower is below min(genus + 1, n)), and row the first 0-reduced
    positive-rank row of degree gon(g), in the order of chips[1:], or None.
    Degrees from start up are scanned, through upper with `witness`, else
    below it (none there proves gon = upper); each positive-rank class has a
    0-reduced representative with a chip on vertex 0.  Where any degree is
    scanned, each degree's candidate box from lower up is checked before it
    is, on one `_box_rows` count of every total the search may check, so a
    refusal names the first over-budget degree from lower up."""
    lower, start, upper = _scan_bounds(g, lower)
    stop = upper + 1 if witness else upper
    if start < stop:  # else nothing is scanned or checked: gon = upper
        rows, burn = _box_rows(_box_bounds(g), stop - 2), _burn_matrix(g.mult)
        for degree in range(lower, stop):
            _check_box(g, rows, degree)
            row = _first_positive_rank_row(g, burn, degree) if degree >= start else None
            if row is not None:
                return start, degree, row
    return start, upper, None


def gonality(g):
    """Exact gonality with a positive-rank witness divisor: the 0-reduced one
    of least degree with the lexicographically least chips[1:], from
    `_sandwich` with the vertex scramble's order as its lower bound.  Raises
    CandidateBudgetError, before scanning it, when a degree's candidate box
    would exceed CANDIDATE_BOX_BUDGET, naming the first such degree from
    that order up; when that is the order itself, before alpha or any
    edge-scramble flow is worked out.  alpha is read only where the order is
    below min(genus + 1, n) (`_scan_bounds`)."""
    lam = inv.edge_connectivity(g)
    if lam == 0 and g.n > 1:  # exactly a disconnected g
        raise ValueError("gonality needs a connected graph")
    lower = sc.vertex_scramble_order(g.n, lam)
    _check_box(g, _box_rows(_box_bounds(g), lower - 1), lower)  # before alpha is computed
    _, value, row = _sandwich(g, lower, witness=True)
    if row is None:
        raise RuntimeError("soundness bug: no positive-rank divisor of degree <= %d found" % value)
    return value, Divisor(g, row)
