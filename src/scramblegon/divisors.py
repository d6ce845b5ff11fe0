"""Chip-firing divisor theory: firing moves, Dhar's burning algorithm,
q-reduced normal forms, truncated rank, and exact gonality search.

Divisors are integer chip vectors on the vertices of a host multigraph.
Equivalence is always decided through the unique q-reduced representative.
"""

import itertools
from collections import deque

import numpy as np

from . import invariants as inv


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
        return int(self.chips.sum())

    def is_effective(self):
        return bool((self.chips >= 0).all())

    def __getitem__(self, v):
        return int(self.chips[v])

    def with_chips(self, v, delta):
        c = np.array(self.chips)
        c[v] += delta
        return Divisor(self.graph, c)

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
    g = divisor.graph
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    chips = divisor.chips + g.mult[v]
    chips = np.array(chips)
    chips[v] -= g.valence(v)
    return Divisor(g, chips)


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


def _burn_rows(mult, chips, q):
    """Vertices burned by a fire started at q, for every row of a chip matrix.

    A vertex burns once its burning incident edges outnumber its chips; the
    closure is monotone, so the iteration order is irrelevant.  chips[:, q] is
    never consulted.
    """
    # float32 products take BLAS, many times faster than integer matmul, and
    # are exact while every valence is below 2**24
    if mult.sum(axis=1).max() < 2**24:
        mult = mult.astype(np.float32)
    burned = np.zeros(chips.shape, dtype=bool)
    burned[:, q] = True
    while True:
        fresh = ~burned & (burned @ mult > chips)
        if not fresh.any():
            return burned
        burned |= fresh


def _burn_mask(mult, chips, q):
    """_burn_rows for one chip vector; on a single row the integer product
    costs less than the batch set-up."""
    burned = np.zeros(mult.shape[0], dtype=bool)
    burned[q] = True
    while True:
        fresh = ~burned & (mult @ burned > chips)
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
    burned = _burn_mask(g.mult, chips, q)
    verts = np.arange(g.n)
    return BurnResult(verts[burned].tolist(), verts[~burned].tolist())


def _bfs_distances(mult, q):
    n = mult.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[q] = 0
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for u in np.nonzero(mult[v])[0]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(int(u))
    return dist


def _reduce_chips(mult, chips, q, script=None):
    """In-place-style q-reduction of a raw chip vector; returns the new vector.

    Phase 1 clears debt outside q, one BFS layer at a time starting from the
    farthest layer: firing the ball of radius k-1 hands every layer-k vertex
    at least one chip per firing while touching no farther layer.  Phase 2 is
    the usual Dhar loop, firing the unburned set until everything burns.
    """
    chips = np.array(chips, dtype=np.int64)
    dist = _bfs_distances(mult, q)
    if (dist < 0).any():
        raise ValueError("q-reduction needs a connected host graph")

    for layer in range(int(dist.max()), 0, -1):
        on_layer = dist == layer
        worst = int(chips[on_layer].min())
        if worst >= 0:
            continue
        ball = dist < layer
        delta = _fire_set_delta(mult, ball)
        chips += (-worst) * delta
        if script is not None:
            members = frozenset(np.nonzero(ball)[0].tolist())
            script.extend([members] * (-worst))

    while True:
        burned = _burn_mask(mult, chips, q)
        if burned.all():
            return chips
        chips += _fire_set_delta(mult, ~burned)
        if script is not None:
            script.append(frozenset(np.nonzero(~burned)[0].tolist()))


def q_reduce(divisor, q, with_script=False):
    """The unique q-reduced divisor equivalent to the input.

    With with_script=True also returns the list of vertex sets whose
    successive simultaneous firings transform the input into the output.
    """
    g = divisor.graph
    if not 0 <= q < g.n:
        raise ValueError("vertex out of range")
    script = [] if with_script else None
    chips = _reduce_chips(g.mult, divisor.chips, q, script)
    reduced = Divisor(g, chips)
    if with_script:
        return reduced, script
    return reduced


def is_q_reduced(divisor, q):
    chips = divisor.chips
    if (np.delete(chips, q) < 0).any():
        return False
    return bool(_burn_mask(divisor.graph.mult, chips, q).all())


def has_positive_rank(divisor):
    """True iff rank >= 1: every vertex can be handed a chip.

    D - (q) is equivalent to an effective divisor exactly when the q-reduced
    form of D keeps at least one chip on q.
    """
    g = divisor.graph
    mult = g.mult
    return all(int(_reduce_chips(mult, divisor.chips, q)[q]) >= 1 for q in range(g.n))


def rank(divisor, cap):
    """Truncated rank in {-1, 0, ..., cap} (exact up to the cap).

    Quantifies over all effective divisors E of each degree r <= cap,
    enumerated as vertex multisets, and checks D - E against an effective
    divisor via reduction at a debt vertex of E.
    """
    if cap < 0:
        raise ValueError("rank cap must be >= 0")
    g = divisor.graph
    mult = g.mult
    if int(_reduce_chips(mult, divisor.chips, 0)[0]) < 0:
        return -1
    result = 0
    for r in range(1, cap + 1):
        for probe in itertools.combinations_with_replacement(range(g.n), r):
            chips = np.array(divisor.chips)
            for v in probe:
                chips[v] -= 1
            q = probe[0]
            if int(_reduce_chips(mult, chips, q)[q]) < 0:
                return result
        result = r
    return result


# Bytes the int64 chip matrix of one degree's full candidate box would take.
# The box is streamed CHUNK_ROWS rows at a time and never built whole, so
# memory is bounded by the chunk; the budget now bounds the work of one degree,
# and refuses the same (graph, degree) pairs as when the box was materialised.
CANDIDATE_BOX_BUDGET = 256 * 2**20

# Candidate rows filtered together: of 1,024 to 8,192, 2,048 was fastest on
# the benchmark's gonality ladder (products and cones on 9-15 vertices).
CHUNK_ROWS = 2048


class CandidateBudgetError(ValueError):
    """A gonality search would scan a candidate box over CANDIDATE_BOX_BUDGET."""


def _box_rows(bounds, total_max):
    """Row count of _bounded_vectors(bounds, total_max), without building it."""
    ways = [1] + [0] * total_max  # ways[s]: rows of the columns so far summing to s
    for b in bounds:
        ways = [sum(ways[max(0, s - b):s + 1]) for s in range(total_max + 1)]
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
    a chunk of rows, never the whole box.
    """
    k = max(len(bounds) - 1, 0)
    while k and _box_rows(bounds[k - 1:], total_max) <= CHUNK_ROWS:
        k -= 1
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


def _reduced_effective_divisors(g, degree):
    """The 0-reduced effective divisors of the given degree that keep a chip on
    vertex 0, as chip matrices of at most CHUNK_ROWS rows, ordered by chips[1:].

    Away from the basepoint 0 a 0-reduced divisor carries at most val(v) - 1
    chips (a heavier vertex could never burn), so the candidates are the rows
    of a bounded box; only rows of total <= degree - 1 are scanned, as a
    positive-rank divisor keeps a chip on 0 in its 0-reduced form.  A batch
    Dhar filter keeps exactly the reduced ones.
    """
    n = g.n
    bounds = [int(val) - 1 for val in g.valences()[1:]]
    box_bytes = _box_rows(bounds, degree) * n * 8
    if box_bytes > CANDIDATE_BOX_BUDGET:
        raise CandidateBudgetError(
            "the degree-%d candidate box would take %.1f MiB of chips, over the "
            "%d MiB candidate-box budget" % (degree, box_bytes / 2**20, CANDIDATE_BOX_BUDGET >> 20))
    for rows in _box_chunks(bounds, degree - 1):
        chips = np.empty((rows.shape[0], n), dtype=np.int64)
        chips[:, 0] = degree - rows.sum(axis=1)
        chips[:, 1:] = rows
        yield chips[_burn_rows(g.mult, chips, 0).all(axis=1)]


def _batch_reduce_effective(mult, chips, q):
    """q-reduce many effective chip rows at once (Dhar loop only; no debt to
    clear).  Returns the matrix of reduced rows, order preserved."""
    chips = np.array(chips)
    vals = mult.sum(axis=1)
    active = np.arange(chips.shape[0])
    while active.size:
        burned = _burn_rows(mult, chips[active], q)
        alive = ~burned.all(axis=1)
        if not alive.any():
            break
        unburned = ~burned[alive]
        chips[active[alive]] += unburned @ mult - unburned * vals
        active = active[alive]
    return chips


def gonality(g, lower_hint=None, upper_hint=None):
    """Exact gonality with a positive-rank witness divisor.

    Searches degrees from a connectivity lower bound up to n - alpha for
    simple graphs (2|E| for true multigraphs), enumerating only 0-reduced
    effective candidates with a chip on vertex 0: every divisor class of
    positive rank has such a representative, so the pruning is lossless.
    Each degree's candidates are streamed in a fixed order and the search
    stops at the first positive-rank one, so the witness is the 0-reduced
    positive-rank divisor of minimal degree with the lexicographically least
    chips[1:], whatever the hints.  Raises CandidateBudgetError, before
    scanning it, when a degree's candidate box would exceed
    CANDIDATE_BOX_BUDGET.
    """
    if not inv.is_connected(g):
        raise ValueError("gonality needs a connected graph")
    n = g.n
    if n == 1:
        # single vertex: one chip already has positive rank, zero chips do not
        return 1, Divisor(g, [1])
    lower = lower_hint if lower_hint is not None else max(1, min(inv.edge_connectivity(g), n))
    if upper_hint is not None:
        upper = upper_hint
    elif g.is_simple():
        upper = n - inv.independence_number(g)
    else:
        upper = 2 * g.edge_count()
    if lower > upper:
        raise ValueError("lower hint %d exceeds upper hint %d" % (lower, upper))

    mult = g.mult
    # on two or more vertices no divisor of degree < 1 has positive rank
    for degree in range(max(lower, 1), upper + 1):
        for candidates in _reduced_effective_divisors(g, degree):
            # positive rank <=> every q-reduction keeps a chip on q, which holds
            # at q = 0 already; filter one basepoint at a time, cheapest
            # rejections first
            for q in range(1, n):
                if not candidates.shape[0]:
                    break
                reduced = _batch_reduce_effective(mult, candidates, q)
                candidates = candidates[reduced[:, q] >= 1]
            if candidates.shape[0]:
                return degree, Divisor(g, candidates[0])
    raise RuntimeError("no positive-rank divisor of degree <= %d found; "
                       "an upper hint below the true gonality?" % upper)
