"""Standard multigraph invariants: connectivity, boundaries, bridges and the
exact independence number.

Edge connectivity and min cuts respect edge multiplicities throughout; vertex
connectivity is taken on the underlying simple graph with the convention
kappa(K_n) = n - 1 and kappa = lambda = 0 for disconnected graphs.

Every graph traversal (components, connected vertex sets and eggs, the BFS
layers of q-reduction, bridge sides, complete-bipartite parts and the
hitting-set search's egg groups, and the BFS order and base-point orbits of
the automorphism search) runs on one BFS routine, `_bfs`; only the
brute-force sn oracle, whose eggs are bitmasks, grows its components on
adjacency bitmasks.  Every flow (min cuts between vertex sets and eggs, edge
connectivity, and the local vertex connectivities on the vertex-split
digraph) runs in one capped max-flow routine, `_min_cut`; kappa is found by
Esfahanian-Hakimi.  `_min_cut` reads capacity rows and neighbour lists built
by its caller, so the connectivities and the egg-cut scan build them once
per call; each flow starts from the paths of at most two arcs between its
sides, pushes its paths on those rows and takes them back before it
returns.  The brute-force oracle runs no flow: it reads its egg pairs' cuts
from a table of every vertex set's boundary.  Bridges come from a low-link
DFS.

`_automorphism_generators` finds host automorphisms for the egg-cut scan by
individualisation and refinement, within a fixed node budget, and keeps a
map only once it has checked that the map is an automorphism.
"""

import math

import numpy as np


def min_degree(g):
    return int(g.valences().min())


def _adjacency(mult):
    """Neighbour lists, ascending, of a numpy multiplicity matrix."""
    return [row.nonzero()[0].tolist() for row in mult]


def _bfs(nbrs, source, allowed=None):
    """Breadth-first distances from `source` over the adjacency lists `nbrs`,
    as a dict holding the vertices reached in visiting order.  With `allowed`
    (a flag per vertex) the search stays on the flagged vertices."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        d = dist[v] + 1
        for u in nbrs[v]:
            if u not in dist and (allowed is None or allowed[u]):
                dist[u] = d
                queue.append(u)
    return dist


def _flagged_components(nbrs, left):
    """Components, as `_bfs` dicts sorted by smallest member, of the vertices
    flagged in `left`; the flags are cleared as the vertices are reached."""
    out = []
    for s in range(len(left)):
        if left[s]:
            comp = _bfs(nbrs, s, left)
            for v in comp:
                left[v] = False
            out.append(comp)
    return out


def components(g, vertices=None):
    """Connected components of g, or of its subgraph induced on `vertices`,
    as a list of frozensets sorted by smallest member."""
    n = g.n
    vs = range(n) if vertices is None else sorted(set(vertices))
    if vs and not 0 <= vs[0] <= vs[-1] < n:
        raise ValueError("vertex out of range")
    left = [False] * n
    for v in vs:
        left[v] = True
    # the search reads the neighbour lists of kept vertices only
    nbrs = dict(zip(vs, _adjacency(g.mult[list(vs)])))
    return [frozenset(comp) for comp in _flagged_components(nbrs, left)]


def is_connected(g):
    return len(components(g)) == 1


def is_connected_subset(g, vertices):
    """True when the induced subgraph on `vertices` is nonempty and connected."""
    return len(components(g, vertices)) == 1


def edge_boundary(g, vertices):
    """|E(A, A^C)| counted with multiplicity; rejects empty and full A."""
    vs = sorted(set(vertices))
    if not vs or len(vs) == g.n:
        raise ValueError("edge boundary needs a proper nonempty vertex subset")
    if not all(0 <= v < g.n for v in vs):
        raise ValueError("vertex out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[vs] = True
    return int(g.mult[np.ix_(mask, ~mask)].sum())


def _dominating_set(nbrs):
    """A dominating set of the simple graph with neighbour lists `nbrs`, in
    the order it is picked: each pick, the least vertex on ties, dominates
    the most vertices not yet dominated."""
    closed = [1 << v for v in range(len(nbrs))]
    for v, near in enumerate(nbrs):
        for u in near:
            closed[v] |= 1 << u
    left = (1 << len(nbrs)) - 1
    out = []
    while left:
        gains = [(mask & left).bit_count() for mask in closed]
        out.append(gains.index(max(gains)))
        left &= ~closed[out[-1]]
    return out


def edge_connectivity(g):
    """Minimum edge cut counted with multiplicity: the least cut between a
    source and each of its sinks, each flow capped at the running minimum,
    which starts at the minimum degree delta.  A simple graph with 2 delta
    >= n - 1 is connected with lambda = delta (G. Chartrand, "A
    graph-theoretic approach to a communications problem", SIAM J. Appl.
    Math. 14, 1966), so it runs no flow.  On any other simple graph the
    source and sinks are a greedy dominating set D (`_dominating_set`): if
    lambda < delta, each side of a least cut holds a vertex with no
    neighbour across, so it holds a vertex of D (D. W. Matula, "Determining
    edge connectivity in O(nm)", FOCS 1987).  A multigraph flows from
    vertex 0 to every other vertex."""
    n = g.n
    best = min_degree(g)
    simple = g.is_simple()
    if 2 * best >= n - 1 and simple:
        return best
    nbrs = _adjacency(g.mult)
    source, *sinks = _dominating_set(nbrs) if simple else range(n)
    rows = g.mult.tolist()
    for v in sinks:
        best = min(best, _min_cut(rows, nbrs, [source], [v], best)[0])
    return best


def vertex_connectivity(g):
    """Vertex connectivity of the underlying simple graph (Esfahanian-Hakimi).

    Take a vertex v (one of minimum degree, which leaves the fewest flows)
    and a minimum separator S.  If v is not in S it is cut from some
    non-neighbour; if it is, v has a neighbour in every component of G - S
    (else S - v would separate), so two non-adjacent neighbours of v are cut
    by S.  So local connectivities from v to each non-neighbour and between
    each non-adjacent pair of neighbours reach kappa; each flow is capped at
    the running minimum, which starts at the minimum degree.  Each of the c
    common neighbours of a pair is one more internally disjoint path between
    them and lies in every separator of the two, so a pair with c at least
    the running minimum runs no flow, and any other pair's flow runs with
    its common neighbours blocked, capped at the running minimum less c,
    and adds c.  The split digraph is built only for the first pair that
    runs a flow.  With every pair adjacent no pair is flowed, and the
    minimum degree n - 1 (0 on one vertex) is kappa(K_n).
    """
    n = g.n
    adj = _adjacency(g.mult)
    near = [set(a) for a in adj]
    best = min(len(a) for a in adj)
    v = next(x for x in range(n) if len(adj[x]) == best)
    pairs = [(v, w) for w in range(n) if w != v and w not in near[v]]
    pairs += [(x, y) for i, x in enumerate(adj[v]) for y in adj[v][i + 1:] if y not in near[x]]
    split = None
    for s, t in pairs:
        common = near[s] & near[t]
        if len(common) >= best:
            continue
        if split is None:
            # split digraph, a capacity dict per split vertex with reverse arcs
            # at 0: v_in = 2v -> v_out = 2v+1 and u_out -> v_in per edge uv at
            # capacity 1; flows run from s_out to t_in, so s, t are uncapped
            split = []
            for x in range(n):
                split.append({2 * x + 1: 1, **{2 * u + 1: 0 for u in adj[x]}})
                split.append({2 * x: 0, **{2 * u: 1 for u in adj[x]}})
            nbrs = [list(row) for row in split]
        for x in common:
            split[2 * x][2 * x + 1] = 0
        c = len(common)
        best = min(best, c + _min_cut(split, nbrs, [2 * s + 1], [2 * t], best - c)[0])
        for x in common:
            split[2 * x][2 * x + 1] = 1
    return best


def bridges(g):
    """Cut edges; a parallel class of multiplicity >= 2 is never a bridge.

    One iterative low-link DFS over the underlying simple graph."""
    rows = g.mult.tolist()
    adj = _adjacency(g.mult)
    n = g.n
    order = [-1] * n
    low = [0] * n
    count = 0
    out = []
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, rest = stack[-1]
            for u in rest:
                if u == parent:
                    continue
                if order[u] < 0:
                    order[u] = low[u] = count
                    count += 1
                    stack.append((u, v, iter(adj[u])))
                    break
                low[v] = min(low[v], order[u])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent] and rows[parent][v] == 1:
                        out.append((min(parent, v), max(parent, v)))
    return sorted(out)


def min_cut_between(g, side_a, side_b, limit=math.inf):
    """Minimum edge cut separating vertex set side_a from side_b, stopping
    early once the cut is known to be at least `limit`.

    A max-flow on the multiplicity matrix with side_a and side_b contracted
    to source and sink, seeded with the paths of at most two edges between
    them (`_min_cut`).  Returns (value, source_side):

    - when the cut is below `limit`, value is exact and source_side is the
      maximal A of a minimum cut: side_a <= A, A disjoint from side_b, A
      holding every vertex that cannot reach side_b in the final residual
      graph;
    - otherwise the flow stops once it reaches `limit` and returns
      (value, None) for some value with limit <= value <= the cut.

    Sides must be disjoint and nonempty.
    """
    sa, sb = set(side_a), set(side_b)
    if not sa or not sb or sa & sb:
        raise ValueError("sides must be disjoint nonempty vertex sets")
    if not all(0 <= v < g.n for v in sa | sb):
        raise ValueError("vertex out of range")
    return _min_cut(g.mult.tolist(), _adjacency(g.mult), sa, sb, limit)


def _min_cut(rows, nbrs, side_a, side_b, limit):
    """`min_cut_between` on capacity rows and neighbour lists built by the
    caller, for sides already checked: the package's one max-flow routine.

    `rows` holds a capacity row per vertex, possibly directed: a list, or a
    dict with an entry for each v in `nbrs[u]`, which lists every v with a
    positive rows[u][v] or rows[v][u].  The flow is seeded with every path of
    at most two arcs from side_a to side_b, found in one pass over the arcs
    next to the two sides; breadth-first augmenting paths then complete it,
    unless the seed already reaches `limit`.  Every maximum flow leaves the
    same vertices reaching side_b, so the seed changes no value or side below
    `limit`.  All paths are pushed on `rows` itself and taken back before
    the cut returns, so a caller running many cuts on one graph builds its
    rows once and every cut reads them as they were.
    """
    n = len(rows)
    sinks = [False] * n
    for v in side_b:
        sinks[v] = True
    value = 0
    pushed = []  # (u, v, push) for each push on the arc uv, seed or path
    feeds = {}  # each vertex off side_b: the ends of its arcs from side_a
    for a in side_a:
        row = rows[a]
        for v in nbrs[a]:
            if row[v] and sinks[v]:
                pushed.append((a, v, row[v]))
                value += row[v]
                rows[v][a] += row[v]
                row[v] = 0
            elif row[v] and v in feeds:
                feeds[v].append(a)
            elif row[v]:
                feeds[v] = [a]
        if value >= limit:
            break
    for b in side_b:
        if value >= limit or not feeds:
            break
        for w in nbrs[b]:
            if w in feeds and rows[w][b]:
                for a in feeds[w]:
                    push = min(rows[a][w], rows[w][b])
                    if push and value < limit:
                        for u, v in ((a, w), (w, b)):
                            rows[u][v] -= push
                            rows[v][u] += push
                            pushed.append((u, v, push))
                        value += push
    while value < limit:
        parent = [-1] * n
        for s in side_a:
            parent[s] = s
        queue = list(side_a)
        end = -1
        for u in queue:
            row = rows[u]
            for v in nbrs[u]:
                if parent[v] < 0 and row[v]:
                    parent[v] = u
                    if sinks[v]:
                        end = v
                        break
                    queue.append(v)
            if end >= 0:
                break
        if end < 0:
            break
        push = math.inf
        v = end
        while parent[v] != v:
            u = parent[v]
            if rows[u][v] < push:
                push = rows[u][v]
            v = u
        v = end
        while parent[v] != v:
            u = parent[v]
            rows[u][v] -= push
            rows[v][u] += push
            pushed.append((u, v, push))
            v = u
        value += push
    side = None
    if value < limit:
        # vertices that still reach side_b, found backwards from it
        reach = sinks
        queue = list(side_b)
        for v in queue:
            for u in nbrs[v]:
                if not reach[u] and rows[u][v]:
                    reach[u] = True
                    queue.append(u)
        side = frozenset(v for v in range(n) if not reach[v])
    for u, v, push in pushed:
        rows[u][v] += push
        rows[v][u] -= push
    return value, side


def independence_number(g):
    """Exact maximum independent set size (branch and bound); multiplicities
    are ignored."""
    return len(max_independent_set(g))


def max_independent_set(g):
    """A maximum independent set of the underlying simple graph, as a
    frozenset.  No edge joins two components, so each is searched on its own
    and the union of their maximum sets is one.

    A candidate with at most one candidate neighbour is taken without a
    branch: a maximum set holding its neighbour instead holds it after a
    swap.  So a tree or a path is decided with no branch at all."""
    n = g.n
    nbrs = _adjacency(g.mult)
    adj = [sum(1 << u for u in row) for row in nbrs]

    def grow(cand, chosen_mask, chosen_size):
        while True:
            if chosen_size + cand.bit_count() <= best[0]:
                return
            if not cand:
                if chosen_size > best[0]:
                    best[0], best[1] = chosen_size, chosen_mask
                return
            # one pass over the candidates finds a forced one or else a
            # max-degree one to branch on
            v, top, rest = -1, -1, cand
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                degree = (adj[x] & cand).bit_count()
                if degree <= 1:
                    v, top = x, degree
                    break
                if degree > top:
                    v, top = x, degree
            if top > 1:
                break
            cand &= ~(adj[v] | 1 << v)
            chosen_mask |= 1 << v
            chosen_size += 1
        # branch on v: either take it or exclude it
        grow(cand & ~(adj[v] | 1 << v), chosen_mask | 1 << v, chosen_size + 1)
        grow(cand & ~(1 << v), chosen_mask, chosen_size)

    found = 0
    for comp in _flagged_components(nbrs, [True] * n):
        # greedy warm start: repeatedly take a minimum-degree vertex
        cand = everything = sum(1 << v for v in comp)
        greedy = 0
        while cand:
            v = min((x for x in range(n) if cand >> x & 1),
                    key=lambda x: (adj[x] & cand).bit_count())
            greedy |= 1 << v
            cand &= ~(adj[v] | 1 << v)
        best = [greedy.bit_count(), greedy]  # size, mask
        grow(everything, 0, 0)
        found |= best[1]
    return frozenset(v for v in range(n) if found >> v & 1)


# Search nodes one `_automorphism_generators` call may spend before it
# returns the generators found so far: a candidate image counts once, and
# once more for each mapped neighbour it is compared on, and a refinement
# round counts n times.
_AUTOMORPHISM_NODES = 500000


def _refine(arcs, colour, budget):
    """The coarsest equitable refinement of the colouring `colour` (ids
    0..k-1), each round charged to budget[0]: a vertex's colour is split by
    the sum, wrapping in int64, of its multiplicities to each colour times
    that colour's hash.  `arcs` holds the head and multiplicity of each arc,
    sorted by tail, the first arc of each tail and the hashes.  New ids rank
    the pairs (colour, sum), so two colourings that a permutation maps onto
    each other refine to colourings it still maps onto each other, whatever
    the vertex numbering."""
    head, weight, first, hashes = arcs
    count = int(colour.max()) + 1
    step = np.zeros(len(colour), dtype=bool)  # step[0] stays False
    while True:
        budget[0] -= len(colour)
        mark = np.add.reduceat(weight * hashes[colour[head]], first)
        order = np.lexsort((mark, colour))
        c, m = colour[order], mark[order]
        np.not_equal(c[1:], c[:-1], out=step[1:])
        step[1:] |= m[1:] != m[:-1]
        colour = np.empty_like(colour)
        colour[order] = np.cumsum(step)
        if colour[order[-1]] + 1 == count:
            return colour
        count = colour[order[-1]] + 1


def _individualise(arcs, colour, v, budget):
    """`colour` with v given a colour of its own, refined."""
    colour = colour.copy()
    colour[v] = colour.max() + 1
    return _refine(arcs, colour, budget)


def _extend(rows, nbrs, order, parent, mine, theirs, image, budget):
    """A bijection v -> image[v] that extends the entries of `image` other
    than -1, takes each v to a w with theirs[w] == mine[v] and keeps the
    multiplicity of every pair of vertices, the preset entries aside; None
    when the search finds none, or once budget[0] is spent.  The vertices
    are mapped depth first in `order`, each but the first to a neighbour of
    its `parent`'s image, with the multiplicity to each mapped neighbour's
    image that it has to that neighbour.  Every edge then goes to an edge of
    the same multiplicity, and as both sides hold the same edges, so does
    every pair."""
    used = [False] * len(rows)
    for w in image:
        if w >= 0:
            used[w] = True
    todo = [v for v in order if image[v] < 0]

    def options(v):
        """v's possible images, as a stack: the least on top."""
        p = parent[v]
        pool = range(len(rows)) if p < 0 else nbrs[image[p]]
        done = [u for u in nbrs[v] if image[u] >= 0]
        budget[0] -= len(pool) * (1 + len(done))
        return [w for w in reversed(pool)
                if not used[w] and theirs[w] == mine[v]
                and all(rows[w][image[u]] == rows[v][u] for u in done)]

    depth = 0  # todo[:depth] are mapped; stack[d] holds todo[d]'s options left
    stack = []
    while depth < len(todo):
        v = todo[depth]
        if len(stack) == depth:
            stack.append(options(v))
        elif image[v] >= 0:  # back at v: free its image
            used[image[v]] = False
            image[v] = -1
        if not stack[-1]:
            stack.pop()
            depth -= 1
            if depth < 0:
                return None
            continue
        if budget[0] <= 0:
            return None
        image[v] = stack[-1].pop()
        used[image[v]] = True
        depth += 1
    return image


def _automorphism_generators(g):
    """Generators of a subgroup of Aut(g), each a permutation P (a list, v
    -> P[v]) checked to satisfy mult[P][:, P] == mult; none on a
    disconnected g.

    Individualisation and refinement (B. McKay and A. Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 60, 2014) with one base
    point per level.  The base point b of a level is the first vertex in
    BFS order from vertex 0 whose colour class, in the colouring refined
    with the earlier base points fixed (`_refine`), holds another vertex.
    Each other vertex c of that class, unless the generators fixing the
    earlier base points already map b to it, is tried as b's image: the
    colourings refined with b fixed and with c fixed must have classes of
    the same sizes, and `_extend` maps the vertices in BFS order, each to a
    vertex of the matching colour whose mapped neighbours match.  The
    search stops at the first level that yields no generator, or once it
    has spent _AUTOMORPHISM_NODES nodes.  A map that is not an automorphism
    is never kept, so a faulty search loses generators and nothing more."""
    n = g.n
    nbrs = _adjacency(g.mult)
    dist = _bfs(nbrs, 0)
    if len(dist) < n or n == 1:
        return []
    order = list(dist)
    parent = [next((u for u in nbrs[v] if dist[u] < dist[v]), -1) for v in range(n)]
    rows = g.mult.tolist()
    tail, head = np.nonzero(g.mult)
    # a multiply and xor-shift mix of 1..n: one pseudo-random word per colour id
    hashes = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    hashes ^= hashes >> np.uint64(31)
    hashes *= np.uint64(0xBF58476D1CE4E5B9)
    hashes = (hashes ^ hashes >> np.uint64(27)).view(np.int64)
    arcs = head, g.mult[tail, head], np.flatnonzero(np.diff(tail, prepend=-1)), hashes
    budget = [_AUTOMORPHISM_NODES]
    colour = _refine(arcs, np.zeros(n, dtype=np.int64), budget)
    fixed = []
    generators = []
    while True:
        size = np.bincount(colour)
        base = next((v for v in order if size[colour[v]] > 1), None)
        if base is None:
            return generators
        mine = _individualise(arcs, colour, base, budget)
        mine_list = mine.tolist()
        stabiliser = [P for P in generators if all(P[b] == b for b in fixed)]
        orbit = _bfs([[P[x] for P in stabiliser] for x in range(n)], base)
        before = len(generators)
        for c in np.flatnonzero(colour == colour[base]).tolist():
            if budget[0] <= 0:
                return generators
            if c in orbit:
                continue
            theirs = _individualise(arcs, colour, c, budget)
            if not np.array_equal(np.bincount(mine), np.bincount(theirs)):
                continue
            image = [-1] * n
            for b in fixed:
                image[b] = b
            image[base] = c
            P = _extend(rows, nbrs, order, parent, mine_list, theirs.tolist(), image, budget)
            if P is not None and np.array_equal(g.mult[np.ix_(P, P)], g.mult):
                generators.append(P)
                stabiliser.append(P)
                orbit = _bfs([[P[x] for P in stabiliser] for x in range(n)], base)
        if len(generators) == before:
            return generators
        fixed.append(base)
        colour = mine
