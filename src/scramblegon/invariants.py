"""Standard multigraph invariants: connectivity, boundaries, bridges and the
exact independence number.

Edge connectivity and min cuts respect edge multiplicities throughout; vertex
connectivity is taken on the underlying simple graph with the convention
kappa(K_n) = n - 1 and kappa = lambda = 0 for disconnected graphs.

Every graph traversal (components, connected vertex sets and eggs, the BFS
layers of q-reduction, bridge sides, complete-bipartite parts and the
hitting-set search's egg groups) runs on one BFS routine, `_bfs`; only the
brute-force sn oracle, whose eggs are bitmasks, grows its components on
adjacency bitmasks.  Every flow (min cuts between vertex sets and eggs, edge
connectivity, and the local vertex connectivities on the vertex-split
digraph) runs in one capped max-flow routine, `_min_cut`; kappa is found by
Esfahanian-Hakimi.  `_min_cut` reads capacity rows and neighbour lists built
by its caller, so the connectivities, the egg-cut scan and the brute-force
oracle build them once per call; each flow pushes its paths on those rows
and takes them back before it returns.  Bridges come from a low-link DFS.
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


def edge_connectivity(g):
    """Minimum edge cut counted with multiplicity: the least cut between
    vertex 0 and some other vertex, each flow capped at the running minimum,
    which starts at the minimum degree."""
    n = g.n
    rows = g.mult.tolist()
    nbrs = _adjacency(g.mult)
    best = min_degree(g)
    for v in range(1, n):
        best = min(best, _min_cut(rows, nbrs, [0], [v], best)[0])
    return best


def vertex_connectivity(g):
    """Vertex connectivity of the underlying simple graph (Esfahanian-Hakimi).

    Take a vertex v (one of minimum degree, which leaves the fewest flows)
    and a minimum separator S.  If v is not in S it is cut from some
    non-neighbour; if it is, v has a neighbour in every component of G - S
    (else S - v would separate), so two non-adjacent neighbours of v are cut
    by S.  So local connectivities from v to each non-neighbour and between
    each non-adjacent pair of neighbours reach kappa; each flow is capped at
    the running minimum, which starts at the minimum degree.
    """
    n = g.n
    if n == 1:
        return 0
    adj = _adjacency(g.mult)
    if all(len(a) == n - 1 for a in adj):
        # every pair adjacent: Menger has no non-adjacent pair to cut
        return n - 1
    # split digraph, a capacity dict per split vertex with reverse arcs at 0:
    # v_in = 2v -> v_out = 2v+1 and u_out -> v_in per edge uv at capacity 1;
    # flows run from s_out to t_in, so s and t are uncapped
    split = []
    for v in range(n):
        split.append({2 * v + 1: 1, **{2 * u + 1: 0 for u in adj[v]}})
        split.append({2 * v: 0, **{2 * u: 1 for u in adj[v]}})
    near = [set(a) for a in adj]
    best = min(len(a) for a in adj)
    v = next(x for x in range(n) if len(adj[x]) == best)
    pairs = [(v, w) for w in range(n) if w != v and w not in near[v]]
    pairs += [(x, y) for i, x in enumerate(adj[v]) for y in adj[v][i + 1:] if y not in near[x]]
    nbrs = [list(row) for row in split]
    for s, t in pairs:
        best = min(best, _min_cut(split, nbrs, [2 * s + 1], [2 * t], best)[0])
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

    Augmenting paths (Edmonds-Karp) on the multiplicity matrix, searched
    breadth-first from all of side_a at once, so side_a and side_b act as
    contracted source and sink.  Returns (value, source_side):

    - when the cut is below `limit`, value is exact and source_side is the
      maximal A of a minimum cut: side_a <= A, A disjoint from side_b, A
      holding every vertex that cannot reach side_b in the final residual
      graph;
    - otherwise the search stops as soon as the flow reaches `limit` and
      returns (value, None) with value >= limit.

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
    positive rows[u][v] or rows[v][u].  The augmenting paths are pushed on
    `rows` itself and taken back before the cut returns, so a caller running
    many cuts on one graph builds its rows once and every cut reads them as
    they were.
    """
    n = len(rows)
    sinks = [False] * n
    for v in side_b:
        sinks[v] = True
    value = 0
    pushed = []
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
            v = u
        value += push
        pushed.append((end, parent, push))
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
    for end, parent, push in pushed:
        v = end
        while parent[v] != v:
            u = parent[v]
            rows[u][v] += push
            rows[v][u] -= push
            v = u
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
    adj = [0] * n
    for u, v, _ in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u

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
    for comp in components(g):
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
