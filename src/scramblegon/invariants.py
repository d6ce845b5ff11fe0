"""Standard multigraph invariants: connectivity, boundaries, bridges and the
exact independence number.

Edge connectivity and min cuts respect edge multiplicities throughout; vertex
connectivity is taken on the underlying simple graph with the convention
kappa(K_n) = n - 1 and kappa = lambda = 0 for disconnected graphs.
"""

import math
from collections import deque

import networkx as nx
import numpy as np


def to_networkx(g):
    """Weighted simple nx.Graph; multiplicity stored as weight and capacity."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for u, v, k in g.edges():
        nxg.add_edge(u, v, weight=k, capacity=k)
    return nxg


def min_degree(g):
    return int(g.valences().min())


def components(g):
    """Connected components as a list of frozensets, sorted by smallest member."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    comp.add(u)
                    queue.append(u)
        out.append(frozenset(comp))
    return out


def is_connected(g):
    return len(components(g)) == 1


def is_connected_subset(g, vertices):
    """True when the induced subgraph on `vertices` is nonempty and connected."""
    vs = set(vertices)
    if not vs:
        return False
    if not all(0 <= v < g.n for v in vs):
        raise ValueError("vertex out of range")
    start = next(iter(vs))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u in vs and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == vs


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
    if g.n == 1 or not is_connected(g):
        return 0
    value, _ = nx.stoer_wagner(to_networkx(g))
    return int(value)


def vertex_connectivity(g):
    if g.n == 1 or not is_connected(g):
        return 0
    simple = g.underlying_simple()
    if (simple.mult.sum(axis=1) == g.n - 1).all():
        # every pair adjacent: Menger has no non-adjacent pair to cut
        return g.n - 1
    return int(nx.node_connectivity(to_networkx(simple)))


def bridges(g):
    """Cut edges; a parallel class of multiplicity >= 2 is never a bridge."""
    simple = to_networkx(g.underlying_simple())
    out = []
    for u, v in nx.bridges(simple):
        if g.mult[u, v] == 1:
            out.append((min(u, v), max(u, v)))
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
    n = g.n
    if not all(0 <= v < n for v in sa | sb):
        raise ValueError("vertex out of range")
    residual = g.mult.tolist()
    nbrs = [[v for v, k in enumerate(row) if k] for row in residual]
    sinks = [False] * n
    for v in sb:
        sinks[v] = True
    sources = list(sa)
    value = 0
    while value < limit:
        parent = [-1] * n
        for s in sources:
            parent[s] = s
        queue = list(sources)
        end = -1
        for u in queue:
            row = residual[u]
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
            push = min(push, residual[u][v])
            v = u
        v = end
        while parent[v] != v:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        value += push
    if value >= limit:
        return value, None
    # vertices that still reach side_b, found backwards from it
    reach = sinks
    queue = list(sb)
    for v in queue:
        for u in nbrs[v]:
            if not reach[u] and residual[u][v]:
                reach[u] = True
                queue.append(u)
    return value, frozenset(v for v in range(n) if not reach[v])


def independence_number(g, require_simple=False):
    """Exact maximum independent set size (branch and bound).

    Multiplicities are ignored unless require_simple is set, in which case a
    true multigraph is rejected.
    """
    return len(max_independent_set(g, require_simple=require_simple))


def max_independent_set(g, require_simple=False):
    """A maximum independent set of the underlying simple graph, as a frozenset."""
    if require_simple and not g.is_simple():
        raise ValueError("graph has parallel edges but simplicity was required")
    n = g.n
    adj = [0] * n
    for u, v, _ in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    best = [0, 0]  # size, mask

    # greedy warm start: repeatedly take a minimum-degree vertex
    cand = (1 << n) - 1
    greedy = 0
    while cand:
        v = min((x for x in range(n) if cand >> x & 1),
                key=lambda x: bin(adj[x] & cand).count("1"))
        greedy |= 1 << v
        cand &= ~(adj[v] | 1 << v)
    best[0], best[1] = bin(greedy).count("1"), greedy

    def grow(cand, chosen_mask, chosen_size):
        if chosen_size + bin(cand).count("1") <= best[0]:
            return
        if not cand:
            if chosen_size > best[0]:
                best[0], best[1] = chosen_size, chosen_mask
            return
        # branch on a max-degree candidate: either exclude it or take it
        v = max((x for x in range(n) if cand >> x & 1),
                key=lambda x: bin(adj[x] & cand).count("1"))
        if not adj[v] & cand:
            # isolated within candidates: always take
            grow(cand & ~(1 << v), chosen_mask | 1 << v, chosen_size + 1)
            return
        grow(cand & ~(adj[v] | 1 << v), chosen_mask | 1 << v, chosen_size + 1)
        grow(cand & ~(1 << v), chosen_mask, chosen_size)

    grow((1 << n) - 1, 0, 0)
    return frozenset(v for v in range(n) if best[1] >> v & 1)
