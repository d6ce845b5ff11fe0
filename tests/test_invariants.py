import math
import os
import random
import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import oracles
import scramblegon
from scramblegon import invariants as inv
from scramblegon import multigraph as mg


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return mg.from_edge_list(10, [(u, v, 1) for u, v in outer + inner + spokes])


def test_connectivity_chain_on_random_graphs():
    rng = random.Random(11)
    for _ in range(15):
        g = oracles.random_connected_graph(rng, rng.randrange(3, 9), 0.5)
        kappa = inv.vertex_connectivity(g)
        lam = inv.edge_connectivity(g)
        assert 1 <= kappa <= lam <= inv.min_degree(g)


def test_known_connectivities():
    assert inv.edge_connectivity(mg.cycle(5)) == 2
    assert inv.edge_connectivity(mg.complete(6)) == 5
    assert inv.edge_connectivity(mg.path(4)) == 1
    assert inv.edge_connectivity(mg.cycle(2)) == 2  # doubled edge
    assert inv.vertex_connectivity(mg.complete(5)) == 4
    assert inv.vertex_connectivity(mg.cycle(5)) == 2
    assert inv.vertex_connectivity(mg.star(4)) == 1
    assert inv.vertex_connectivity(petersen()) == 3
    assert inv.edge_connectivity(petersen()) == 3


def test_disconnected_graph_invariants():
    g = mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    assert not inv.is_connected(g)
    assert inv.edge_connectivity(g) == 0
    assert inv.vertex_connectivity(g) == 0
    assert sorted(sorted(c) for c in inv.components(g)) == [[0, 1], [2, 3]]


def test_bridges():
    assert sorted(tuple(sorted(b)) for b in inv.bridges(mg.path(4))) == [(0, 1), (1, 2), (2, 3)]
    assert inv.bridges(mg.cycle(5)) == []
    # a doubled edge is never a bridge
    g = mg.from_edge_list(3, [(0, 1, 2), (1, 2, 1)])
    assert [tuple(sorted(b)) for b in inv.bridges(g)] == [(1, 2)]


def two_k4s_at_0():
    """Two K4s sharing vertex 0, so 0 is adjacent to every other vertex and
    {0} is the only minimum separator: the flows must start away from vertex
    0, here from the minimum-degree vertex 1 to its non-neighbours."""
    return mg.from_edge_list(7, [(u, v, 1) for part in ([0, 1, 2, 3], [0, 4, 5, 6])
                                 for i, u in enumerate(part) for v in part[i + 1:]])


def two_k6s_and_a_hub():
    """Two K6s and a 4-valent hub (vertex 12) joined to two vertices of each.
    The hub is the one minimum-degree vertex and {12} the only minimum
    separator, so kappa = 1 shows only in a flow between two neighbours of
    the hub; the hub's flows to its non-neighbours all carry 2."""
    k6s = [(u, v, 1) for base in (0, 6) for u in range(base, base + 6)
           for v in range(u + 1, base + 6)]
    return mg.from_edge_list(13, k6s + [(12, v, 1) for v in (0, 1, 6, 7)])


def _connectivity_cases():
    """Fixed shapes, then random simple graphs (possibly disconnected) and
    multigraphs with multiplicities up to 3 (connected or not)."""
    rng = random.Random(89)
    two_k4s = two_k4s_at_0()
    cases = [mg.path(1), mg.path(2), mg.cycle(2), two_k4s, two_k6s_and_a_hub(), petersen(),
             mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)]),
             mg.from_edge_list(5, [(1, 2, 2), (2, 3, 1)]),
             mg.from_edge_list(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])]
    cases += [mg.complete(n) for n in range(2, 7)]
    cases += [mg.random_tree(n, seed=rng.randrange(1 << 30)) for n in range(2, 9)]
    cases += [mg.relabel(two_k4s, rng.sample(range(7), 7)) for _ in range(3)]
    for i in range(90):
        n = rng.randrange(2, 9)
        g = mg.random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.9]), seed=rng.randrange(1 << 30))
        if i % 3 == 1:
            g = oracles.random_connected_multigraph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        elif i % 3 == 2:
            g = mg.from_edge_list(n, [(u, v, rng.randint(1, 3)) for u, v, _ in g.edges()])
        cases.append(g)
    return cases


def test_connectivity_and_bridges_match_networkx_and_brute_force():
    for g in _connectivity_cases():
        got = (inv.edge_connectivity(g), inv.vertex_connectivity(g), inv.bridges(g))
        assert got == oracles.networkx_connectivity(g)
        assert got[1] == oracles.brute_vertex_connectivity(g)
        if g.n >= 2:
            assert got[0] == oracles.brute_egg_cut(g, [{v} for v in range(g.n)])


def test_connectivity_shortcuts_run_no_flow(monkeypatch):
    # Chartrand: a simple graph with 2 delta >= n - 1 has lambda = delta;
    # on complete multipartite graphs with parts of at least two vertices,
    # every Esfahanian-Hakimi pair has delta common neighbours
    rng = random.Random(101)
    dense = [mg.complete(n) for n in range(2, 7)] + [mg.cycle(n) for n in (3, 4, 5)]
    dense += [mg.path(3), mg.complete_bipartite(2, 3)]
    while len(dense) < 111:
        g = mg.random_graph(rng.randrange(2, 12), rng.choice([0.5, 0.7, 0.9]),
                            seed=rng.randrange(1 << 30))
        if 2 * inv.min_degree(g) >= g.n - 1:
            dense.append(g)
    parted = [mg.complete_bipartite(3, 3), mg.complete_multipartite([2, 2, 2]),
              mg.complete_multipartite([2, 3, 4])]
    expected = [oracles.networkx_connectivity(g) for g in dense + parted]

    def refuse(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(inv, "_min_cut", refuse)
    assert [inv.edge_connectivity(g) for g in dense] == [e[0] for e in expected[:len(dense)]]
    assert [inv.vertex_connectivity(g) for g in parted] == [e[1] for e in expected[len(dense):]]


def test_vertex_connectivity_finds_a_separator_through_vertex_0():
    g = two_k4s_at_0()
    assert inv.min_degree(g) == 3
    assert inv.vertex_connectivity(g) == 1
    assert inv.edge_connectivity(g) == 3


def test_vertex_connectivity_cuts_between_neighbours_of_the_minimum_degree_vertex():
    g = two_k6s_and_a_hub()
    assert inv.min_degree(g) == 4
    assert inv.vertex_connectivity(g) == 1


def test_vertex_connectivity_runs_the_esfahanian_hakimi_flows():
    # K6 [] K6: 25 non-neighbours of a vertex plus 25 non-adjacent pairs of
    # its neighbours (row against column)
    g = mg.cartesian_product(mg.complete(6), mg.complete(6))
    with oracles.counted_flows() as flows:
        assert inv.vertex_connectivity(g) == 10
    assert nx.node_connectivity(oracles.networkx_graph(g)) == 10
    assert len(flows) <= 50


def test_connectivity_flows_per_call(monkeypatch):
    # lambda flows from the first vertex of a greedy dominating set to the
    # others: {0, 7} on Q3, {0, 2, 6} on Petersen and {4, 1} on G(10, .5)
    # seed 1.  kappa keeps its Esfahanian-Hakimi pairs, each capped at the
    # running minimum less its common neighbours: 3 - 2 on Q3 for all but
    # the antipodal pair
    cases = [(mg.hypercube(3), [([0], [7])], [1, 1, 1, 3, 1, 1, 1]),
             (petersen(), [([0], [2]), ([0], [6])], [2] * 9),
             (mg.random_graph(10, 0.5, 1), [([4], [1])], [2, 1, 3, 1])]
    cut, limits = inv._min_cut, []

    def capped(*args):
        limits.append(args[4])
        return cut(*args)

    for g, lam_flows, kappa_limits in cases:
        with oracles.counted_flows() as flows:
            assert inv.edge_connectivity(g) == 3
        assert flows == lam_flows
        del limits[:]
        monkeypatch.setattr(inv, "_min_cut", capped)
        assert inv.vertex_connectivity(g) == 3
        monkeypatch.setattr(inv, "_min_cut", cut)
        assert limits == kappa_limits


def test_a_multigraph_edge_connectivity_flows_to_every_vertex():
    # vertex 4 dominates, but {0, 1} is cut by 3 edges below delta = 4: the
    # dominating-set shortcut holds on simple graphs only
    g = mg.from_edge_list(5, [(0, 1, 3), (2, 3, 3), (1, 2, 1)] + [(v, 4, 1) for v in range(4)])
    assert inv.min_degree(g) == 4
    with oracles.counted_flows() as flows:
        assert inv.edge_connectivity(g) == 3
    assert len(flows) == 4


def _split_digraph(g):
    """The vertex-split digraph of g's underlying simple graph, as capacity
    rows and neighbour lists: v_in = 2v -> v_out = 2v + 1 with capacity 1,
    and u_out -> v_in for each edge uv."""
    adj = inv._adjacency(g.mult)
    rows = [[0] * (2 * g.n) for _ in range(2 * g.n)]
    nbrs = []
    for v in range(g.n):
        rows[2 * v][2 * v + 1] = 1
        for u in adj[v]:
            rows[2 * v + 1][2 * u] = 1
        nbrs.append([2 * v + 1] + [2 * u + 1 for u in adj[v]])
        nbrs.append([2 * v] + [2 * u for u in adj[v]])
    return rows, nbrs


def test_vertex_connectivity_memory_grows_linearly():
    # the split digraph is sparse: from n = 400 to 800 its traced peak about
    # doubles, where a dense 2n x 2n capacity matrix would quadruple it
    peaks = []
    for n in (400, 800):
        g = mg.star(n)
        tracemalloc.start()
        try:
            assert inv.vertex_connectivity(g) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.5 * peaks[0]


def test_a_cut_takes_its_paths_back_from_the_callers_rows():
    rng = random.Random(61)
    for g in _connectivity_cases():
        if g.n < 2:
            continue
        rows = g.mult.tolist()
        nbrs = inv._adjacency(g.mult)
        a, b = [0], [rng.randrange(1, g.n)]
        value, side = inv._min_cut(rows, nbrs, a, b, math.inf)
        assert rows == g.mult.tolist()
        assert (value, side) == inv._min_cut(g.mult.tolist(), nbrs, a, b, math.inf)
        assert (value, side) == oracles.networkx_min_cut(g, a, b)
    # on Petersen's split digraph, from 0_out to t_in for each non-neighbour
    # t of 0: three internally disjoint paths, one row set for every flow
    g = petersen()
    rows, nbrs = _split_digraph(g)
    fresh = [row[:] for row in rows]
    nxg = oracles.networkx_graph(g)
    for t in range(1, g.n):
        if g.mult[0, t]:
            continue
        value = inv._min_cut(rows, nbrs, [1], [2 * t], math.inf)[0]
        assert rows == fresh
        assert value == inv._min_cut([row[:] for row in fresh], nbrs, [1], [2 * t], math.inf)[0]
        assert value == nx.algorithms.connectivity.local_node_connectivity(nxg, 0, t) == 3


def _random_subsets(rng, n):
    """Random vertex subsets of 0..n-1, the empty set and the full set."""
    subsets = [[], list(range(n))]
    for _ in range(6):
        subsets.append([v for v in range(n) if rng.random() < rng.choice([0.3, 0.6, 0.9])])
    return subsets


def test_components_and_connected_subsets_match_networkx():
    rng = random.Random(97)
    for g in _connectivity_cases():
        assert inv.components(g) == oracles.networkx_components(g, range(g.n))
        for subset in _random_subsets(rng, g.n):
            comps = oracles.networkx_components(g, subset)
            assert inv.components(g, subset) == comps
            assert inv.is_connected_subset(g, subset) == (len(comps) == 1)
        for bad in ([g.n], [0, -1], [g.n + 3]):
            with pytest.raises(ValueError):
                inv.components(g, bad)
            with pytest.raises(ValueError):
                inv.is_connected_subset(g, bad)


def test_bridge_side_is_a_component_minus_the_far_end():
    # u's side of a bridge uv, as sn_bounds splits it, against networkx's
    # component of u once the edge uv is deleted
    for g in _connectivity_cases():
        nxg = oracles.networkx_graph(g)
        for u, v in inv.bridges(g):
            for a, b in ((u, v), (v, u)):
                side = next(c for c in inv.components(g, set(range(g.n)) - {b}) if a in c)
                cut = nxg.copy()
                cut.remove_edge(a, b)
                assert side == frozenset(nx.node_connected_component(cut, a))


def test_import_does_not_load_networkx():
    # nor fractions and decimal, which the package does not need either
    code = ("import sys, scramblegon; "
            "print(any(m in sys.modules for m in ('networkx', 'fractions', 'decimal')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scramblegon.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_edge_boundary():
    q3 = mg.hypercube(3)
    singles = [inv.edge_boundary(q3, [v]) for v in range(8)]
    assert singles == [3] * 8
    with pytest.raises(ValueError):
        inv.edge_boundary(q3, [])
    with pytest.raises(ValueError):
        inv.edge_boundary(q3, range(8))
    # three distinct labels on C3, but not three of its vertices
    for vertices in ([0, 1, 7], [-1, 0, 1]):
        with pytest.raises(ValueError, match="vertex out of range"):
            inv.edge_boundary(mg.cycle(3), vertices)


def test_min_cut_between_respects_multiplicities():
    g = mg.from_edge_list(4, [(0, 1, 3), (1, 2, 1), (2, 3, 3)])
    value, side = inv.min_cut_between(g, {0}, {3})
    assert value == 1
    assert side in ({0, 1}, frozenset({0, 1}))


def _random_host(rng, i):
    """Alternately a simple G(n,p), possibly disconnected, and a connected
    multigraph with multiplicities up to 3."""
    n = rng.randrange(2, 10)
    if i % 2:
        return oracles.random_connected_multigraph(rng, n, rng.choice([0.3, 0.6, 0.9]))
    return mg.random_graph(n, rng.choice([0.3, 0.6]), seed=rng.randrange(1 << 30))


def _random_sides(rng, n):
    verts = list(range(n))
    rng.shuffle(verts)
    ka = rng.randrange(1, n)
    kb = rng.randrange(1, n - ka + 1)
    return set(verts[:ka]), set(verts[ka:ka + kb])


def test_min_cut_between_matches_bipartition_enumeration():
    rng = random.Random(67)
    for i in range(60):
        g = _random_host(rng, i)
        a, b = _random_sides(rng, g.n)
        value, side = inv.min_cut_between(g, a, b)
        assert value == oracles.brute_egg_cut(g, [a, b])
        assert a <= side and not side & b
        assert inv.edge_boundary(g, side) == value


def test_min_cut_between_matches_networkx_value_and_side():
    rng = random.Random(71)
    for i in range(60):
        g = _random_host(rng, i)
        a, b = _random_sides(rng, g.n)
        assert inv.min_cut_between(g, a, b) == oracles.networkx_min_cut(g, a, b)


def _near_sides(rng, g):
    """Sides whose paths of one or two edges the seed of `_min_cut` pushes:
    the ends of an edge, two non-adjacent vertices with a common neighbour,
    and each pair with a random third vertex added to its first side."""
    pairs = []
    edges = [(u, v) for u, v, _ in g.edges()]
    if edges:
        u, v = rng.choice(edges)
        pairs.append(({u}, {v}))
    apart = [(u, w) for u in range(g.n) for w in range(u + 1, g.n)
             if not g.mult[u, w] and (g.mult[u] * g.mult[w]).any()]
    if apart:
        u, w = rng.choice(apart)
        pairs.append(({u}, {w}))
    for a, b in list(pairs):
        rest = [x for x in range(g.n) if x not in a | b]
        if rest:
            pairs.append((a | {rng.choice(rest)}, b))
    return pairs


def _cut_cases():
    """(capacity rows, their multigraph or None, side pairs): the random hosts
    of `_random_host` with random and near sides, hosts whose every
    multiplicity is 2 or 3, and the split digraph of `vertex_connectivity`
    as dict rows, from each vertex's out copy to another's in copy and from
    an in copy through its out copy."""
    rng, near = random.Random(73), random.Random(79)
    cases = []
    for i in range(40):
        g = _random_host(rng, i)
        cases.append((g, [_random_sides(rng, g.n)] + _near_sides(near, g)))
    for _ in range(15):
        n = near.randrange(3, 9)
        g = mg.from_edge_list(n, [(u, v, near.randint(2, 3)) for u in range(n)
                                  for v in range(u + 1, n) if near.random() < 0.5])
        cases.append((g, [_random_sides(near, g.n)] + _near_sides(near, g)))
    for _ in range(15):
        g = oracles.random_connected_graph(near, near.randrange(3, 9), near.choice([0.3, 0.6]))
        s, t = near.sample(range(g.n), 2)
        cases.append((_split_dict_rows(g), [({2 * s + 1}, {2 * t}), ({2 * s}, {2 * t}),
                                            _random_sides(near, 2 * g.n)]))
    return cases


def _split_dict_rows(g):
    """The split digraph of g as `vertex_connectivity` builds it: a capacity
    dict per split vertex, its reverse arcs at 0."""
    adj = inv._adjacency(g.mult)
    rows = []
    for v in range(g.n):
        rows.append({2 * v + 1: 1, **{2 * u + 1: 0 for u in adj[v]}})
        rows.append({2 * v: 0, **{2 * u: 1 for u in adj[v]}})
    return rows


def test_min_cut_between_limit_is_exact_below_or_stops_at_it():
    # below the limit the value and side are networkx's, whatever the seed of
    # short paths pushed first; at or above it the value is between the two
    for host, sides in _cut_cases():
        rows = host.mult.tolist() if isinstance(host, mg.Multigraph) else host
        nbrs = [list(row) for row in rows] if isinstance(rows[0], dict) else inv._adjacency(np.array(rows))
        for a, b in sides:
            exact, side = oracles.networkx_min_cut(host, a, b)
            for limit in range(exact + 3):
                value, capped_side = inv._min_cut(rows, nbrs, a, b, limit)
                if exact < limit:
                    assert (value, capped_side) == (exact, side)
                else:
                    assert capped_side is None and limit <= value <= exact
                if isinstance(host, mg.Multigraph):
                    assert inv.min_cut_between(host, a, b, limit) == (value, capped_side)


def test_a_cut_on_shared_rows_leaves_them_as_they_were():
    # the egg-cut scan, the sn oracle and the kappa scan run every flow of a
    # call on one set of rows; each cut must read them as built and leave
    # them so, seed and augmenting paths taken back
    rng = random.Random(89)
    for i in range(40):
        g = _random_host(rng, i)
        rows = g.mult.tolist()
        nbrs = inv._adjacency(g.mult)
        for _ in range(4):
            a, b = _random_sides(rng, g.n)
            limit = rng.choice([math.inf, 1, 2, 4])
            assert inv._min_cut(rows, nbrs, a, b, limit) == inv.min_cut_between(g, a, b, limit)
            assert rows == g.mult.tolist()
    for host, sides in _cut_cases():
        rows = host.mult.tolist() if isinstance(host, mg.Multigraph) else host
        fresh = [dict(row) if isinstance(row, dict) else row[:] for row in rows]
        nbrs = [list(row) for row in rows] if isinstance(rows[0], dict) else inv._adjacency(np.array(rows))
        for a, b in sides:
            for limit in (math.inf, 1, 2, 4):
                value, side = inv._min_cut(rows, nbrs, a, b, limit)
                assert rows == fresh
                if value < limit:
                    assert (value, side) == oracles.networkx_min_cut(fresh, a, b)


def test_min_cut_between_validation():
    g = mg.cycle(4)
    for a, b in (([], [1]), ([0], []), ([], []), ([0, 1], [1, 2]), ([2], [2]),
                 ([0], [4]), ([-1], [2]), ([0], [1, 7])):
        with pytest.raises(ValueError):
            inv.min_cut_between(g, a, b)


def test_is_connected_subset():
    g = mg.cycle(6)
    assert inv.is_connected_subset(g, {0, 1, 2})
    assert not inv.is_connected_subset(g, {0, 2})
    assert not inv.is_connected_subset(g, set())
    assert inv.is_connected_subset(g, {4})


def test_independence_number_known():
    assert inv.independence_number(mg.complete(6)) == 1
    assert inv.independence_number(mg.cycle(5)) == 2
    assert inv.independence_number(mg.cycle(8)) == 4
    assert inv.independence_number(mg.complete_bipartite(3, 4)) == 4
    assert inv.independence_number(petersen()) == 4


def test_independence_number_against_brute_force():
    rng = random.Random(23)
    for _ in range(20):
        g = mg.random_graph(rng.randrange(2, 10), rng.choice([0.2, 0.5, 0.8]),
                            seed=rng.randrange(1 << 30))
        assert inv.independence_number(g) == oracles.brute_alpha(g)


def test_independence_number_of_paths_cycles_and_trees_needs_no_search():
    # a candidate with at most one candidate neighbour is taken outright
    assert inv.independence_number(mg.path(100)) == 50
    assert inv.independence_number(mg.cycle(101)) == 50
    rng = random.Random(29)
    for _ in range(20):
        g = mg.random_tree(rng.randrange(1, 13), seed=rng.randrange(1 << 30))
        s = inv.max_independent_set(g)
        assert len(s) == oracles.brute_alpha(g)
        assert all(g.mult[u, v] == 0 for u in s for v in s)
    for _ in range(300):
        g = mg.random_graph(rng.randrange(1, 10), rng.choice([0.2, 0.3, 0.5, 0.7]),
                            seed=rng.randrange(1 << 30))
        s = inv.max_independent_set(g)
        assert len(s) == oracles.brute_alpha(g)
        assert all(g.mult[u, v] == 0 for u in s for v in s)


def disjoint_union(graphs):
    edges, offset = [], 0
    for h in graphs:
        edges += [(offset + u, offset + v, k) for u, v, k in h.edges()]
        offset += h.n
    return mg.from_edge_list(offset, edges)


def test_independence_number_of_disconnected_graphs_is_summed_over_components():
    rng = random.Random(37)
    for _ in range(20):
        parts = [mg.random_graph(rng.randrange(1, 7), rng.choice([0.2, 0.5, 0.8]),
                                 seed=rng.randrange(1 << 30)) for _ in range(rng.randrange(2, 4))]
        g = disjoint_union(parts)
        s = inv.max_independent_set(g)
        assert len(s) == oracles.brute_alpha(g)
        assert all(g.mult[u, v] == 0 for u in s for v in s)
    # each copy searched on its own: as fast as one 40-vertex copy, twice
    copy = mg.random_graph(40, 0.15, seed=3)
    two = disjoint_union([copy, copy])
    assert inv.independence_number(two) == 2 * inv.independence_number(copy)


def test_max_independent_set_is_witnessed():
    rng = random.Random(31)
    for _ in range(10):
        g = mg.random_graph(7, 0.5, seed=rng.randrange(1 << 30))
        s = inv.max_independent_set(g)
        assert len(s) == inv.independence_number(g)
        assert all(g.mult[u, v] == 0 for u in s for v in s if u != v)


def vertex_orbits(n, perms):
    """The vertex orbits of the group the permutations generate, merged
    along each permutation's arrows."""
    orbit_of = {v: {v} for v in range(n)}
    for P in perms:
        for v in range(n):
            if orbit_of[v] is not orbit_of[P[v]]:
                merged = orbit_of[v] | orbit_of[P[v]]
                for x in merged:
                    orbit_of[x] = merged
    return {frozenset(o) for o in orbit_of.values()}


def test_automorphism_generators_find_automorphisms_and_orbits_within_the_true_ones():
    # every connected graph on at most 6 vertices, 143 of them, and a few
    # multigraphs, the true group from all n! permutations
    rng = random.Random(28)
    graphs = oracles.connected_graph_corpus(max_n=6, max_edges=15)
    graphs += [oracles.random_connected_multigraph(rng, rng.randrange(2, 7), 0.6) for _ in range(30)]
    graphs += [mg.from_edge_list(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)])]
    for g in graphs:
        everything = set(oracles.brute_automorphisms(g))
        generators = inv._automorphism_generators(g)
        assert all(tuple(P) in everything for P in generators)
        true = vertex_orbits(g.n, everything)
        assert all(any(o <= t for t in true) for o in vertex_orbits(g.n, generators))


def test_automorphism_generators_reach_every_vertex_of_a_vertex_transitive_graph():
    families = [mg.cycle(n) for n in range(3, 8)] + [mg.complete(n) for n in range(2, 8)]
    families += [mg.complete_bipartite(m, m) for m in (1, 2, 3)] + [mg.hypercube(3)]
    for g in families:
        generators = inv._automorphism_generators(g)
        assert all(np.array_equal(g.mult[np.ix_(P, P)], g.mult) for P in generators)
        assert vertex_orbits(g.n, generators) == {frozenset(range(g.n))}
        if g.n <= 7:
            assert vertex_orbits(g.n, oracles.brute_automorphisms(g)) == {frozenset(range(g.n))}


def test_automorphism_generators_of_products_generate_the_whole_group():
    # |Aut(C4 [] C5)| = |D4| |D5| = 80 and |Aut(Petersen)| = 120: the
    # generated group, closed under composition, has exactly that order
    def order(n, generators):
        elements = {tuple(range(n))}
        queue = list(elements)
        for p in queue:
            for P in generators:
                q = tuple(P[v] for v in p)
                if q not in elements:
                    elements.add(q)
                    queue.append(q)
        return len(elements)

    c4c5 = mg.cartesian_product(mg.cycle(4), mg.cycle(5))
    assert order(20, inv._automorphism_generators(c4c5)) == 80
    assert order(10, inv._automorphism_generators(petersen())) == 120
    assert order(5, inv._automorphism_generators(mg.path(5))) == 2


def test_automorphism_generators_stop_on_a_disconnected_host_and_at_the_budget(monkeypatch):
    two_cycles = mg.from_edge_list(6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)])
    assert inv._automorphism_generators(two_cycles) == []
    assert inv._automorphism_generators(mg.complete(1)) == []
    assert inv._automorphism_generators(mg.random_graph(12, 0.5, 3)) == []  # a rigid graph
    q3 = mg.hypercube(3)
    monkeypatch.setattr(inv, "_AUTOMORPHISM_NODES", 0)
    assert inv._automorphism_generators(q3) == []
    monkeypatch.setattr(inv, "_AUTOMORPHISM_NODES", 150)
    fewer = inv._automorphism_generators(q3)
    assert 0 < len(fewer) < 6
    assert all(np.array_equal(q3.mult[np.ix_(P, P)], q3.mult) for P in fewer)


def test_a_search_that_hands_back_non_automorphisms_loses_only_generators(monkeypatch):
    extend = inv._extend
    handed = []

    def faulty(*args):
        image = extend(*args)
        if image is not None and len(handed) % 2:
            image[-1], image[-2] = image[-2], image[-1]
        handed.append(image)
        return image

    monkeypatch.setattr(inv, "_extend", faulty)
    for g in (mg.hypercube(3), mg.cartesian_product(mg.cycle(4), mg.cycle(5)), petersen()):
        handed.clear()
        generators = inv._automorphism_generators(g)
        assert all(np.array_equal(g.mult[np.ix_(P, P)], g.mult) for P in generators)
        bad = [P for P in handed if P is not None and not np.array_equal(g.mult[np.ix_(P, P)], g.mult)]
        assert bad and not any(P in generators for P in bad)


def test_the_greedy_cover_picks_as_a_set_greedy_that_recounts_every_gain(corpus):
    def mask(items):
        return sum(1 << x for x in items)

    rng = random.Random(37)
    cases = []
    for _ in range(300):
        size = rng.randrange(1, 14)
        p = rng.choice([0.15, 0.4, 0.7])
        families = [{x for x in range(size) if rng.random() < p} for _ in range(rng.randrange(1, 10))]
        covered = sorted(set().union(*families))
        cases.append((families, rng.sample(covered, rng.randrange(len(covered) + 1))))
    # the closed neighbourhoods of a graph cover its vertices: a dominating set
    for g in corpus:
        nbrs = inv._adjacency(g.mult)
        cases.append(([set(near) | {v} for v, near in enumerate(nbrs)], range(g.n)))
    for families, universe in cases:
        picks = inv._greedy_cover([mask(f) for f in families], mask(universe))
        assert picks == oracles.recounting_greedy_cover(families, universe)
