import math
import os
import random
import subprocess
import sys
import tracemalloc

import networkx as nx
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


def test_vertex_connectivity_finds_a_separator_through_vertex_0():
    g = two_k4s_at_0()
    assert inv.min_degree(g) == 3
    assert inv.vertex_connectivity(g) == 1
    assert inv.edge_connectivity(g) == 3


def test_vertex_connectivity_cuts_between_neighbours_of_the_minimum_degree_vertex():
    g = two_k6s_and_a_hub()
    assert inv.min_degree(g) == 4
    assert inv.vertex_connectivity(g) == 1


def test_vertex_connectivity_runs_the_esfahanian_hakimi_flows(monkeypatch):
    # K6 [] K6: 25 non-neighbours of a vertex plus 25 non-adjacent pairs of
    # its neighbours (row against column)
    flows = []
    cut = inv._min_cut

    def counting(*args):
        flows.append(args[2:4])
        return cut(*args)

    monkeypatch.setattr(inv, "_min_cut", counting)
    g = mg.cartesian_product(mg.complete(6), mg.complete(6))
    assert inv.vertex_connectivity(g) == 10
    assert nx.node_connectivity(oracles.networkx_graph(g)) == 10
    assert len(flows) <= 50


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


def test_min_cut_between_limit_is_exact_below_or_stops_at_it():
    rng = random.Random(73)
    for i in range(40):
        g = _random_host(rng, i)
        a, b = _random_sides(rng, g.n)
        exact, side = inv.min_cut_between(g, a, b)
        for limit in range(exact + 3):
            value, capped_side = inv.min_cut_between(g, a, b, limit=limit)
            if exact < limit:
                assert (value, capped_side) == (exact, side)
            else:
                assert capped_side is None and limit <= value <= exact


def test_a_cut_on_shared_rows_leaves_them_as_they_were():
    # the egg-cut scan and the sn oracle run every flow of a call on one set
    # of rows; each cut must read them as g.mult and leave them so
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
