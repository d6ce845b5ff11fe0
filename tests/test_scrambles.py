import inspect
import itertools
import math
import random
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from scramblegon import divisors as dv
from scramblegon import fixtures as fx
from scramblegon import invariants as inv
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc


def random_eggs(rng, g, count):
    """Random connected eggs grown by neighbor accretion."""
    eggs = []
    for _ in range(count):
        egg = {rng.randrange(g.n)}
        for _ in range(rng.randrange(0, 3)):
            frontier = {u for v in egg for u in g.neighbors(v)} - egg
            if not frontier:
                break
            egg.add(rng.choice(sorted(frontier)))
        eggs.append(egg)
    return eggs


def test_scramble_validation_and_pruning():
    g = mg.cycle(6)
    with pytest.raises(ValueError):
        sc.Scramble(g, [{0, 2}])            # disconnected egg
    with pytest.raises(ValueError):
        sc.Scramble(g, [])                  # no eggs
    for bad in ({5, 6}, {-1}, set()):       # out of range, empty
        with pytest.raises(ValueError):
            sc.Scramble(g, [{0, 1}, bad])
    s = sc.Scramble(g, [{0, 1, 2}, {1, 2}, {1, 2}, {4}])
    assert set(s.eggs) == {frozenset({1, 2}), frozenset({4})}


def test_pruning_preserves_both_order_statistics():
    rng = random.Random(41)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 6, 0.5)
        eggs = random_eggs(rng, g, rng.randrange(2, 6))
        s = sc.Scramble(g, eggs)
        assert sc.hitting_number(s)[0] == oracles.brute_hitting_number(g.n, eggs)
        assert sc.egg_cut_number(s)[0] == oracles.brute_egg_cut(g, eggs)


def test_hitting_number_witness_hits_everything():
    rng = random.Random(43)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 7, 0.4)
        s = sc.Scramble(g, random_eggs(rng, g, rng.randrange(2, 7)))
        size, witness = sc.hitting_number(s)
        assert len(witness) == size
        assert all(witness & egg for egg in s.eggs)


def test_hitting_number_improves_on_its_greedy_start():
    # the greedy start takes vertex 0 (in two eggs, like 2, 3 and 4), then 1
    # and 2, so only the branch and bound finds the 2-set {3, 4}, the one
    # 2-set that hits every egg
    eggs = [{1, 4}, {2, 3}, {0, 2, 4}, {0, 3, 5}]
    size, witness = sc.hitting_number(sc.Scramble(mg.complete(6), eggs))
    assert size == oracles.brute_hitting_number(6, eggs) == 2
    hitting = [set(pair) for pair in itertools.combinations(range(6), 2)
               if all(set(pair) & egg for egg in eggs)]
    assert hitting == [set(witness)] == [{3, 4}]


def test_egg_cut_number_against_brute_force():
    rng = random.Random(47)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 6, 0.5)
        eggs = random_eggs(rng, g, rng.randrange(2, 6))
        s = sc.Scramble(g, eggs)
        value, witness = sc.egg_cut_number(s)
        assert value == oracles.brute_egg_cut(g, eggs)
        if witness is not None:
            side, size = witness
            assert size == value
            assert inv.edge_boundary(g, side) == value


def test_egg_cut_number_witness_matches_uncapped_networkx_flows():
    rng = random.Random(79)
    scrambles = [sc.product_scramble(mg.cycle(4), mg.cycle(5), 2),
                 sc.edge_scramble(mg.cone(mg.cycle(5), 2)),
                 sc.vertex_scramble(mg.cone(mg.cycle(5), 2))]
    for i in range(24):
        n = rng.randrange(3, 9)
        if i % 2:
            g = oracles.random_connected_multigraph(rng, n, 0.6)
        else:
            g = oracles.random_connected_graph(rng, n, rng.choice([0.5, 0.8]))
        scrambles += [sc.edge_scramble(g), sc.vertex_scramble(g),
                      sc.Scramble(g, random_eggs(rng, g, rng.randrange(2, 8)))]
    for s in scrambles:
        assert sc.egg_cut_number(s) == oracles.networkx_egg_cut_number(s)


def disjoint_union(g, h):
    mult = np.zeros((g.n + h.n, g.n + h.n), dtype=np.int64)
    mult[:g.n, :g.n] = g.mult
    mult[g.n:, g.n:] = h.mult
    return mg.Multigraph(mult)


# a small random connected multigraph with random connected eggs, drawn from
# a seed so that hypothesis shrinks towards small seeds, sizes and counts
multigraph_with_eggs = st.builds(
    lambda seed, n, p, count: _multigraph_with_eggs(random.Random(seed), n, p, count),
    st.integers(0, 1 << 30), st.integers(2, 7), st.sampled_from([0.3, 0.5, 0.8]),
    st.integers(2, 8))


def _multigraph_with_eggs(rng, n, p, count):
    g = oracles.random_connected_multigraph(rng, n, p)
    return g, random_eggs(rng, g, count)


def reference_spectral_bounds(g):
    """Fiedler's ceil(a s (n - s) / n) for s = 0..n, a the second-smallest
    eigenvalue of a Laplacian built entry by entry, less the margin
    1e-9 (1 + largest eigenvalue); 0 throughout unless n**2 times the
    largest multiplicity is below 2**53."""
    n = g.n
    rows = g.mult.tolist()
    if n < 2 or n * n * max(map(max, rows)) >= 2**53:
        return [0] * (n + 1)
    laplacian = [[sum(row) if u == v else -row[v] for v in range(n)] for u, row in enumerate(rows)]
    eig = np.linalg.eigvalsh(np.array(laplacian, dtype=float))
    a = max(0.0, float(eig[1]) - 1e-9 * (1 + float(eig[-1])))
    return [math.ceil(a * (s * (n - s)) / n) for s in range(n + 1)]


def reference_cut_bounds(g, egg):
    """F(s) for s = 0..n by its definition, loop by loop: the largest of the
    degree-counting bound of a set holding the egg, that of any s-set (the s
    smallest t_s) and the spectral one; None below |egg|."""
    n = g.n
    rows = g.mult.tolist()
    spectral = reference_spectral_bounds(g)
    out = [None] * (n + 1)
    for s in range(len(egg), n + 1):
        t = [sum(row) - sum(sorted(row, reverse=True)[:s - 1]) for row in rows]
        out[s] = max(sum(t[v] for v in egg) + sum(sorted(t)[:s - len(egg)]), sum(sorted(t)[:s]),
                     spectral[s])
    return out


@settings(max_examples=60, deadline=None)
@given(multigraph_with_eggs)
def test_egg_cut_number_matches_brute_force_property(case):
    g, eggs = case
    value, witness = sc.egg_cut_number(sc.Scramble(g, eggs))
    assert value == oracles.brute_egg_cut(g, eggs)
    if witness is not None:
        side, size = witness
        assert size == value == inv.edge_boundary(g, side)
        assert any(set(e) <= side for e in eggs) and any(not set(e) & side for e in eggs)


@settings(max_examples=60, deadline=None)
@given(multigraph_with_eggs, multigraph_with_eggs)
def test_hitting_number_matches_brute_force_over_egg_groups_property(first, second):
    # eggs on each part of a disjoint union fall into at least two groups
    g, eggs = first
    h, more = second
    union = disjoint_union(g, h)
    all_eggs = eggs + [{g.n + v for v in egg} for egg in more]
    for host, chosen in ((g, eggs), (union, all_eggs)):
        size, witness = sc.hitting_number(sc.Scramble(host, chosen))
        assert size == oracles.brute_hitting_number(host.n, chosen)
        assert len(witness) == size and all(witness & set(egg) for egg in chosen)


@settings(max_examples=60, deadline=None)
@given(multigraph_with_eggs)
def test_pair_bound_is_below_every_separating_cut_property(case):
    g, eggs = case
    s = sc.Scramble(g, eggs)
    member = np.zeros((len(s.eggs), g.n), dtype=np.int64)
    for i, egg in enumerate(s.eggs):
        member[i, list(egg)] = 1
    table = sc._CutBounds(g).table(member)
    reference = [reference_cut_bounds(g, egg) for egg in s.eggs]
    for i, a in enumerate(s.eggs):
        assert [None if x == sc._NO_SET else x for x in table[i].tolist()] == reference[i]
        for j, b in enumerate(s.eggs[i + 1:]):
            if not a & b:
                ra, rb = reference[i], reference[i + 1 + j]
                bound = min(max(ra[k], rb[g.n - k]) for k in range(len(a), g.n - len(b) + 1))
                assert bound <= oracles.brute_egg_cut(g, [a, b])


def test_cut_bound_is_exact_on_complete_graphs():
    # every s-set of K_n has boundary s(n - s), and the bound reaches it
    for n in (2, 5, 8):
        table = sc._CutBounds(mg.complete(n)).table(np.eye(n, dtype=np.int64))
        assert table[:, 1:].tolist() == [[s * (n - s) for s in range(1, n + 1)]] * n


def test_spectral_bound_is_below_the_least_boundary_of_every_size():
    rng = random.Random(61)
    graphs = [mg.complete(n) for n in range(2, 11)] + [mg.hypercube(3)]
    graphs += [disjoint_union(mg.complete(3), mg.cycle(4)), mg.from_edge_list(5, [(0, 1, 2)]),
               mg.path(1)]
    for _ in range(40):
        n = rng.randrange(2, 11)
        graphs.append(mg.random_graph(n, rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(1 << 30)))
        graphs.append(_random_multigraph(rng, n, rng.choice([0.3, 0.6, 0.9]), True))
    tight = 0
    for g in graphs:
        spectral = sc._spectral_cut_bounds(g).tolist()
        least = oracles.least_boundaries(g)
        assert spectral == reference_spectral_bounds(g)
        assert all(x <= y for x, y in zip(spectral, least)), g.mult.tolist()
        tight += sum(0 < x == y for x, y in zip(spectral, least))
        if not inv.is_connected(g):
            assert spectral == [0] * (g.n + 1)
    assert tight > 0
    # a s (n - s) / n is an integer on K_n (a = n) and at s = 2, 4, 6 on Q3
    # (a = 2): the margin must not push the ceiling past it
    for n in range(2, 11):
        assert sc._spectral_cut_bounds(mg.complete(n)).tolist() == [s * (n - s) for s in range(n + 1)]
    assert sc._spectral_cut_bounds(mg.hypercube(3)).tolist() == [0, 2, 3, 4, 4, 4, 3, 2, 0]
    # a multiplicity past 2**53 is not exact in float64: the term is dropped
    # and the table keeps its degree-counting bound alone
    huge = mg.from_edge_list(3, [(0, 1, 2**53 + 1), (1, 2, 1), (0, 2, 1)])
    assert sc._spectral_cut_bounds(huge).tolist() == [0, 0, 0, 0]
    assert oracles.least_boundaries(huge) == [0, 2, 2, 0]
    table = sc._CutBounds(huge).table(np.eye(3, dtype=np.int64))
    assert [None if x == sc._NO_SET else x for x in table[0].tolist()] == reference_cut_bounds(huge, {0})
    # K4 with multiplicity 2**63 - 1 would wrap its valences in int64: such
    # a graph is refused when it is built
    with pytest.raises(ValueError, match="at or above the limit 2\\*\\*62"):
        mg.from_edge_list(4, [(u, v, 2**63 - 1) for u, v in itertools.combinations(range(4), 2)])


def test_size_bounds_are_below_the_least_boundary_of_every_size():
    # every connected graph on at most 6 vertices, and random multigraphs on
    # at most 9, disconnected ones and isolated vertices included
    rng = random.Random(30)
    graphs = oracles.connected_graph_corpus(max_n=6, max_edges=15)
    graphs += [_random_multigraph(rng, rng.randrange(1, 10), rng.choice([0.2, 0.5, 0.8]), True)
               for _ in range(40)]
    assert not all(inv.is_connected(g) for g in graphs)
    for g in graphs:
        size = sc._CutBounds(g).size.tolist()
        assert all(x <= y for x, y in zip(size, oracles.least_boundaries(g))), g.mult.tolist()
        # the bound of a set holding an empty egg
        assert size == reference_cut_bounds(g, set())


def test_sn_bounds_and_gonality_refuse_at_one_degree():
    # G(30, .5, 3): both searches count from the vertex scramble's order 9,
    # not from the edge scramble's order 18 where the scan would start
    g = mg.random_graph(30, 0.5, 3)
    for search in (lambda: sc.sn_bounds(g, gonality_budget=30), lambda: dv.gonality(g)):
        with pytest.raises(dv.CandidateBudgetError, match="degree-9 .* 8836.7 MiB"):
            search()


def test_the_spectral_bound_leaves_the_edge_scramble_no_flow_to_run(monkeypatch):
    # the flows would only confirm the least edge boundary of an edge egg
    # with a disjoint egg; on these hosts the size bounds reach it first,
    # so no egg list or per-egg table is built either.  Cycles have a small a(G), so
    # C3 [] C5 keeps its flows
    P, K, C = mg.cartesian_product, mg.complete, mg.cycle
    cases = [(P(K(4), K(3)), 8), (mg.hypercube(4), 6), (P(C(3), C(4)), 6), (P(K(3), K(3)), 6),
             (P(C(4), mg.complete_bipartite(3, 3)), 8), (mg.hypercube(3), 4), (oracles.petersen(), 4)]

    def refuse(*args):
        raise AssertionError("a per-egg table was built")

    def no_eggs(*args):
        raise AssertionError("an egg list was built")

    monkeypatch.setattr(sc, "_EggCuts", refuse)
    monkeypatch.setattr(sc, "frozenset", no_eggs, raising=False)
    for g, value in cases:
        alpha = inv.independence_number(g)
        with oracles.counted_flows() as flows:
            assert sc._edge_scramble_order(g, alpha) == value
        assert flows == []
    g = P(C(3), C(5))
    with pytest.raises(AssertionError, match="an egg list"):
        sc._edge_scramble_order(g, inv.independence_number(g))
    monkeypatch.delattr(sc, "frozenset")
    with pytest.raises(AssertionError, match="per-egg table"):
        sc._edge_scramble_order(g, inv.independence_number(g))


def test_an_egg_cut_call_builds_its_bounds_once(monkeypatch):
    # the 3 x 5 grid's size bounds do not settle its edge scramble: the
    # split edge's flows and the witness scan read one host's bounds, so one
    # t_s table and one eigenvalue call, where two t_s tables were built
    calls = []
    spectral = sc._spectral_cut_bounds

    def counted_spectral(g):
        calls.append("spectral")
        return spectral(g)

    class CountedBounds(sc._CutBounds):
        __slots__ = ()

        def __init__(self, g):
            calls.append("t_s")
            super().__init__(g)

    monkeypatch.setattr(sc, "_spectral_cut_bounds", counted_spectral)
    monkeypatch.setattr(sc, "_CutBounds", CountedBounds)
    g = mg.grid([3, 5])
    with oracles.counted_flows() as flows:
        value, (side, size) = sc.egg_cut_number(sc.edge_scramble(g))
    assert (value, sorted(side), size) == (3, [0, 1, 5, 6, 10, 11], 3)
    assert len(flows) == 21
    assert sorted(calls) == ["spectral", "t_s"]
    del calls[:]
    with oracles.counted_flows() as flows:
        assert sc._edge_scramble_order(g, inv.independence_number(g)) == 3
    assert len(flows) == 20
    assert sorted(calls) == ["spectral", "t_s"]


def test_egg_cut_number_skips_the_pairs_its_bound_rules_out():
    # the first flow on a dense edge scramble already reaches the degree
    # bound of almost every later pair, so only a handful of the ~800
    # disjoint pairs run a flow
    g = mg.random_graph(12, 0.8, 1012)
    with oracles.counted_flows() as flows:
        value, (side, size) = sc.egg_cut_number(sc.edge_scramble(g))
    assert value == size == inv.edge_boundary(g, side)
    assert 1 <= len(flows) <= 10


def _multigraph_with_an_edge(rng, n, p):
    """A random multigraph with at least one edge, connected or not."""
    while True:
        edges = [(u, v, rng.randint(1, 3))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        if edges:
            return mg.from_edge_list(n, edges)


# isolated vertices and disconnected hosts included
multigraphs_with_an_edge = st.builds(
    lambda seed, n, p: _multigraph_with_an_edge(random.Random(seed), n, p),
    st.integers(0, 1 << 30), st.integers(2, 8), st.sampled_from([0.2, 0.4, 0.7]))


@settings(max_examples=80, deadline=None)
@given(multigraphs_with_an_edge, st.integers(0, 1 << 30))
@example(mg.star(5), 0)                                                 # no disjoint pair
@example(mg.from_edge_list(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]), 0)  # pendant
@example(mg.from_edge_list(5, [(0, 1, 2), (2, 3, 1)]), 0)               # two parts, isolated 4
@example(mg.from_edge_list(3, [(1, 2, 1)]), 0)                          # one egg
# u = 0 has the fewest distinct neighbours, and the only least cut, 1,
# separates it from its first neighbour 1: the egg {0, 2} must be tried too
@example(mg.from_edge_list(8, [(0, 1, 1), (0, 2, 3), (2, 3, 1), (2, 4, 1), (3, 4, 1)]
                          + [(u, v, 1) for u, v in itertools.combinations((1, 5, 6, 7), 2)]), 0)
# below the least boundary 3 of an egg with a disjoint egg, the only
# least egg-cut, 2, has {0, 3, 4, 6} on one side: it keeps u = 3 and v = 0
# together, so only the row of the egg {u, v} finds it
@example(mg.from_edge_list(7, [(0, 1, 1), (0, 3, 1), (0, 4, 1), (0, 6, 1), (1, 2, 1), (1, 5, 1),
                               (2, 5, 1), (4, 6, 1), (5, 6, 1)]), 0)
# the only least egg-cut, 3 (below 4), has {0, 1, 3, 4, 5} on one side: it
# splits u = 0 from v = 2, so only a pair {u, w}, {v, x} finds it
@example(mg.from_edge_list(8, [(0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1),
                               (1, 6, 1), (2, 6, 1), (2, 7, 1), (3, 5, 1), (4, 5, 1), (4, 7, 1),
                               (6, 7, 1)]), 0)
# n - alpha = 4 is below e = 6: the size bounds, 5 at three and four
# vertices, reach the cap 4 and settle the order with no flow, though they
# do not reach e
@example(mg.from_edge_list(7, [(0, 2, 2), (0, 3, 1), (0, 4, 2), (0, 5, 1), (1, 2, 2), (1, 3, 1),
                               (1, 4, 2), (2, 3, 2), (2, 5, 1), (3, 5, 1), (3, 6, 2), (4, 6, 2)]), 0)
def test_edge_scramble_egg_cuts_match_the_all_pairs_scan_property(g, seed):
    # values and witnesses: the full edge scramble, which takes its minimum
    # from the size bounds or one split edge's flows, and a part of its eggs,
    # which scans every pair
    s = sc.edge_scramble(g)
    value, witness = sc.egg_cut_number(s)
    assert (value, witness) == oracles.all_pairs_egg_cut_number(s)
    assert value == oracles.brute_egg_cut(g, s.eggs)
    assert sc._edge_scramble_order(g, inv.independence_number(g)) == sc.scramble_order(s).order
    rng = random.Random(seed)
    part = sc.Scramble(g, [egg for egg in s.eggs if rng.random() < 0.6] or s.eggs[:1])
    assert sc.egg_cut_number(part) == oracles.all_pairs_egg_cut_number(part)


def test_the_edge_scramble_takes_its_flows_from_one_split_edge():
    # every disjoint pair of C3 [] C5's edge scramble ran 345 flows, and the
    # four eggs at one vertex against every egg disjoint from them, with the
    # witness flow, 93.  The egg {u, v} against the 23 eggs disjoint from
    # it, the 3 x 3 pairs {u, w}, {v, x} that split u from v, and the
    # witness flow run 33
    P, C = mg.cartesian_product, mg.cycle
    g = P(C(3), C(5))
    with oracles.counted_flows() as flows:
        value, (side, size) = sc.egg_cut_number(sc.edge_scramble(g))
    assert value == size == inv.edge_boundary(g, side) == 6
    assert len(flows) <= 33
    for g, most in ((P(C(3), C(5)), 32), (P(C(5), C(5)), 52)):  # 92 and 172 from one vertex
        with oracles.counted_flows() as flows:
            assert sc._edge_scramble_order(g, inv.independence_number(g)) == 6
        assert len(flows) <= most


SMALL_FACTORS = [mg.path(2), mg.path(3), mg.cycle(3), mg.cycle(4), mg.cycle(5), mg.complete(4),
                 mg.star(4), mg.complete_bipartite(2, 3), mg.complete_bipartite(3, 3)]


def relabelled(scramble, rng):
    """The scramble on its host with the vertices renumbered at random."""
    perm = list(range(scramble.host.n))
    rng.shuffle(perm)
    return sc.Scramble(mg.relabel(scramble.host, perm),
                       [{perm[v] for v in egg} for egg in scramble.eggs])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 30))
def test_product_scramble_egg_cuts_match_the_all_pairs_scan_property(seed):
    # every admissible k, on relabelled hosts: the orbit scan flows one pair
    # per orbit of egg pairs and must keep the all-pairs value and witness
    rng = random.Random(seed)
    g, h = [rng.choice(SMALL_FACTORS) if rng.random() < 0.7
            else oracles.random_connected_graph(rng, rng.randrange(2, 5), 0.6) for _ in range(2)]
    kappa = inv.vertex_connectivity(g)
    for k in range(1, kappa + 1):
        if sc._product_k_failure(g.n, kappa, k):
            continue
        s = relabelled(sc.product_scramble(g, h, k), rng)
        value, witness = sc.egg_cut_number(s)
        assert (value, witness) == oracles.all_pairs_egg_cut_number(s)
        if s.host.n <= 12:
            assert value == oracles.brute_egg_cut(s.host, s.eggs)


def _symmetric_scramble(rng):
    """Random eggs closed under every automorphism of a symmetric host of at
    most 7 vertices, on the host relabelled at random."""
    g = rng.choice([mg.cycle(6), mg.cycle(7), mg.complete_bipartite(3, 3), mg.complete(5),
                    mg.cartesian_product(mg.cycle(3), mg.path(2)), mg.complete_bipartite(2, 4),
                    mg.from_edge_list(6, [(i, (i + 1) % 6, 1 + i % 2) for i in range(6)]),
                    mg.star(6), mg.path(7)])
    autos = oracles.brute_automorphisms(g)
    eggs = {frozenset(P[v] for v in egg) for egg in random_eggs(rng, g, rng.randrange(1, 4))
            for P in autos}
    return relabelled(sc.Scramble(g, eggs), rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 30), multigraph_with_eggs)
def test_random_scramble_egg_cuts_match_the_all_pairs_scan_property(seed, case):
    g, eggs = case
    for s in (_symmetric_scramble(random.Random(seed)), sc.Scramble(g, eggs)):
        value, witness = sc.egg_cut_number(s)
        assert (value, witness) == oracles.all_pairs_egg_cut_number(s)
        assert value == oracles.brute_egg_cut(s.host, s.eggs)


def test_the_orbit_scan_runs_one_flow_per_orbit_of_egg_pairs():
    # the all-pairs scan flows 160 pairs of C4 [] C5 at k = 2 and 1,350 of
    # K3,3 [] C4 at k = 3, nearly all of them only confirming the minimum
    c4 = mg.cycle(4)
    for g, h, k, value, most in [(c4, mg.cycle(5), 2, 8, 10),
                                 (mg.complete_bipartite(3, 3), c4, 3, 12, 30)]:
        s = sc.product_scramble(g, h, k)
        with oracles.counted_flows() as flows:
            result = sc.egg_cut_number(s)
        assert result == oracles.all_pairs_egg_cut_number(s)
        assert result[0] == value
        assert len(flows) <= most


def test_a_scan_with_one_flow_builds_no_orbit_labels(monkeypatch):
    # the edge scramble of K4 [] K3 finds its minimum with no flow, and its
    # witness scan stops at its first flow
    s = sc.edge_scramble(mg.cartesian_product(mg.complete(4), mg.complete(3)))
    expected = oracles.all_pairs_egg_cut_number(s)

    def refuse(*args):
        raise AssertionError("orbit labels were built")

    monkeypatch.setattr(sc, "_pair_labels", refuse)
    with oracles.counted_flows() as flows:
        assert sc.egg_cut_number(s) == expected
    assert len(flows) == 1


def test_a_scan_over_the_label_budget_builds_no_orbit_labels(monkeypatch):
    # 20 eggs: one 20 x 20 int64 label array is 3,200 bytes
    s = sc.product_scramble(mg.cycle(4), mg.cycle(5), 2)
    expected = oracles.all_pairs_egg_cut_number(s)

    def refuse(*args):
        raise AssertionError("orbit labels were built")

    monkeypatch.setattr(sc, "_pair_labels", refuse)
    monkeypatch.setattr(mg, "MATRIX_BUDGET", 8 * 3200 - 1)
    with oracles.counted_flows() as flows:
        assert sc.egg_cut_number(s) == expected
    assert len(flows) == 160


def test_a_search_that_hands_back_non_automorphisms_changes_no_egg_cut(monkeypatch):
    # every map the search hands back is shifted one place: the maps this
    # leaves automorphisms may be kept, and every other one must be dropped
    extend = inv._extend

    def faulty(*args):
        image = extend(*args)
        return image and image[1:] + image[:1]

    monkeypatch.setattr(inv, "_extend", faulty)
    rng = random.Random(28)
    scrambles = [sc.product_scramble(mg.cycle(4), mg.cycle(5), 2),
                 sc.product_scramble(mg.complete_bipartite(2, 3), mg.cycle(4), 2),
                 sc.vertex_scramble(mg.cycle(8))] + [_symmetric_scramble(rng) for _ in range(10)]
    for s in scrambles:
        assert all(np.array_equal(s.host.mult[np.ix_(P, P)], s.host.mult)
                   for P in inv._automorphism_generators(s.host))
        assert sc.egg_cut_number(s) == oracles.all_pairs_egg_cut_number(s)


def test_product_scramble_orders_split_into_copies():
    # one egg group per copy: K5 [] K5 with k = 3 has 5 groups of 10 eggs
    order = sc.scramble_order(sc.product_scramble(mg.complete(5), mg.complete(5), 3))
    assert (order.order, order.hitting, order.egg_cut) == (15, 15, 18)
    c5 = mg.cycle(5)
    order = sc.scramble_order(sc.product_scramble(c5, c5, 2))
    assert (order.order, order.hitting, order.egg_cut) == (10, 10, 10)


def test_egg_cut_is_infinite_without_disjoint_eggs(monkeypatch):
    # no bound is built, so Fiedler's eigenvalue is never asked for: one egg,
    # eggs through one vertex, and the triangle's edges, which share none
    def refused(a):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    q3 = mg.hypercube(3)
    for s in (sc.Scramble(mg.cycle(5), [{0, 1}, {1, 2}]), sc.Scramble(q3, [{0, 1}]),
              sc.Scramble(q3, [{0, 1}, {0, 2}, {0, 4, 5}]), sc.edge_scramble(mg.complete(3))):
        value, witness = sc.egg_cut_number(s)
        assert value is math.inf and witness is None
        assert sc.scramble_order(s).order == sc.hitting_number(s)[0]


def test_the_edge_scramble_of_a_disconnected_host_has_egg_cut_zero():
    # an egg in each triangle: the flow between them is 0, which ends the
    # flows at one vertex at once
    g = mg.from_edge_list(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    s = sc.edge_scramble(g)
    assert sc.egg_cut_number(s) == (0, (frozenset({0, 1, 2}), 0))
    assert sc.egg_cut_number(s) == oracles.all_pairs_egg_cut_number(s)
    assert oracles.brute_egg_cut(g, s.eggs) == 0
    assert sc._edge_scramble_order(g, inv.independence_number(g)) == 0


def test_vertex_scramble_order_is_connectivity_capped():
    rng = random.Random(53)
    graphs = [oracles.random_connected_graph(rng, rng.randrange(2, 8), 0.5) for _ in range(10)]
    for g in graphs + [mg.path(1), mg.cycle(2), mg.from_edge_list(2, [(0, 1, 3)])]:
        order = sc.scramble_order(sc.vertex_scramble(g)).order
        assert order == max(1, min(inv.edge_connectivity(g), g.n))
        assert order == sc.vertex_scramble_order(g.n, inv.edge_connectivity(g))


# a random multigraph with at least one edge, and a nonempty subset of its
# edges as two-vertex eggs
multigraph_with_edge_eggs = st.builds(
    lambda seed, n, p: _multigraph_with_edge_eggs(random.Random(seed), n, p),
    st.integers(0, 1 << 30), st.integers(2, 9), st.sampled_from([0.3, 0.6, 0.9]))


def _multigraph_with_edge_eggs(rng, n, p):
    g = oracles.random_connected_multigraph(rng, n, p)
    edges = [{u, v} for u, v, _ in g.edges()]
    return g, [e for e in edges if rng.random() < 0.7] or edges[:1]


@settings(max_examples=60, deadline=None)
@given(multigraph_with_edge_eggs)
def test_two_vertex_eggs_are_hit_by_a_vertex_cover_property(case):
    # the duality path against the branch and bound it stands in for
    g, eggs = case
    s = sc.Scramble(g, eggs)
    size, witness = sc.hitting_number(s)
    assert size == sc._group_hitting_number(list(s.eggs))[0]
    assert size == oracles.brute_hitting_number(g.n, eggs)
    assert len(witness) == size and all(witness & egg for egg in s.eggs)


def test_edge_scramble_hitting_is_vertex_cover():
    rng = random.Random(59)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, rng.randrange(2, 8), 0.5)
        s = sc.edge_scramble(g)
        assert sc.hitting_number(s)[0] == g.n - oracles.brute_alpha(g)
    with pytest.raises(ValueError):
        sc.edge_scramble(mg.from_edge_list(1, []))


def test_product_scramble_shape_and_validation():
    g, h = mg.complete(4), mg.path(3)
    s = sc.product_scramble(g, h, 2)
    assert s.host == mg.cartesian_product(g, h)
    assert len(s.eggs) == h.n * g.n  # 3 copies x C(4,1) deletions
    assert all(len(e) == g.n - 1 for e in s.eggs)
    with pytest.raises(ValueError):
        sc.product_scramble(g, h, 0)
    with pytest.raises(ValueError):
        sc.product_scramble(mg.path(3), h, 2)    # kappa too small
    with pytest.raises(ValueError):
        sc.product_scramble(mg.complete(4), h, 3)  # |V| < 2k-1
    with pytest.raises(ValueError):
        sc.product_scramble(g, mg.from_edge_list(2, []), 1)


def test_sn_bounds_structure():
    report = sc.sn_bounds(mg.hypercube(3))
    assert report.quantity == "sn"
    assert (report.lower, report.upper) == (4, 4)
    assert report.exact
    tree = sc.sn_bounds(mg.random_tree(8, seed=2))
    assert (tree.lower, tree.upper) == (1, 1)
    cyc = sc.sn_bounds(mg.cycle(9))
    assert (cyc.lower, cyc.upper) == (2, 2)


def test_sn_bounds_vertex_scramble_term_is_its_scramble_order():
    # on one vertex and on the 3-fold banana the vertex scramble beats the
    # edge scramble, so its order is the reported lower bound
    for g in (mg.path(1), mg.from_edge_list(2, [(0, 1, 3)])):
        report = sc.sn_bounds(g, gonality_budget=0)
        order = sc.scramble_order(sc.vertex_scramble(g)).order
        assert (report.lower, report.lower_source) == (order, "vertex scramble")


def test_sn_bounds_starts_the_gonality_search_at_the_scramble_bound(monkeypatch):
    # on the Petersen graph the edge scramble's order 4 (above the vertex
    # scramble's 3) stays under n - alpha = 6 (genus + 1 = 7), so the search
    # starts at degree 4 and stops there, as gon = 4
    scanned = []
    scan = dv._first_positive_rank_row

    def spy(g, burn, degree):
        scanned.append(degree)
        return scan(g, burn, degree)

    monkeypatch.setattr(dv, "_first_positive_rank_row", spy)
    petersen = mg.from_edge_list(10, [(u, v, 1) for u, v in nx.petersen_graph().edges()])
    assert dv._scan_bounds(petersen, 1)[2] == 6
    report = sc.sn_bounds(petersen)
    assert scanned == [4]
    assert report == sc.BoundReport("sn", 4, 4, "edge scramble", "gonality")


def test_sn_bounds_closes_the_sandwich_without_a_search(monkeypatch):
    # on Q3 the edge scramble's order 4 meets n - alpha = 8 - 4
    def refuse(*args, **kwargs):
        raise AssertionError("the gonality search ran")

    monkeypatch.setattr(dv, "gonality", refuse)
    monkeypatch.setattr(dv, "_first_positive_rank_row", refuse)
    report = sc.sn_bounds(mg.hypercube(3))
    assert report == sc.BoundReport("sn", 4, 4, "edge scramble", "gonality")


def test_sn_bounds_over_the_budget_reports_the_positive_rank_bound():
    # Q4 (16 vertices) is over the default budget of 12: no degree is
    # scanned, and the upper bound is n - alpha = 8, not n = 16
    report = sc.sn_bounds(mg.hypercube(4))
    assert report == sc.BoundReport("sn", 6, 8, "edge scramble", "positive-rank bound")
    # at budget 0 the edge scramble's order 4 meets Q3's n - alpha = 4
    report = sc.sn_bounds(mg.hypercube(3), gonality_budget=0)
    assert report == sc.BoundReport("sn", 4, 4, "edge scramble", "positive-rank bound")


def test_sn_bounds_raise_when_a_user_scramble_beats_the_gonality(monkeypatch):
    # a gonality search that stops at its lower bound reports 6 on C4 [] C5;
    # the k = 2 product scramble has order 8, so the bounds cross and must
    # not be printed as exact
    monkeypatch.setattr(dv, "_first_positive_rank_row", lambda g, burn, degree: np.ones(g.n))
    c4, c5 = mg.cycle(4), mg.cycle(5)
    scramble = sc.product_scramble(c4, c5, 2)
    with pytest.raises(ValueError, match="lower 8 > upper 6"):
        sc.sn_bounds(scramble.host, extra_scrambles=[scramble], gonality_budget=20)


def test_sn_bounds_user_scramble_can_raise_lower():
    from scramblegon import fixtures as fx
    g = fx.immersion_g()
    plain = sc.sn_bounds(g)
    with_user = sc.sn_bounds(g, extra_scrambles=[fx.immersion_scramble()])
    assert with_user.lower >= max(plain.lower, 3)
    assert with_user.lower <= with_user.upper
    with pytest.raises(ValueError):
        sc.sn_bounds(g, extra_scrambles=[sc.vertex_scramble(mg.cycle(3))])


def test_sn_bounds_invariant_under_subdivision():
    for g in (mg.complete(4), mg.cycle(5), mg.hypercube(3)):
        a = sc.sn_bounds(g, use_brute=(g.n <= 8))
        b = sc.sn_bounds(mg.subdivide(g), use_brute=(g.n <= 8))
        assert (a.lower, a.upper) == (b.lower, b.upper)


def test_sn_bounds_splits_over_components_and_bridges():
    two = mg.from_edge_list(7, [(0, 1, 1), (1, 2, 1), (2, 0, 1),
                                (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 3, 1)])
    report = sc.sn_bounds(two, use_brute=True)
    assert (report.lower, report.upper) == (2, 2)
    barbell = mg.from_edge_list(7, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1),
                                    (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1)])
    report = sc.sn_bounds(barbell, use_brute=True)
    assert (report.lower, report.upper) == (2, 2)


def test_sn_bounds_cuts_every_bridge_in_one_pass():
    # three triangles, the middle one holding vertex 0, joined by two bridges
    chain = mg.from_edge_list(9, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1),
                                  (5, 3, 1), (6, 7, 1), (7, 8, 1), (8, 6, 1),
                                  (0, 3, 1), (1, 6, 1)])
    for budget in (0, 12):
        report = sc.sn_bounds(chain, gonality_budget=budget)
        assert (report.lower, report.upper) == (2, 2)
        assert report.lower_source.count("bridge split: ") == 1
        assert report.upper_source.count("bridge split: ") == 1


def test_sn_bounds_of_long_sparse_graphs_needs_no_nesting():
    # a star and a caterpillar have hundreds of bridges each
    caterpillar = mg.from_edge_list(400, [(i, i + 1, 1) for i in range(199)]
                                    + [(i, 200 + i, 1) for i in range(200)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        reports = [sc.sn_bounds(g) for g in (mg.star(400), caterpillar)]
    finally:
        sys.setrecursionlimit(limit)
    for report in reports:
        assert (report.lower, report.upper) == (1, 1)
        assert report.lower_source == "bridge split: vertex scramble"


def test_the_boundary_table_counts_every_boundary_with_multiplicity():
    k33 = mg.complete_bipartite(3, 3)
    tripled = mg.from_edge_list(6, [(u, v, 3 if (u, v) == (0, 3) else 1) for u, v, _ in k33.edges()])
    graphs = [mg.from_edge_list(2, [(0, 1, 2)]), tripled,
              mg.from_edge_list(6, [(0, 1, 2), (1, 2, 1), (3, 4, 3)]),
              mg.cone(mg.cycle(4), 4)]
    for g in graphs:
        delta = sc._boundary_table(g)
        assert len(delta) == 1 << g.n and delta[0] == delta[-1] == 0
        for mask in range(1, (1 << g.n) - 1):
            assert delta[mask] == inv.edge_boundary(g, [v for v in range(g.n) if mask >> v & 1])


def test_brute_force_sn_known_values():
    assert sc.brute_force_sn(mg.path(6)).value == 1
    assert sc.brute_force_sn(mg.cycle(6)).value == 2
    assert sc.brute_force_sn(mg.complete(5)).value == 4
    assert sc.brute_force_sn(mg.complete_bipartite(3, 3)).value == 3
    assert sc.brute_force_sn(mg.hypercube(3)).value == 4


def test_brute_force_sn_witness_has_the_claimed_order():
    rng = random.Random(61)
    graphs = [oracles.random_connected_graph(rng, 6, 0.5) for _ in range(6)]
    # disconnected, with a doubled edge
    graphs.append(mg.from_edge_list(6, [(0, 4, 1), (1, 3, 1), (1, 4, 1), (2, 5, 2)]))
    for g in graphs:
        result = sc.brute_force_sn(g)
        assert result.exact
        assert sc.scramble_order(result.witness).order >= result.value


def test_brute_force_sn_refuses_more_than_16_vertices():
    with pytest.raises(ValueError, match="n > 16"):
        sc.brute_force_sn(mg.grid([3, 6]))  # 18 > 16 vertices


def test_brute_force_sn_witness_may_outgrow_the_recursion_limit():
    # the orientation keeps its branches on a stack, not in nested calls,
    # so a low recursion limit does not bind; the C3 x C4 witness holds 12
    # eggs, the live eggs of the orientation that passes at sn = 6
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        result = sc.brute_force_sn(mg.cartesian_product(mg.cycle(3), mg.cycle(4)))
    finally:
        sys.setrecursionlimit(limit)
    assert (result.value, result.exact, len(result.witness.eggs)) == (6, True, 12)


def _oracle_records():
    """(graph, value, exact, witness eggs as sorted vertex bitmasks) of
    brute_force_sn.  Values and exactness were recorded from the search that
    filtered Python lists of eggs through a cached pair predicate, and later
    from the search that settled each egg pair with a flow; the witnesses
    are the live eggs of the orientation that passes at sn, each verified at
    order >= sn by `oracles.brute_hitting_number` and
    `oracles.brute_egg_cut` before it was recorded."""
    return [
        (mg.hypercube(3), 4, True,
         [23, 43, 61, 62, 77, 91, 94, 103, 110, 113, 118, 122, 124, 142, 155, 157, 167,
          173, 178, 181, 185, 188, 199, 203, 211, 212, 217, 218, 227, 229, 230, 232]),
        (mg.complete_bipartite(3, 3), 3, True,
         [15, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 54, 57, 58, 60]),
        (mg.cartesian_product(mg.cycle(3), mg.cycle(4)), 6, True,
         [17, 34, 68, 136, 257, 272, 514, 544, 1028, 1088, 2056, 2176]),
        (mg.random_graph(10, 0.5, 0), 5, True,
         [24, 34, 77, 213, 258, 297, 357, 364, 433, 500, 597, 641, 716, 724, 817, 884,
          936, 944, 996]),
        (fx.immersion_g(), 3, True,
         [6, 17, 40]),
        (fx.immersion_h(), 2, True,
         [3, 48]),
        (fx.immersion_h_prime(), 2, True,
         [3, 48]),
        # light cuts of many sizes: the apex pairs of the cone, and the rows,
        # columns and triangles of K3 x K3
        (mg.cone(mg.cycle(5), 5), 8, True,
         [3, 6, 12, 17, 24, 37, 41, 42, 50, 52, 69, 73, 74, 82, 84, 97, 98, 100, 104, 112,
          133, 137, 138, 146, 148, 161, 162, 164, 168, 176, 193, 194, 196, 200, 208, 224,
          261, 265, 266, 274, 276, 289, 290, 292, 296, 304, 321, 322, 324, 328, 336, 352,
          385, 386, 388, 392, 400, 416, 448, 517, 521, 522, 530, 532, 545, 546, 548, 552,
          560, 577, 578, 580, 584, 592, 608, 641, 642, 644, 648, 656, 672, 704, 769, 770,
          772, 776, 784, 800, 832, 896]),
        (mg.cartesian_product(mg.complete(3), mg.complete(3)), 6, True,
         [3, 5, 6, 9, 18, 24, 36, 40, 48, 65, 72, 130, 144, 192, 260, 288, 320, 384]),
        # disconnected: its components are light cuts of boundary 0
        (mg.random_graph(6, 0.3, 0), 1, True,
         [1]),
        # value recorded from the search that narrowed every open constraint
        # for every branch it tried, now `oracles.sweep_brute_force_sn`
        (mg.cartesian_product(mg.cycle(3), mg.cycle(5)), 6, True,
         [33, 66, 132, 264, 528, 1025, 1056, 2050, 2112, 4100, 4224, 8200, 8448, 16400,
          16896]),
    ]


def test_every_flow_runs_in_the_one_cut_routine():
    g = mg.cartesian_product(mg.cycle(3), mg.path(3))
    alpha = inv.independence_number(g)
    sources = {
        "edge_connectivity": lambda: inv.edge_connectivity(g),
        "vertex_connectivity": lambda: inv.vertex_connectivity(g),
        "min_cut_between": lambda: inv.min_cut_between(g, [0], [8]),
        "egg_cut_number": lambda: sc.egg_cut_number(sc.vertex_scramble(g)),
        "_edge_scramble_order": lambda: sc._edge_scramble_order(g, alpha),
    }
    for name, call in sources.items():
        with oracles.counted_flows() as flows:
            call()
        assert flows, name


def egg_masks(scramble):
    return sorted(sum(1 << v for v in egg) for egg in scramble.eggs)


def test_brute_force_sn_answers_as_the_list_search_did_with_no_more_flows():
    # the light cuts settle every egg pair: no flow runs
    for g, value, exact, eggs in _oracle_records():
        with oracles.counted_flows() as flows:
            result = sc.brute_force_sn(g)
        assert (result.value, result.exact) == (value, exact)
        assert egg_masks(result.witness) == eggs
        assert flows == []
        assert_witness_order(g, result)


def assert_witness_order(g, result):
    """The witness's order, by enumeration, is at least the claimed sn."""
    eggs = [set(e) for e in result.witness.eggs]
    assert oracles.brute_hitting_number(g.n, eggs) >= result.value
    assert oracles.brute_egg_cut(g, eggs) >= result.value


# a random multigraph of at most 9 vertices, connected or not
random_multigraph = st.builds(
    lambda seed, n, p, multiple: _random_multigraph(random.Random(seed), n, p, multiple),
    st.integers(0, 1 << 30), st.integers(1, 9), st.sampled_from([0.2, 0.4, 0.6, 0.9]),
    st.booleans())


def _random_multigraph(rng, n, p, multiple):
    return mg.from_edge_list(n, [(u, v, rng.randint(1, 3) if multiple else 1)
                                 for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@settings(max_examples=80, deadline=None)
@given(random_multigraph)
def test_brute_force_sn_matches_the_sweep_search_with_no_more_flows_property(g):
    with oracles.counted_flows() as flows:
        result = sc.brute_force_sn(g)
    with oracles.counted_flows() as reference_flows:
        reference = oracles.sweep_brute_force_sn(g)
    assert (result.value, result.exact) == (reference.value, reference.exact)
    assert len(flows) <= len(reference_flows)
    assert_witness_order(g, result)


def test_bound_report_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        sc.BoundReport("sn", 3, 2, "a", "b")
