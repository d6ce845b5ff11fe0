import contextlib
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
    """F(s) for s = 0..n by its definition, loop by loop: the larger of the
    degree-counting bound and the spectral one; None below |egg|."""
    n = g.n
    rows = g.mult.tolist()
    spectral = reference_spectral_bounds(g)
    out = [None] * (n + 1)
    for s in range(len(egg), n + 1):
        t = [sum(row) - sum(sorted(row, reverse=True)[:s - 1]) for row in rows]
        out[s] = max(sum(t[v] for v in egg) + sum(sorted(t)[:s - len(egg)]), spectral[s])
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
    table = sc._cut_bound_table(g, member)
    reference = [reference_cut_bounds(g, egg) for egg in s.eggs]
    for i, a in enumerate(s.eggs):
        assert [None if x == sc._NO_SET else x for x in table[i].tolist()] == reference[i]
        bounds = sc._pair_bounds(table, i, i + 1)
        for j, b in enumerate(s.eggs[i + 1:]):
            if not a & b:
                ra, rb = reference[i], reference[i + 1 + j]
                assert bounds[j] == min(max(ra[k], rb[g.n - k]) for k in range(len(a), g.n - len(b) + 1))
                assert bounds[j] <= oracles.brute_egg_cut(g, [a, b])


def test_cut_bound_is_exact_on_complete_graphs():
    # every s-set of K_n has boundary s(n - s), and the bound reaches it
    for n in (2, 5, 8):
        table = sc._cut_bound_table(mg.complete(n), np.eye(n, dtype=np.int64))
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
    table = sc._cut_bound_table(huge, np.eye(3, dtype=np.int64))
    assert [None if x == sc._NO_SET else x for x in table[0].tolist()] == reference_cut_bounds(huge, {0})
    # K4 with multiplicity 2**63 - 1 would wrap its valences in int64: such
    # a graph is refused when it is built
    with pytest.raises(ValueError, match="at or above the limit 2\\*\\*62"):
        mg.from_edge_list(4, [(u, v, 2**63 - 1) for u, v in itertools.combinations(range(4), 2)])


def test_sn_bounds_and_gonality_refuse_at_one_degree():
    # G(30, .5, 3): both searches count from the vertex scramble's order 9,
    # not from the edge scramble's order 18 where the scan would start
    g = mg.random_graph(30, 0.5, 3)
    for search in (lambda: sc.sn_bounds(g, gonality_budget=30), lambda: dv.gonality(g)):
        with pytest.raises(dv.CandidateBudgetError, match="degree-9 .* 8836.7 MiB"):
            search()


def test_the_spectral_bound_leaves_the_edge_scramble_no_flow_to_run():
    # every flow at one vertex only confirmed the least edge boundary of an
    # edge egg with a disjoint egg; on these products the spectral bound
    # reaches it first.  Cycles have a small a(G), so C3 [] C5 keeps its flows
    P, K, C = mg.cartesian_product, mg.complete, mg.cycle
    cases = [(P(K(4), K(3)), 8), (mg.hypercube(4), 6), (P(C(3), C(4)), 6), (P(K(3), K(3)), 6),
             (P(C(4), mg.complete_bipartite(3, 3)), 8)]
    for g, value in cases:
        alpha = inv.independence_number(g)
        with counted_flows() as flows:
            assert sc._edge_scramble_order(g, alpha) == value
        assert flows == []
    g = P(C(3), C(5))
    with counted_flows() as flows:
        assert sc._edge_scramble_order(g, inv.independence_number(g)) == 6
    assert flows


def test_egg_cut_number_skips_the_pairs_its_bound_rules_out(monkeypatch):
    # the first flow on a dense edge scramble already reaches the degree
    # bound of almost every later pair, so only a handful of the ~800
    # disjoint pairs run a flow
    flows = []
    cut = inv._min_cut

    def counted(*args, **kwargs):
        flows.append(args[2:4])
        return cut(*args, **kwargs)

    monkeypatch.setattr(inv, "_min_cut", counted)
    g = mg.random_graph(12, 0.8, 1012)
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
def test_edge_scramble_egg_cuts_match_the_all_pairs_scan_property(g, seed):
    # values and witnesses: the full edge scramble, which takes its minimum
    # from one vertex's flows, and a part of its eggs, which scans every pair
    s = sc.edge_scramble(g)
    value, witness = sc.egg_cut_number(s)
    assert (value, witness) == oracles.all_pairs_egg_cut_number(s)
    assert value == oracles.brute_egg_cut(g, s.eggs)
    assert sc._edge_scramble_order(g, inv.independence_number(g)) == sc.scramble_order(s).order
    rng = random.Random(seed)
    part = sc.Scramble(g, [egg for egg in s.eggs if rng.random() < 0.6] or s.eggs[:1])
    assert sc.egg_cut_number(part) == oracles.all_pairs_egg_cut_number(part)


def test_the_edge_scramble_takes_its_flows_from_one_vertex(monkeypatch):
    # every disjoint pair of C3 [] C5's edge scramble ran 345 flows; one
    # vertex's four eggs against the eggs disjoint from them, and the
    # witness flow, run at most 100
    flows = []
    cut = inv._min_cut

    def counted(*args, **kwargs):
        flows.append(args[2:4])
        return cut(*args, **kwargs)

    monkeypatch.setattr(inv, "_min_cut", counted)
    g = mg.cartesian_product(mg.cycle(3), mg.cycle(5))
    value, (side, size) = sc.egg_cut_number(sc.edge_scramble(g))
    assert value == size == inv.edge_boundary(g, side) == 6
    assert len(flows) <= 100


def test_product_scramble_orders_split_into_copies():
    # one egg group per copy: K5 [] K5 with k = 3 has 5 groups of 10 eggs
    order = sc.scramble_order(sc.product_scramble(mg.complete(5), mg.complete(5), 3))
    assert (order.order, order.hitting, order.egg_cut) == (15, 15, 18)
    c5 = mg.cycle(5)
    order = sc.scramble_order(sc.product_scramble(c5, c5, 2))
    assert (order.order, order.hitting, order.egg_cut) == (10, 10, 10)


def test_egg_cut_is_infinite_without_disjoint_eggs():
    g = mg.cycle(5)
    s = sc.Scramble(g, [{0, 1}, {1, 2}])
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
    assert dv._gonality_upper(petersen, inv.independence_number(petersen)) == 6
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


def test_brute_force_sn_known_values():
    assert sc.brute_force_sn(mg.path(6)).value == 1
    assert sc.brute_force_sn(mg.cycle(6)).value == 2
    assert sc.brute_force_sn(mg.complete(5)).value == 4
    assert sc.brute_force_sn(mg.complete_bipartite(3, 3)).value == 3
    assert sc.brute_force_sn(mg.hypercube(3)).value == 4


def test_brute_force_sn_witness_has_the_claimed_order():
    rng = random.Random(61)
    graphs = [oracles.random_connected_graph(rng, 6, 0.5) for _ in range(6)]
    # its search backtracks out of a branch that had chosen eggs
    graphs.append(mg.from_edge_list(6, [(0, 4, 1), (1, 3, 1), (1, 4, 1), (2, 5, 2)]))
    for g in graphs:
        result = sc.brute_force_sn(g)
        assert result.exact
        assert sc.scramble_order(result.witness).order >= result.value


def test_brute_force_sn_cap_is_conservative():
    full = sc.brute_force_sn(mg.hypercube(3))
    capped = sc.brute_force_sn(mg.hypercube(3), max_eggs=2)
    assert capped.value <= full.value
    if capped.exact:
        assert capped.value == full.value
    with pytest.raises(ValueError):
        sc.brute_force_sn(mg.grid([3, 6]))  # 18 > 16 vertices
    # a cap below one egg would cap every branch; None, not 0, means no cap
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_eggs"):
            sc.brute_force_sn(mg.hypercube(3), max_eggs=cap)


def test_brute_force_sn_witness_may_outgrow_the_recursion_limit():
    # the C3 x C4 witness holds 114 eggs, the search far fewer nested calls
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        result = sc.brute_force_sn(mg.cartesian_product(mg.cycle(3), mg.cycle(4)))
    finally:
        sys.setrecursionlimit(limit)
    assert (result.value, result.exact, len(result.witness.eggs)) == (6, True, 114)


def _oracle_records():
    """(graph, value, exact, pair-cut flows, witness eggs as sorted vertex
    bitmasks) of brute_force_sn, recorded from the search that filtered
    Python lists of eggs through a cached pair predicate."""
    return [
        (mg.hypercube(3), 4, True, 25,
         [23, 43, 61, 62, 77, 91, 94, 103, 110, 113, 118, 122, 124, 142, 155, 157, 167,
          173, 178, 181, 185, 188, 199, 203, 211, 212, 217, 218, 227, 229, 230, 232]),
        (mg.complete_bipartite(3, 3), 3, True, 7,
         [15, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 54, 57, 58, 60]),
        (mg.cartesian_product(mg.cycle(3), mg.cycle(4)), 6, True, 1453,
         [17, 34, 257, 478, 508, 514, 749, 764, 892, 956, 988, 1004, 1012, 1016, 1102,
          1260, 1404, 1438, 1468, 1494, 1496, 1524, 1645, 1660, 1709, 1724, 1741, 1756,
          1764, 1769, 1784, 1852, 1884, 1900, 1904, 1948, 1964, 1972, 1976, 1996, 2004,
          2024, 2189, 2268, 2398, 2428, 2462, 2492, 2510, 2518, 2520, 2540, 2548, 2669,
          2684, 2748, 2788, 2793, 2808, 2876, 2908, 2924, 2932, 2936, 2972, 2988, 2992,
          3020, 3028, 3048, 3181, 3196, 3230, 3260, 3271, 3275, 3286, 3288, 3300, 3305,
          3358, 3388, 3414, 3416, 3436, 3444, 3468, 3478, 3480, 3508, 3526, 3528, 3536,
          3629, 3644, 3660, 3684, 3689, 3704, 3740, 3748, 3753, 3768, 3780, 3785, 3808,
          3868, 3884, 3892, 3896, 3924, 3944, 3988, 4008]),
        (mg.random_graph(10, 0.5, 0), 5, True, 238,
         [42, 77, 103, 153, 179, 213, 220, 246, 258, 297, 357, 364, 433, 440, 500, 537,
          563, 597, 604, 630, 641, 664, 690, 716, 724, 742, 817, 824, 884, 936, 944, 996]),
        (fx.immersion_g(), 3, True, 32,
         [6, 17, 40]),
        (fx.immersion_h(), 2, True, 12,
         [3, 61, 62]),
        (fx.immersion_h_prime(), 2, True, 7,
         [3, 61, 62]),
        # disconnected: a search that meets a settled pair again reflows it
        (mg.random_graph(6, 0.3, 0), 1, True, 8,
         [1]),
        # recorded from the search that narrowed every open constraint for
        # every branch it tried, now `oracles.sweep_brute_force_sn`
        (mg.cartesian_product(mg.cycle(3), mg.cycle(5)), 6, True, 6338,
         [33, 66, 1025, 2050, 4092, 6078, 6140, 7133, 7164, 7676, 7932, 8060, 8124,
          8156, 8172, 8180, 8184, 10174, 10236, 11229, 11260, 11772, 12028, 12156,
          12220, 12252, 12268, 12276, 12280, 12702, 13276, 13820, 14014, 14076, 14142,
          14204, 14254, 14262, 14264, 14316, 14324, 14813, 14844, 15069, 15100, 15197,
          15228, 15261, 15292, 15308, 15317, 15321, 15348, 15352, 15612, 15740, 15804,
          15836, 15844, 15864, 15996, 16060, 16092, 16108, 16116, 16120, 16188, 16220,
          16236, 16244, 16248, 16284, 16300, 16308, 16340, 16344, 16360, 16368, 18366,
          18428, 19421, 19452, 19964, 20220, 20348, 20412, 20444, 20460, 20468, 20472,
          21407, 21438, 21469, 21500, 21950, 22012, 22206, 22268, 22334, 22396, 22430,
          22446, 22454, 22456, 22492, 22508, 22516, 23005, 23036, 23261, 23292, 23389,
          23420, 23453, 23484, 23500, 23509, 23513, 23540, 23544, 23804, 23932, 23996,
          24028, 24044, 24052, 24056, 24188, 24252, 24284, 24300, 24308, 24312, 24380,
          24412, 24428, 24436, 24440, 24476, 24492, 24500, 24532, 24536, 24548, 24552,
          24560, 25373, 25532, 26046, 26108, 26302, 26364, 26430, 26492, 26526, 26542,
          26550, 26552, 26588, 26604, 26612, 27101, 27132, 27357, 27388, 27516, 27596,
          27605, 27609, 27636, 27640, 27900, 28028, 28092, 28124, 28140, 28148, 28152,
          28284, 28348, 28380, 28396, 28404, 28408, 28476, 28508, 28524, 28528, 28572,
          28588, 28596, 28628, 28632, 28644, 28648, 29149, 29180, 29343, 29374, 29405,
          29436, 29502, 29564, 29583, 29591, 29595, 29614, 29622, 29624, 29644, 29653,
          29657, 29684, 29886, 29948, 30014, 30076, 30126, 30134, 30136, 30172, 30188,
          30196, 30270, 30332, 30366, 30382, 30390, 30392, 30428, 30444, 30452, 30492,
          30510, 30518, 30520, 30572, 30580, 30606, 30614, 30616, 30630, 30632, 30640,
          30676, 30692, 30941, 30972, 31069, 31100, 31132, 31180, 31189, 31193, 31220,
          31224, 31325, 31356, 31389, 31420, 31436, 31445, 31449, 31476, 31480, 31548,
          31564, 31573, 31577, 31604, 31608, 31628, 31637, 31641, 31668, 31684, 31688,
          31697, 31728, 31868, 31932, 31964, 31980, 31988, 31992, 32060, 32092, 32108,
          32116, 32120, 32172, 32180, 32212, 32216, 32232, 32240, 32316, 32348, 32364,
          32372, 32376, 32412, 32428, 32436, 32468, 32472, 32484, 32488, 32496, 32556,
          32564, 32596, 32600, 32612, 32616, 32660, 32676, 32720, 32736]),
    ]


@contextlib.contextmanager
def counted_flows():
    """The (side_a, side_b) of every `invariants._min_cut` call made inside
    the block."""
    flows = []
    cut = inv._min_cut

    def counted(*args):
        flows.append(args[2:4])
        return cut(*args)

    inv._min_cut = counted
    try:
        yield flows
    finally:
        inv._min_cut = cut


def test_every_flow_runs_in_the_one_cut_routine():
    g = mg.cartesian_product(mg.cycle(3), mg.path(3))
    alpha = inv.independence_number(g)
    sources = {
        "edge_connectivity": lambda: inv.edge_connectivity(g),
        "vertex_connectivity": lambda: inv.vertex_connectivity(g),
        "min_cut_between": lambda: inv.min_cut_between(g, [0], [8]),
        "egg_cut_number": lambda: sc.egg_cut_number(sc.vertex_scramble(g)),
        "_edge_scramble_order": lambda: sc._edge_scramble_order(g, alpha),
        "brute_force_sn": lambda: sc.brute_force_sn(g),
    }
    for name, call in sources.items():
        with counted_flows() as flows:
            call()
        assert flows, name


def egg_masks(scramble):
    return sorted(sum(1 << v for v in egg) for egg in scramble.eggs)


def test_brute_force_sn_answers_as_the_list_search_did_with_no_more_flows():
    for g, value, exact, pair_cuts, eggs in _oracle_records():
        with counted_flows() as flows:
            result = sc.brute_force_sn(g)
        assert (result.value, result.exact) == (value, exact)
        assert egg_masks(result.witness) == eggs
        assert len(flows) <= pair_cuts


# a random multigraph of at most 9 vertices, connected or not, and a cap
graph_and_cap = st.builds(
    lambda seed, n, p, multiple, cap: (_random_multigraph(random.Random(seed), n, p, multiple), cap),
    st.integers(0, 1 << 30), st.integers(1, 9), st.sampled_from([0.2, 0.4, 0.6, 0.9]),
    st.booleans(), st.sampled_from([None, 1, 2, 3]))


def _random_multigraph(rng, n, p, multiple):
    return mg.from_edge_list(n, [(u, v, rng.randint(1, 3) if multiple else 1)
                                 for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@settings(max_examples=80, deadline=None)
@given(graph_and_cap)
def test_brute_force_sn_matches_the_sweep_search_with_no_more_flows_property(case):
    g, cap = case
    with counted_flows() as flows:
        result = sc.brute_force_sn(g, max_eggs=cap)
    with counted_flows() as reference_flows:
        reference = oracles.sweep_brute_force_sn(g, max_eggs=cap)
    assert (result.value, result.exact) == (reference.value, reference.exact)
    assert egg_masks(result.witness) == egg_masks(reference.witness)
    assert len(flows) <= len(reference_flows)


def test_bound_report_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        sc.BoundReport("sn", 3, 2, "a", "b")
