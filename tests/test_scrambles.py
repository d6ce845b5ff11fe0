import math
import random

import pytest

import oracles
from scramblegon import divisors as dv
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


def test_egg_cut_is_infinite_without_disjoint_eggs():
    g = mg.cycle(5)
    s = sc.Scramble(g, [{0, 1}, {1, 2}])
    value, witness = sc.egg_cut_number(s)
    assert value is math.inf and witness is None
    assert sc.scramble_order(s).order == sc.hitting_number(s)[0]


def test_vertex_scramble_order_is_connectivity_capped():
    rng = random.Random(53)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, rng.randrange(2, 8), 0.5)
        order = sc.scramble_order(sc.vertex_scramble(g)).order
        assert order == min(inv.edge_connectivity(g), g.n)


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


def test_sn_bounds_starts_the_gonality_search_at_the_scramble_bound(monkeypatch):
    hints = []
    search = dv.gonality

    def spy(g, lower_hint=None, upper_hint=None):
        hints.append(lower_hint)
        return search(g, lower_hint=lower_hint, upper_hint=upper_hint)

    monkeypatch.setattr(dv, "gonality", spy)
    q3 = mg.hypercube(3)
    report = sc.sn_bounds(q3)
    assert hints and all(h is not None and h >= sc.scramble_order(sc.vertex_scramble(q3)).order
                         for h in hints)
    assert report == sc.BoundReport("sn", 4, 4, "edge scramble", "gonality")


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


def test_brute_force_sn_known_values():
    assert sc.brute_force_sn(mg.path(6)).value == 1
    assert sc.brute_force_sn(mg.cycle(6)).value == 2
    assert sc.brute_force_sn(mg.complete(5)).value == 4
    assert sc.brute_force_sn(mg.complete_bipartite(3, 3)).value == 3
    assert sc.brute_force_sn(mg.hypercube(3)).value == 4


def test_brute_force_sn_witness_has_the_claimed_order():
    rng = random.Random(61)
    for _ in range(6):
        g = oracles.random_connected_graph(rng, 6, 0.5)
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


def test_bound_report_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        sc.BoundReport("sn", 3, 2, "a", "b")
