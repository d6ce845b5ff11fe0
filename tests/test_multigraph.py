import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scramblegon import invariants as inv
from scramblegon import multigraph as mg


def test_from_edge_list_accumulates_multiplicity():
    g = mg.from_edge_list(3, [(0, 1, 1), (1, 0, 2), (1, 2, 1)])
    assert int(g.mult[0, 1]) == 3
    assert g.edge_count() == 4
    assert g.valence(1) == 4


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        mg.from_edge_list(2, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        mg.from_edge_list(2, [(0, 2, 1)])  # out of range
    with pytest.raises(ValueError):
        mg.from_edge_list(2, [(0, 1, 0)])  # zero multiplicity
    with pytest.raises(ValueError):
        mg.from_edge_list(0, [])


def test_multigraph_refuses_a_matrix_that_is_no_multigraph():
    for mult, reason in (([[0, 1, 0], [1, 0, 1]], "square and nonempty"),
                         ([[]], "square and nonempty"),
                         ([[0, -1], [-1, 0]], "nonnegative"),
                         ([[0, 1], [2, 0]], "symmetric"),
                         ([[1, 0], [0, 0]], "loop")):
        with pytest.raises(ValueError, match=reason):
            mg.Multigraph(mult)


def test_a_graph_of_2_62_edges_or_more_is_refused():
    # past that the int64 valences and cuts can wrap: C4 with multiplicity
    # 2**62 had edge connectivity -2**63
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    k4 = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
    for build in (lambda: mg.Multigraph(c4 * 2**62),
                  lambda: mg.Multigraph(k4 * (2**63 - 1)),
                  lambda: mg.from_edge_list(2, [(0, 1, 2**63)]),
                  lambda: mg.from_edge_list(2, [(0, 1, 2**62), (1, 0, 2**62)]),
                  lambda: mg.from_edge_list(2, [(0, 1, 2**62)])):
        with pytest.raises(ValueError, match=r"at or above the limit 2\*\*62"):
            build()
    g = mg.from_edge_list(3, [(0, 1, 2**62 - 2), (1, 2, 1)])
    assert g.edge_count() == 2**62 - 1
    assert mg.Multigraph(g.mult) == g


def test_multiplicity_matrix_is_immutable():
    g = mg.path(3)
    with pytest.raises(ValueError):
        g.mult[0, 1] = 5


def test_generator_shapes():
    assert (mg.path(5).n, mg.path(5).edge_count()) == (5, 4)
    assert (mg.cycle(6).n, mg.cycle(6).edge_count()) == (6, 6)
    assert (mg.complete(5).n, mg.complete(5).edge_count()) == (5, 10)
    assert (mg.complete_bipartite(2, 3).n, mg.complete_bipartite(2, 3).edge_count()) == (5, 6)
    assert (mg.star(5).n, mg.star(5).edge_count()) == (5, 4)
    assert all(mg.star(5).valence(v) == 1 for v in range(1, 5))
    assert (mg.grid([2, 3]).n, mg.grid([2, 3]).edge_count()) == (6, 7)
    km = mg.complete_multipartite([2, 2, 1])
    assert (km.n, km.edge_count()) == (5, 8)


def test_cycle_two_is_the_doubled_edge():
    c2 = mg.cycle(2)
    assert c2.n == 2
    assert int(c2.mult[0, 1]) == 2
    assert not c2.is_simple()


def test_hypercube_is_regular_and_bipartite_sized():
    q3 = mg.hypercube(3)
    assert q3.n == 8
    assert q3.edge_count() == 12
    assert all(q3.valence(v) == 3 for v in range(8))
    assert inv.is_connected(q3)


def test_product_edge_count_identity():
    rng = random.Random(7)
    for _ in range(10):
        g = mg.random_graph(rng.randrange(2, 6), 0.6, seed=rng.randrange(1 << 30))
        h = mg.random_graph(rng.randrange(2, 6), 0.6, seed=rng.randrange(1 << 30))
        p = mg.cartesian_product(g, h)
        assert p.n == g.n * h.n
        assert p.edge_count() == g.n * h.edge_count() + h.n * g.edge_count()


def test_product_of_edges_is_a_four_cycle():
    p = mg.cartesian_product(mg.path(2), mg.path(2))
    assert p.n == 4 and p.edge_count() == 4
    assert all(p.valence(v) == 2 for v in range(4))
    assert inv.is_connected(p)


def test_canonical_copy_is_an_embedded_factor():
    g, h = mg.cycle(4), mg.path(3)
    p = mg.cartesian_product(g, h)
    for w in range(h.n):
        copy = mg.canonical_copy(g, h, "left", w)
        assert copy == frozenset(u * h.n + w for u in range(g.n))
        assert mg.induced_subgraph(p, sorted(copy)) == g
    for u in range(g.n):
        copy = mg.canonical_copy(g, h, "right", u)
        assert mg.induced_subgraph(p, sorted(copy)) == h


def test_cone_adds_dominating_clique():
    g = mg.path(3)
    c = mg.cone(g, 2)
    assert c.n == 5
    for apex in (3, 4):
        assert all(int(c.mult[apex, v]) == 1 for v in range(5) if v != apex)
    # original edges untouched
    assert np.array_equal(c.mult[:3, :3], g.mult)


def test_smooth_two_valent_inverts_subdivision():
    for g in (mg.complete(4), mg.hypercube(3), mg.complete_bipartite(3, 3)):
        assert mg.smooth_two_valent(mg.subdivide(g)) == g


def test_cycle_smooths_to_doubled_edge():
    j = mg.smooth_two_valent(mg.cycle(7))
    assert j == mg.cycle(2)


def _subdivided_multigraph(seed, n, p, t):
    rng = random.Random(seed)
    edges = [(u, v, rng.randint(1, 3)) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return mg.subdivide(mg.from_edge_list(n, edges), t)


# a random multigraph, connected or not, subdivided 0-2 times, drawn from a
# seed so that hypothesis shrinks towards small seeds and sizes
subdivided_multigraph = st.builds(
    _subdivided_multigraph, st.integers(0, 1 << 30), st.integers(1, 8),
    st.sampled_from([0.2, 0.4, 0.7]), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(subdivided_multigraph)
def test_smooth_two_valent_sweep_matches_the_restart_loop_property(g):
    smooth = mg.smooth_two_valent(g)
    reference = oracles.restart_smooth_two_valent(g)
    assert smooth.mult.shape == reference.mult.shape
    assert smooth.mult.tobytes() == reference.mult.tobytes()


def test_subdivide_counts():
    g = mg.complete(4)
    s = mg.subdivide(g, 2)
    assert s.n == g.n + 2 * g.edge_count()
    assert s.edge_count() == 3 * g.edge_count()
    assert s.is_simple()


def test_random_tree_is_a_tree():
    for seed in range(5):
        t = mg.random_tree(9, seed=seed)
        assert t.n == 9
        assert t.edge_count() == 8
        assert inv.is_connected(t)
    assert mg.random_tree(9, seed=3) == mg.random_tree(9, seed=3)


def test_random_graph_deterministic_and_simple():
    g1 = mg.random_graph(8, 0.5, seed=42)
    g2 = mg.random_graph(8, 0.5, seed=42)
    assert g1 == g2
    assert g1.is_simple()
    assert g1 != mg.random_graph(8, 0.5, seed=43)


def test_relabel_roundtrip():
    g = mg.random_graph(6, 0.5, seed=5)
    perm = [3, 1, 4, 0, 5, 2]
    h = mg.relabel(g, perm)
    invp = [perm.index(i) for i in range(6)]
    assert mg.relabel(h, invp) == g
    assert sorted(int(v) for v in h.valences()) == sorted(int(v) for v in g.valences())
