import itertools
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scramblegon import divisors as dv
from scramblegon import invariants as inv
from scramblegon import mel
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc


def test_from_edge_list_accumulates_multiplicity():
    g = mg.from_edge_list(3, [(0, 1, 1), (1, 0, 2), (1, 2, 1)])
    assert int(g.mult[0, 1]) == 3
    assert g.edge_count() == 4
    assert g.valence(1) == 4


def test_the_public_constructor_copies_and_the_builders_hand_over_their_matrix():
    m = np.array([[0, 2], [2, 0]])
    g = mg.Multigraph(m)
    m[0, 1] = m[1, 0] = 5
    assert int(g.mult[0, 1]) == 2
    owned = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert mg.Multigraph._adopt(owned).mult is owned and not owned.flags.writeable
    for bad in ([[0, 1], [2, 0]], [[1, 0], [0, 0]], [[0, -1], [-1, 0]], [[0, 1, 0]]):
        with pytest.raises(ValueError):
            mg.Multigraph._adopt(np.array(bad, dtype=np.int64))
    # a builder's peak holds its one n x n int64 matrix and the checks' n x n
    # bools, where a copy would hold two matrices
    matrix = 1200 * 1200 * 8
    p30, p40, p1199 = mg.path(30), mg.path(40), mg.path(1199)
    for build in (lambda: mg.cartesian_product(p30, p40), lambda: mg.cone(p1199, 1),
                  lambda: mg.complete(1200), lambda: mg.from_edge_list(1200, [(0, 1, 1)])):
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 1200 and peak < 1.5 * matrix


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


def test_a_matrix_over_its_budget_is_refused_before_it_is_allocated():
    # 5,792 vertices fit the 256 MiB budget, 5,793 do not
    mg._check_order(5792)
    with pytest.raises(ValueError, match="a 5793-vertex multiplicity matrix would take 256.0 MiB"):
        mg._check_order(5793)
    # each builder refuses before it allocates: a million vertices would
    # take 7.3 TiB, and random_graph's pair loop 5e11 draws
    p1000 = mg.path(1000)
    for build in (lambda: mg.from_edge_list(10**6, []), lambda: mel.parse_mel("1000000 0\n"),
                  lambda: mg.path(10**6), lambda: mg.cycle(10**6), lambda: mg.star(10**6),
                  lambda: mg.random_tree(10**6, 1), lambda: mg.complete(10**6),
                  lambda: mg.complete_multipartite([1, 10**6 - 1]),
                  lambda: mg.random_graph(10**6, 0.5, 1), lambda: mg.cartesian_product(p1000, p1000),
                  lambda: mg.grid([1000, 1000]), lambda: mg.cone(p1000, 10**6 - 1000)):
        with pytest.raises(ValueError, match="a 1000000-vertex multiplicity matrix would take "
                                             "7629394.5 MiB, over the 256 MiB matrix budget"):
            build()


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


def _explicit(n, edges):
    """The multiplicity matrix of (u, v, k) triples, built without the library."""
    mult = np.zeros((n, n), dtype=np.int64)
    for u, v, k in edges:
        mult[u, v] += k
        mult[v, u] += k
    return mult


def test_generators_match_explicit_edge_lists():
    # each family goes through its general builder: complete through
    # complete_multipartite, star through complete_bipartite, hypercube
    # through grid; cycle(2) and random_tree(2) through the general code
    for n in range(1, 10):
        pairs = list(itertools.combinations(range(n), 2))
        assert np.array_equal(mg.path(n).mult, _explicit(n, [(i, i + 1, 1) for i in range(n - 1)]))
        assert np.array_equal(mg.complete(n).mult, _explicit(n, [(u, v, 1) for u, v in pairs]))
        assert np.array_equal(mg.star(n).mult, _explicit(n, [(0, i, 1) for i in range(1, n)]))
        if n >= 2:
            cycle = [(i, (i + 1) % n, 1) for i in range(n)] if n > 2 else [(0, 1, 2)]
            assert np.array_equal(mg.cycle(n).mult, _explicit(n, cycle))
    for a in range(1, 6):
        for b in range(1, 6):
            edges = [(u, a + v, 1) for u in range(a) for v in range(b)]
            assert np.array_equal(mg.complete_bipartite(a, b).mult, _explicit(a + b, edges))
    for d in range(7):
        edges = [(x, x ^ 1 << i, 1) for x in range(2**d) for i in range(d) if not x >> i & 1]
        assert np.array_equal(mg.hypercube(d).mult, _explicit(2**d, edges))
    for dims in ([], [1], [4], [2, 3], [3, 1, 2], [2, 2, 2, 2]):
        # vertex (x_1, ..., x_k) is the mixed-radix number x_1 ... x_k
        cells = list(itertools.product(*(range(d) for d in dims)))
        index = {cell: i for i, cell in enumerate(cells)}
        edges = [(index[c], index[c[:j] + (c[j] + 1,) + c[j + 1:]], 1)
                 for c in cells for j in range(len(dims)) if c[j] + 1 < dims[j]]
        assert np.array_equal(mg.grid(dims).mult, _explicit(len(cells), edges))


def test_random_trees_are_the_pruefer_trees_of_their_seed():
    for m in range(1, 7):
        for seed in range(50):
            tree = mg.random_tree(m, seed)
            if m <= 2:
                expected = _explicit(m, [(0, 1, 1)] if m == 2 else [])
            else:
                rng = random.Random(seed)
                seq = [rng.randrange(m) for _ in range(m - 2)]
                expected = _explicit(m, [(u, v, 1) for u, v in nx.from_prufer_sequence(seq).edges()])
            assert np.array_equal(tree.mult, expected)


def test_grid_and_hypercube_refuse_before_building_a_product(monkeypatch):
    # the running product of the dimensions is checked first: Q13 has 8,192
    # vertices, so no product is built on the way to it
    def refuse(g, h):
        raise AssertionError("a product was built")

    monkeypatch.setattr(mg, "cartesian_product", refuse)
    for build, n in ((lambda: mg.hypercube(13), 8192), (lambda: mg.hypercube(10**20), 8192),
                     (lambda: mg.grid([100, 100, 2]), 10000)):
        with pytest.raises(ValueError, match="a %d-vertex multiplicity matrix" % n):
            build()


_P2 = mg.path(2)


def test_subdivide_refuses_before_building_its_edge_list(monkeypatch):
    # P2 split a million times would have 1,000,002 vertices
    def refuse(n, edges):
        raise AssertionError("the edge list was built")

    monkeypatch.setattr(mg, "from_edge_list", refuse)
    with pytest.raises(ValueError, match="a 1000002-vertex multiplicity matrix"):
        mg.subdivide(_P2, 10**6)


@pytest.mark.parametrize("refused, value", [
    pytest.param(lambda: mg.Multigraph([[0, .5], [.5, 0]]), "0.5", id="matrix-float"),
    pytest.param(lambda: mg.from_edge_list(3, [(0, 1, 1.5)]), "1.5", id="edge-multiplicity"),
    pytest.param(lambda: mg.from_edge_list(3, [(0.5, 1, 1)]), "0.5", id="edge-vertex"),
    pytest.param(lambda: dv.Divisor(_P2, [1.5, 0]), "1.5", id="chip-float"),
    pytest.param(lambda: dv.Divisor(_P2, ["3", 0]), "'3'", id="chip-string"),
    pytest.param(lambda: dv.Divisor(_P2, [2**70, 0]), str(2**70), id="chip-past-int64"),
    pytest.param(lambda: sc.Scramble(mg.path(3), [[0.7, 1.2]]), "0.7", id="egg-vertex"),
])
def test_non_integral_input_is_refused_not_truncated(refused, value):
    with pytest.raises(ValueError) as info:
        refused()
    assert value in str(info.value)


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


@settings(max_examples=100, deadline=None)
@given(subdivided_multigraph)
def test_edges_are_the_upper_triangle_in_row_major_order_property(g):
    rows = g.mult.tolist()
    reference = [(u, v, rows[u][v]) for u in range(g.n) for v in range(u + 1, g.n) if rows[u][v]]
    edges = g.edges()
    assert edges == reference
    assert all(type(x) is int for edge in edges for x in edge)


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


_P3, _K2 = mg.path(3), mg.path(2)


@pytest.mark.parametrize("refused, match, line", [
    pytest.param(lambda: mel.parse_mel("# no vertices\n0 0\n"), "vertex count must be >= 1", 2,
                 id="mel-header-n"),
    pytest.param(lambda: mel.parse_mel("3 -1\n"), "edge-line count must be >= 0", 1,
                 id="mel-header-m"),
    pytest.param(lambda: mel.parse_divisor("# nothing\n"), "empty divisor text", 1,
                 id="mel-empty-divisor"),
    pytest.param(lambda: dv.Divisor(_P3, [1, 0]), "chip vector length", None, id="divisor-length"),
    pytest.param(lambda: mg.path(0), "path needs", None, id="path"),
    pytest.param(lambda: mg.cycle(1), "cycle needs", None, id="cycle"),
    pytest.param(lambda: mg.complete(0), "complete graph needs", None, id="complete"),
    pytest.param(lambda: mg.complete_multipartite([2, 0]), "parts must have size", None,
                 id="complete-multipartite"),
    pytest.param(lambda: mg.star(0), "star needs", None, id="star"),
    pytest.param(lambda: mg.hypercube(-1), "dimension must be >= 0", None, id="hypercube"),
    pytest.param(lambda: mg.grid([2, 0]), "grid dimensions must be >= 1", None, id="grid"),
    pytest.param(lambda: mg.random_tree(0, 1), "tree needs", None, id="random-tree"),
    pytest.param(lambda: mg.random_graph(0, .5, 1), "at least one vertex", None,
                 id="random-graph-n"),
    pytest.param(lambda: mg.random_graph(3, 1.5, 1), "probability", None, id="random-graph-p"),
    pytest.param(lambda: mg.canonical_copy(_P3, _K2, "left", 2), "h-vertex index", None,
                 id="canonical-copy-left"),
    pytest.param(lambda: mg.canonical_copy(_P3, _K2, "right", 3), "g-vertex index", None,
                 id="canonical-copy-right"),
    pytest.param(lambda: mg.canonical_copy(_P3, _K2, "middle", 0), "'left' or 'right'", None,
                 id="canonical-copy-factor"),
    pytest.param(lambda: mg.cone(_P3, -1), "cone height", None, id="cone"),
    pytest.param(lambda: mg.subdivide(_P3, -1), "subdivision count", None, id="subdivide"),
    pytest.param(lambda: mg.induced_subgraph(_P3, []), "at least one vertex", None,
                 id="induced-subgraph"),
    pytest.param(lambda: mg.relabel(_P3, [0, 0, 1]), "not a permutation", None, id="relabel"),
    pytest.param(lambda: inv.edge_boundary(_P3, [0, 5]), "vertex out of range", None,
                 id="edge-boundary"),
])
def test_invalid_input_is_refused(refused, match, line):
    with pytest.raises(ValueError, match=match) as info:
        refused()
    if line is not None:
        assert isinstance(info.value, mel.MelError) and info.value.line == line
        assert str(info.value).startswith("line %d: " % line)
