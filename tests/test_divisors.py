import collections
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from scramblegon import certify as ct
from scramblegon import divisors as dv
from scramblegon import invariants as inv
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc


def random_divisor(rng, g, low=-2, high=3):
    return dv.Divisor(g, [rng.randrange(low, high + 1) for _ in range(g.n)])


def test_fire_moves_chips_along_multiplicities():
    g = mg.from_edge_list(3, [(0, 1, 2), (1, 2, 1)])
    d = dv.fire(dv.Divisor(g, [5, 0, 0]), 0)
    assert d.chips.tolist() == [3, 2, 0]
    for v in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            dv.fire(d, v)


def test_fire_conserves_degree():
    rng = random.Random(3)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 6, 0.5)
        d = random_divisor(rng, g)
        v = rng.randrange(g.n)
        assert dv.fire(d, v).degree() == d.degree()


def test_degree_does_not_wrap_past_int64():
    k2 = mg.complete(2)
    assert dv.Divisor(k2, [2**62, 2**62]).degree() == 2**63
    assert dv.Divisor(k2, [-2**63, -1]).degree() == -2**63 - 1
    assert type(dv.Divisor(k2, [1, 2]).degree()) is int


def test_fire_set_matches_sequential_firing():
    rng = random.Random(5)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 6, 0.5)
        d = random_divisor(rng, g)
        members = [v for v in range(g.n) if rng.random() < 0.5]
        expected = d
        for v in members:
            expected = dv.fire(expected, v)
        assert dv.fire_set(d, members) == expected


def test_firing_everything_is_a_no_op():
    g = mg.hypercube(3)
    d = dv.Divisor(g, [1, 1, 1, 1, 0, 0, 0, 0])
    assert dv.fire_set(d, range(8)) == d


def test_dhar_burn_known_frontier():
    from scramblegon import fixtures as fx
    d = fx.cube_divisor()
    result = dv.dhar_burn(d, 6)
    assert result.unburned == frozenset({0, 1, 2, 3})
    assert not result.all_burned()
    # with no chips anywhere the whole graph burns
    assert dv.dhar_burn(dv.zero_divisor(d.graph), 6).all_burned()


def test_dhar_burn_rejects_debt_off_q():
    g = mg.cycle(4)
    with pytest.raises(ValueError):
        dv.dhar_burn(dv.Divisor(g, [0, -1, 0, 0]), 0)
    # debt at q itself is fine
    dv.dhar_burn(dv.Divisor(g, [-5, 0, 0, 0]), 0)
    # q = -1 must not stand for vertex n - 1, nor q = n raise IndexError
    p3 = dv.Divisor(mg.path(3), [0, 0, 1])
    for q in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            dv.is_q_reduced(p3, q)


def test_a_q_out_of_range_is_refused_and_debt_off_q_is_not_reduced():
    p3 = dv.Divisor(mg.path(3), [0, 0, 1])
    for q in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            dv.dhar_burn(p3, q)
        with pytest.raises(ValueError, match="out of range"):
            dv.q_reduce(p3, q)
    # the burn would reach every vertex, but vertex 1 is in debt
    assert not dv.is_q_reduced(dv.Divisor(mg.path(3), [2, -1, 0]), 0)
    assert dv.is_q_reduced(dv.Divisor(mg.path(3), [-1, 0, 0]), 0)


def test_q_reduction_refuses_a_disconnected_host():
    two_edges = mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="connected host"):
        dv.q_reduce(dv.Divisor(two_edges, [1, 0, 0, 0]), 0)


def test_q_reduce_output_is_reduced_and_script_replays():
    rng = random.Random(9)
    for _ in range(15):
        g = oracles.random_connected_graph(rng, rng.randrange(3, 7), 0.5)
        d = random_divisor(rng, g)
        q = rng.randrange(g.n)
        reduced, script = dv.q_reduce(d, q, with_script=True)
        assert dv.is_q_reduced(reduced, q)
        assert reduced.degree() == d.degree()
        replay = d
        for fired in script:
            replay = dv.fire_set(replay, fired)
        assert replay == reduced


def test_q_reduce_script_follows_the_bfs_layers():
    # distance layers from q = 0: {1, 5}, {2, 4}, {3}.  The debt on layer 2 is
    # cleared by firing the ball {0, 1, 5} twice, then layer 1 by firing {0}
    # three times; Dhar's loop fires the three unburned sets after that
    g = mg.from_edge_list(6, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1), (4, 5, 2),
                              (5, 0, 1), (1, 4, 1)])
    reduced, script = dv.q_reduce(dv.Divisor(g, [3, 1, -2, 0, -2, 1]), 0, with_script=True)
    assert reduced.chips.tolist() == [0, 0, 0, 1, 0, 0]
    assert [sorted(s) for s in script] == [[0, 1, 5], [0, 1, 5], [0], [0], [0],
                                           [1, 2, 3, 4], [4, 5], [1, 2, 3, 4, 5]]


def test_q_reduce_refuses_chips_that_could_leave_int64():
    # |chips| totalling 2**63 + 5 on entry, and a phase-1 step that would
    # fire {0, 1} twice, each firing moving 2**61 chips from vertex 1 to
    # vertex 2; the first is refused before any firing, the second before
    # that step's
    k2 = mg.from_edge_list(2, [(0, 1, 2**61)])
    steep = mg.from_edge_list(3, [(0, 1, 1), (1, 2, 2**61)])
    for d, q in ((dv.Divisor(k2, [-2**62, 2**62 + 5]), 1), (dv.Divisor(steep, [0, 0, -2**62]), 0)):
        with pytest.raises(ValueError, match="int64 limit"):
            dv.q_reduce(d, q, with_script=True)
    # one firing of 2**61 chips fits
    assert dv.q_reduce(dv.Divisor(k2, [-1, 6]), 1).chips.tolist() == [2**61 - 1, 6 - 2**61]
    # phase 1 fires {0} once, not four times, to clear vertex 1's debt of 4
    heavy = mg.from_edge_list(3, [(0, 1, 2**61), (1, 2, 1)])
    reduced, script = dv.q_reduce(dv.Divisor(heavy, [0, 0, -4]), 0, with_script=True)
    assert reduced.chips.tolist() == [-2**61, 2**61 - 4, 0]
    assert script == [frozenset({0, 1})] * 4 + [frozenset({0})]


def test_phase_1_fires_each_layer_only_as_often_as_its_debt_needs():
    # each firing of {1} hands vertex 0 2**20 chips, so a debt of 2**21
    # takes two firings, not 2**21 firings and as many back
    k2 = mg.from_edge_list(2, [(0, 1, 2**20)])
    reduced, script = dv.q_reduce(dv.Divisor(k2, [-2**21, 2**21 + 5]), 1, with_script=True)
    assert reduced.chips.tolist() == [0, 5]
    assert script == [frozenset({1})] * 2


def test_a_firing_script_over_its_budget_is_refused_in_either_phase(monkeypatch):
    p2 = mg.path(2)
    # phase 1 fires {0} once per chip of vertex 1's debt: 2**22 firings fit
    # the budget, and 2**40 are refused before the script is built
    reduced, script = dv.q_reduce(dv.Divisor(p2, [2**22, -2**22]), 0, with_script=True)
    assert reduced.chips.tolist() == [0, 0] and len(script) == 2**22 == dv.SCRIPT_BUDGET
    with pytest.raises(ValueError, match="2199023255552 firings, over the 4194304-firing script"):
        dv.q_reduce(dv.Divisor(p2, [2**40, -2**41]), 0, with_script=True)
    monkeypatch.setattr(dv, "SCRIPT_BUDGET", 8)
    reduced, script = dv.q_reduce(dv.Divisor(p2, [8, -8]), 0, with_script=True)
    assert reduced.chips.tolist() == [0, 0] and script == [frozenset({0})] * 8
    with pytest.raises(ValueError, match="9 firings, over the 8-firing script budget"):
        dv.q_reduce(dv.Divisor(p2, [9, -9]), 0, with_script=True)
    # phase 2 fires the unburned {1} once per loop: [k, k] at 0 ends at [2k, 0]
    reduced, script = dv.q_reduce(dv.Divisor(p2, [8, 8]), 0, with_script=True)
    assert reduced.chips.tolist() == [16, 0] and script == [frozenset({1})] * 8
    with pytest.raises(ValueError, match="9 firings, over the 8-firing script budget"):
        dv.q_reduce(dv.Divisor(p2, [9, 9]), 0, with_script=True)
    # the phases share the budget: 5 phase-1 firings, then 4 in phase 2
    with pytest.raises(ValueError, match="9 firings, over the 8-firing script budget"):
        dv.q_reduce(dv.Divisor(mg.path(3), [0, 9, -5]), 0, with_script=True)
    # with no script nothing is counted
    assert dv.q_reduce(dv.Divisor(p2, [9, 9]), 0).chips.tolist() == [18, 0]


def test_q_reduced_form_is_an_equivalence_invariant():
    rng = random.Random(13)
    for _ in range(15):
        g = oracles.random_connected_graph(rng, rng.randrange(3, 7), 0.5)
        d = random_divisor(rng, g)
        moved = d
        for _ in range(rng.randrange(1, 4)):
            members = [v for v in range(g.n) if rng.random() < 0.5]
            moved = dv.fire_set(moved, members)
        q = rng.randrange(g.n)
        assert dv.q_reduce(d, q) == dv.q_reduce(moved, q)


def test_q_reduce_agrees_with_lattice_oracle():
    rng = random.Random(17)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 5, 0.6)
        d1 = random_divisor(rng, g, low=0, high=2)
        d2 = random_divisor(rng, g, low=0, high=2)
        same = dv.q_reduce(d1, 0) == dv.q_reduce(d2, 0)
        assert same == oracles.laplacian_equivalent(g, d1.chips, d2.chips)


def test_q_reduce_agrees_with_the_single_firing_oracle():
    rng = random.Random(19)
    for _ in range(300):
        g = oracles.random_connected_multigraph(rng, rng.randrange(1, 8), 0.5)
        d = random_divisor(rng, g, low=-3, high=4)
        q = rng.randrange(g.n)
        assert dv.q_reduce(d, q).chips.tolist() == oracles.q_reduced(g, d.chips, q)


def test_rank_examples():
    c5 = mg.cycle(5)
    assert dv.rank(dv.Divisor(c5, [1, 0, 0, 0, 0]), 2) == 0
    assert dv.rank(dv.Divisor(c5, [2, 0, 0, 0, 0]), 3) == 1
    assert dv.rank(dv.Divisor(c5, [-1, 0, 0, 0, 0]), 1) == -1
    k4 = mg.complete(4)
    assert dv.rank(dv.Divisor(k4, [3, 0, 0, 0]), 3) == 1
    assert dv.rank(dv.zero_divisor(k4), 2) == 0
    with pytest.raises(ValueError):
        dv.rank(dv.zero_divisor(k4), -1)


def test_rank_satisfies_riemann_roch():
    rng = random.Random(21)
    hosts = [mg.complete(4), mg.cycle(5), mg.complete_bipartite(2, 3),
             mg.from_edge_list(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)])]
    for g in hosts:
        genus = g.edge_count() - g.n + 1
        canonical = g.valences() - 2
        for _ in range(4):
            d = random_divisor(rng, g, low=-1, high=2)
            dual = dv.Divisor(g, canonical - d.chips)
            r = dv.rank(d, max(d.degree(), 0) + 1)
            r_dual = dv.rank(dual, max(dual.degree(), 0) + 1)
            assert r - r_dual == d.degree() - genus + 1


def test_has_positive_rank_matches_truncated_rank():
    rng = random.Random(27)
    for _ in range(15):
        g = oracles.random_connected_graph(rng, 5, 0.6)
        d = random_divisor(rng, g, low=0, high=2)
        assert dv.has_positive_rank(d) == (dv.rank(d, 1) >= 1)


def test_has_positive_rank_agrees_with_the_basepoint_loop_on_multigraph_divisors():
    rng = random.Random(26)
    answers = collections.Counter()
    for _ in range(1500):
        g = oracles.random_connected_multigraph(rng, rng.randrange(1, 8), 0.5)
        d = random_divisor(rng, g, low=-3, high=4)
        expected = oracles.basepoint_positive_rank(d)
        assert dv.has_positive_rank(d) == expected
        answers[expected] += 1
    assert min(answers[True], answers[False]) >= 100


def assert_q_reduced_forms(g, rows, reduced, q):
    """Each reduced row is the q-reduced divisor equivalent to its input row:
    effective away from q, burned entirely by a fire from q, and equivalent,
    each by the oracles."""
    for row, red in zip(rows, reduced):
        assert (np.delete(red, q) >= 0).all()
        assert all(oracles.dhar_burned(g, red, q))
        assert oracles.laplacian_equivalent(g, row, red)


def test_batch_reduction_matches_single_reduction():
    rng = random.Random(33)
    g = oracles.random_connected_graph(rng, 6, 0.5)
    rows = np.array([[rng.randrange(0, 4) for _ in range(g.n)] for _ in range(30)],
                    dtype=np.int64)
    for q in range(g.n):
        batch = dv._batch_reduce_effective(g.mult, dv._burn_matrix(g.mult), rows, q)
        assert_q_reduced_forms(g, rows, batch, q)


def test_batch_burn_is_exact_past_float32_precision():
    # int64 burn matrix past valence 2**24, float32 just below it, with chip
    # counts on both sides of 2**24
    g = mg.from_edge_list(3, [(0, 1, 1), (1, 2, 2**24 + 1)])
    below = mg.from_edge_list(3, [(0, 1, 1), (1, 2, 2**24 - 2)])
    assert dv._burn_matrix(g.mult).dtype == np.int64
    assert dv._burn_matrix(below.mult).dtype == np.float32
    assert dv._burn_matrix(mg.cycle(4).mult).dtype == np.float32
    rows = np.array([[0, 0, 2**24], [0, 0, 2**24 + 1], [0, 5, 2**24], [0, 0, 0]], dtype=np.int64)
    for host in (g, below):
        burn = dv._burn_matrix(host.mult)
        for q in range(host.n):
            batch = dv._burn_rows(burn, rows, q)
            for i in range(rows.shape[0]):
                assert batch[i].tolist() == oracles.dhar_burned(host, rows[i], q)
    # the batch reduction fires through the burn matrix as well (at q = 0
    # some of these rows take ~2**24 firings, one chip at a time)
    rows = np.array([[0, 0, 2**24], [0, 0, 2**24 + 1], [0, 5, 2**24], [0, 0, 0],
                     [0, 2**24 + 1, 0], [3, 2**24 - 1, 2]], dtype=np.int64)
    for host in (g, below):
        for q in (1, 2):
            batch = dv._batch_reduce_effective(host.mult, dv._burn_matrix(host.mult), rows, q)
            assert_q_reduced_forms(host, rows, batch, q)


def test_gonality_known_values_and_witness():
    cases = [
        (mg.path(6), 1), (mg.cycle(7), 2), (mg.complete(5), 4),
        (mg.complete_bipartite(2, 4), 2), (mg.hypercube(3), 4),
        (mg.cycle(2), 2),
    ]
    for g, expected in cases:
        value, witness = dv.gonality(g)
        assert value == expected
        assert witness.degree() == value
        assert witness.is_effective()
        assert dv.has_positive_rank(witness)


def test_gonality_single_vertex_and_validation():
    assert dv.gonality(mg.from_edge_list(1, []))[0] == 1
    with pytest.raises(ValueError):
        dv.gonality(mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)]))


def test_gonality_refuses_a_disconnected_graph_before_computing_alpha(monkeypatch):
    def refuse(g):
        raise AssertionError("alpha was computed")

    monkeypatch.setattr(inv, "independence_number", refuse)
    triangles = mg.from_edge_list(6, [(0, 1, 1), (1, 2, 1), (2, 0, 1),
                                      (3, 4, 1), (4, 5, 1), (5, 3, 1)])
    with pytest.raises(ValueError, match="connected"):
        dv.gonality(triangles)


def test_gonality_witness_is_the_lexicographically_least_reduced_one():
    rng = random.Random(41)
    graphs = [oracles.random_connected_graph(rng, rng.randrange(2, 8), 0.5) for _ in range(18)]
    graphs += [oracles.random_connected_multigraph(rng, rng.randrange(2, 6), 0.5) for _ in range(14)]
    for g in graphs:
        value, witness = dv.gonality(g)
        assert (value, witness.chips.tolist()) == oracles.lex_least_gonality_witness(g)


def test_gonality_witness_does_not_depend_on_the_chunk_size(monkeypatch):
    rng = random.Random(47)
    graphs = [mg.hypercube(3), mg.complete_bipartite(3, 3), mg.cone(mg.cycle(4), 4),
              mg.from_edge_list(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 0, 1), (0, 2, 1)])]
    graphs += [oracles.random_connected_multigraph(rng, 6, 0.5) for _ in range(3)]

    def results():
        return [(value, witness.chips.tobytes()) for value, witness in map(dv.gonality, graphs)]

    expected = results()
    for chunk in (1, 7):
        monkeypatch.setattr(dv, "CHUNK_ROWS", chunk)
        assert results() == expected


def test_gonality_reduces_no_row_already_holding_a_chip_on_q(monkeypatch):
    # such a row proves rank at q as it stands, so the filter passes it
    handed = []
    reduce = dv._batch_reduce_effective

    def spy(mult, burn, chips, q):
        handed.append(chips[:, q])
        return reduce(mult, burn, chips, q)

    monkeypatch.setattr(dv, "_batch_reduce_effective", spy)
    for g in (mg.hypercube(3), mg.cone(mg.cycle(4), 4), mg.complete_bipartite(3, 3)):
        dv.gonality(g)
    assert handed and not any(column.any() for column in handed)


def test_box_chunks_concatenate_to_the_box(monkeypatch):
    rng = random.Random(89)
    for chunk in (1, 7, dv.CHUNK_ROWS):
        monkeypatch.setattr(dv, "CHUNK_ROWS", chunk)
        for _ in range(15):
            bounds = [rng.randrange(0, 4) for _ in range(rng.randrange(0, 9))]
            total = rng.randrange(0, 9)
            chunks = list(dv._box_chunks(bounds, total))
            assert all(1 <= c.shape[0] <= chunk for c in chunks)
            rows, _ = dv._bounded_vectors(bounds, total)
            assert np.array_equal(np.vstack(chunks), rows)


def test_box_chunks_are_the_chunks_of_recounted_tails(monkeypatch):
    # the gonality ladder's products and cones, at every degree up to their
    # gonality, with the chunk size that scans them and two that split the
    # columns over more levels
    c5 = mg.cycle(5)
    ladder = [(mg.cartesian_product(mg.complete(4), mg.complete(3)), 8),
              (mg.cartesian_product(mg.cycle(3), c5), 6),
              (mg.cartesian_product(mg.cycle(3), mg.cycle(4)), 6),
              (mg.cone(c5, 5), 8),
              (mg.cartesian_product(mg.complete(3), mg.complete(3)), 6),
              (mg.random_graph(10, 0.5, 0), 5)]
    for chunk in (64, 512, dv.CHUNK_ROWS):
        monkeypatch.setattr(dv, "CHUNK_ROWS", chunk)
        for g, gon in ladder:
            bounds = [int(val) - 1 for val in g.valences()[1:]]
            for degree in range(1, gon + 1):
                chunks = list(dv._box_chunks(bounds, degree - 1))
                reference = list(oracles.recounting_box_chunks(bounds, degree - 1))
                assert len(chunks) == len(reference)
                assert all(np.array_equal(a, b) for a, b in zip(chunks, reference))


def test_box_row_count_matches_enumeration():
    rng = random.Random(83)
    for _ in range(20):
        bounds = [rng.randrange(0, 4) for _ in range(rng.randrange(0, 7))]
        total = rng.randrange(0, 9)
        rows, _ = dv._bounded_vectors(bounds, total)
        assert dv._box_rows(bounds, total) == rows.shape[0]


def test_gonality_refuses_an_over_budget_box_without_building_it(monkeypatch):
    def refuse(bounds, total_max):
        raise AssertionError("the candidate box was built")

    monkeypatch.setattr(dv, "_bounded_vectors", refuse)
    # K14 starts its scan at degree 13, whose box takes ~555.5 MiB of chips
    with pytest.raises(dv.CandidateBudgetError, match="degree-13 .* 555.5 MiB"):
        dv.gonality(mg.complete(14))


def test_gonality_refuses_at_the_vertex_scramble_order_before_any_flow(monkeypatch):
    # G(30, .5, 3): the box at min(lam, n) = 9 is over the budget, so the
    # refusal comes before alpha or any edge-scramble flow is worked out
    def refuse(*args, **kwargs):
        raise AssertionError("alpha or the edge scramble's order was computed")

    monkeypatch.setattr(inv, "independence_number", refuse)
    monkeypatch.setattr(sc, "_edge_scramble_order", refuse)
    with pytest.raises(dv.CandidateBudgetError, match="degree-9 .* 8836.7 MiB"):
        dv.gonality(mg.random_graph(30, 0.5, 3))


def test_a_refusal_names_the_first_over_budget_degree_from_the_vertex_scramble_order(monkeypatch):
    # the cone over C8 (reduce_alpha(C8)): the scan would start at the edge
    # scramble's order 12 = n - alpha, whose box is over the budget; a scan
    # from min(lam, n) = 10 stopped at degree 11, which is named, and no
    # degree is scanned.  The value-only sandwich scans nothing and answers.
    def refuse(*args, **kwargs):
        raise AssertionError("a degree was scanned")

    monkeypatch.setattr(dv, "_first_positive_rank_row", refuse)
    cone = mg.cone(mg.cycle(8), 8)
    assert min(inv.edge_connectivity(cone), cone.n) == 10
    with pytest.raises(dv.CandidateBudgetError, match="degree-11 .* 399.0 MiB"):
        dv.gonality(cone)
    assert sandwiched_gonality(cone, 10) == 12


def test_the_gonality_ladder_scans_from_the_edge_scramble_order(monkeypatch):
    # each scan starts at the edge scramble's order, which is the gonality
    # here; from min(lam, n) these scanned 4, 3, 3, 2 and 3 degrees more
    scanned = []
    scan = dv._first_positive_rank_row

    def spy(g, burn, degree):
        scanned.append(degree)
        return scan(g, burn, degree)

    monkeypatch.setattr(dv, "_first_positive_rank_row", spy)
    product = mg.cartesian_product
    ladder = [(product(mg.complete(4), mg.complete(3)), 8),
              (product(mg.cycle(3), mg.cycle(5)), 6),
              (product(mg.cycle(3), mg.cycle(4)), 6),
              (mg.cone(mg.cycle(5), 5), 8),
              (product(mg.complete(3), mg.complete(3)), 6)]
    for g, gon in ladder:
        del scanned[:]
        assert dv.gonality(g)[0] == gon
        assert scanned == [gon]


@settings(max_examples=25, deadline=None)
@given(st.builds(
    lambda seed, n, p: oracles.random_connected_multigraph(random.Random(seed), n, p),
    st.integers(0, 1 << 30), st.integers(1, 7), st.sampled_from([0.3, 0.5, 0.8])))
def test_gonality_is_the_lex_least_witness_property(g):
    value, witness = dv.gonality(g)
    assert (value, witness.chips.tolist()) == oracles.lex_least_gonality_witness(g)


# a small random connected graph, simple or with multiplicities up to 3,
# drawn from a seed so that hypothesis shrinks towards small seeds and sizes
connected_graphs = st.builds(
    lambda seed, n, p, multi: (oracles.random_connected_multigraph if multi
                               else oracles.random_connected_graph)(random.Random(seed), n, p),
    st.integers(0, 1 << 30), st.integers(1, 7), st.sampled_from([0.3, 0.5, 0.8]), st.booleans())


def vertex_scramble_order(g):
    return max(1, min(inv.edge_connectivity(g), g.n))


def sandwiched_gonality(g, lower):
    """The value-only sandwich's gonality of g from the sound lower bound."""
    return dv._sandwich(g, lower)[1]


@settings(max_examples=60, deadline=None)
@given(connected_graphs)
@example(mg.path(1))
@example(mg.cycle(2))
@example(mg.star(4))
@example(mg.from_edge_list(3, [(0, 1, 2), (1, 2, 3)]))
def test_sandwiched_gonality_is_the_gonality_property(g):
    # every sound lower bound from the vertex scramble's order up to gon
    gon = dv.gonality(g)[0]
    for lower in range(vertex_scramble_order(g), gon + 1):
        assert sandwiched_gonality(g, lower) == gon


def test_each_sandwich_caller_works_out_alpha_and_the_edge_scramble_once(monkeypatch):
    calls = collections.Counter()
    alpha, edge_order = inv.independence_number, sc._edge_scramble_order

    def count_alpha(g):
        calls["alpha", g] += 1
        return alpha(g)

    def count_edge_order(g, a):
        calls["edge", g] += 1
        return edge_order(g, a)

    monkeypatch.setattr(inv, "independence_number", count_alpha)
    monkeypatch.setattr(sc, "_edge_scramble_order", count_edge_order)
    # the sandwiches of Q3 and K4 [] K3 are open, so each needs both
    q3, k4k3 = mg.hypercube(3), mg.cartesian_product(mg.complete(4), mg.complete(3))
    for g, run in ((q3, lambda: dv.gonality(q3)), (k4k3, lambda: dv.gonality(k4k3)),
                   (q3, lambda: sc.sn_bounds(q3)), (k4k3, lambda: sc.sn_bounds(k4k3)),
                   (q3, lambda: ct.certify_product(mg.cycle(5), q3)),
                   (q3, lambda: ct.certify_product(q3, q3))):
        calls.clear()
        run()
        assert calls["alpha", g] == calls["edge", g] == 1
        assert max(calls.values()) == 1


def test_a_closed_sandwich_has_a_positive_rank_witness(monkeypatch):
    # where min(lam, n) meets the upper bound, no degree is scanned, and
    # genus + 1 chips on vertex 0 (when genus + 1 is the bound), else one
    # chip on each vertex outside a maximum independent set (on every vertex
    # of a multigraph or K1) is a positive-rank divisor of that degree
    rng = random.Random(53)
    graphs = [mg.path(1), mg.cycle(2), mg.path(3), mg.complete(5), mg.complete_bipartite(2, 3),
              mg.star(4), mg.from_edge_list(3, [(0, 1, 3), (1, 2, 4), (0, 2, 3)]), mg.cycle(5)]
    graphs += [oracles.random_connected_graph(rng, rng.randrange(2, 9), 0.8) for _ in range(20)]
    graphs += [oracles.random_connected_multigraph(rng, rng.randrange(2, 5), 0.8, max_mult=4)
               for _ in range(20)]

    def refuse(*args, **kwargs):
        raise AssertionError("the gonality search ran")

    monkeypatch.setattr(dv, "gonality", refuse)
    monkeypatch.setattr(dv, "_first_positive_rank_row", refuse)
    closed = by_genus = 0
    for g in graphs:
        lower = vertex_scramble_order(g)
        if lower != dv._scan_bounds(g, 1)[2]:
            continue
        genus_bound = g.edge_count() - g.n + 2
        if lower == genus_bound:
            chips = [genus_bound] + [0] * (g.n - 1)
            by_genus += 1
        elif g.n >= 2 and g.is_simple():
            independent = inv.max_independent_set(g)
            chips = [0 if v in independent else 1 for v in range(g.n)]
        else:
            chips = [1] * g.n
        witness = dv.Divisor(g, chips)
        assert witness.degree() == sandwiched_gonality(g, lower)
        assert dv.has_positive_rank(witness)
        closed += 1
    assert closed >= 15
    assert by_genus >= 3


@settings(max_examples=60, deadline=None)
@given(connected_graphs)
@example(mg.path(1))
@example(mg.cycle(2))
@example(mg.path(5))
def test_the_upper_bound_is_above_the_gonality_property(g):
    # and genus + 1 chips on one vertex have positive rank (Riemann-Roch)
    assert dv._scan_bounds(g, 1)[2] >= dv.gonality(g)[0]
    genus_bound = g.edge_count() - g.n + 2
    assert dv.has_positive_rank(dv.Divisor(g, [genus_bound] + [0] * (g.n - 1)))


def test_the_sandwich_scans_only_below_its_upper_bound(monkeypatch):
    scanned = []
    scan = dv._first_positive_rank_row

    def spy(g, burn, degree):
        scanned.append(degree)
        return scan(g, burn, degree)

    monkeypatch.setattr(dv, "_first_positive_rank_row", spy)
    # lam = 2, the edge scramble's order 3 and gon = 4 = n - alpha: from the
    # lower bound 2 only degree 3 is scanned, and finding nothing proves 4
    g = mg.from_edge_list(7, [(0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 2, 1), (1, 5, 1), (1, 6, 1),
                              (2, 3, 1), (2, 6, 1), (3, 6, 1), (4, 6, 1), (5, 6, 1)])
    assert sc._edge_scramble_order(g, inv.independence_number(g)) == 3
    assert sandwiched_gonality(g, 2) == 4
    assert scanned == [3]
    # gon(Q3) = 4: the edge scramble's order meets n - alpha = 4
    del scanned[:]
    assert sandwiched_gonality(mg.hypercube(3), 3) == 4
    assert scanned == []
    # C5: genus + 1 = 2 meets the vertex scramble's order 2
    assert ct._stats(mg.cycle(5), 12).gon == 2
    assert scanned == []


def test_the_sandwich_returns_its_start_and_a_row_only_from_the_witness_scan():
    # Q3: the vertex scramble's order 3 is raised to the edge scramble's
    # order 4 = n - alpha = gon, which only the witness scan reaches
    q3 = mg.hypercube(3)
    assert dv._sandwich(q3, 3) == (4, 4, None)
    start, value, row = dv._sandwich(q3, 3, witness=True)
    assert (start, value, row.tolist()) == (4, 4, dv.gonality(q3)[1].chips.tolist())


def test_the_sandwich_answers_where_only_the_upper_degree_is_over_budget(monkeypatch):
    # with the budget between Q3's degree-3 and degree-4 boxes the witness
    # search is refused at degree 4, which the value-only sandwich never scans
    q3 = mg.hypercube(3)
    bounds = [int(val) - 1 for val in q3.valences()[1:]]
    box = [dv._box_rows(bounds, degree - 1) * q3.n * 8 for degree in (3, 4)]
    assert box[0] < box[1]
    monkeypatch.setattr(dv, "CANDIDATE_BOX_BUDGET", box[0])
    with pytest.raises(dv.CandidateBudgetError, match="degree-4"):
        dv.gonality(q3)
    assert sandwiched_gonality(q3, 3) == 4


def test_the_basepoint_burn_sees_only_rows_that_passed_the_q_filters(monkeypatch):
    burned_at_0 = []
    burn_rows = dv._burn_rows

    def spy(burn, chips, q):
        if q == 0:  # the scan's rows are in burn's dtype: float32 here
            burned_at_0.extend(map(tuple, chips.astype(np.int64).tolist()))
        return burn_rows(burn, chips, q)

    monkeypatch.setattr(dv, "_burn_rows", spy)
    seen = []
    for g in (mg.hypercube(3), mg.cone(mg.cycle(4), 4), mg.complete_bipartite(3, 3),
              mg.from_edge_list(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 0, 1), (0, 2, 1)])):
        del burned_at_0[:]
        value, witness = dv.gonality(g)
        assert burned_at_0 and tuple(witness.chips.tolist()) in burned_at_0
        seen.append((g, list(burned_at_0)))
    # has_positive_rank burns through _burn_rows too, so the spy is removed first
    monkeypatch.undo()
    for g, rows in seen:
        for chips in rows:
            assert dv.has_positive_rank(dv.Divisor(g, chips))


def test_sandwiched_gonality_raises_on_a_lower_bound_above_the_upper_bound():
    # above genus + 1 (C5, a tree, K4, the doubled edge, Q3), and at n on a
    # simple graph, where n - alpha < n
    doubled = mg.from_edge_list(2, [(0, 1, 2)])
    for g, lower in ((mg.cycle(5), 4), (mg.cycle(5), 3), (mg.path(4), 2), (mg.complete(4), 5),
                     (doubled, 3), (mg.hypercube(3), 7), (mg.complete(5), 5)):
        with pytest.raises(ValueError, match="exceeds"):
            sandwiched_gonality(g, lower)


def test_the_sandwich_reads_no_alpha_where_genus_or_n_meets_its_lower_bound(monkeypatch):
    # cycles, trees, K3 and the doubled edge: min(lam, n) is genus + 1, so
    # gonality, sn_bounds and certify_product answer without an
    # independent-set search
    rng = random.Random(103)
    graphs = [mg.cycle(n) for n in (3, 4, 5, 7)] + [mg.path(n) for n in (1, 2, 4)]
    graphs += [mg.random_tree(n, seed=rng.randrange(1 << 30)) for n in (5, 8)]
    graphs += [mg.complete(3), mg.from_edge_list(2, [(0, 1, 2)])]

    def answers():
        return ([(dv.gonality(g)[0], sc.sn_bounds(g)) for g in graphs],
                [ct.certify_product(g, h) for g in graphs[:5] + graphs[-2:] for h in graphs[5:]])

    expected = answers()

    def refuse(g):
        raise AssertionError("alpha was searched")

    monkeypatch.setattr(inv, "max_independent_set", refuse)
    assert answers() == expected
