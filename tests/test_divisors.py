import random

import numpy as np
import pytest

import oracles
from scramblegon import divisors as dv
from scramblegon import multigraph as mg


def random_divisor(rng, g, low=-2, high=3):
    return dv.Divisor(g, [rng.randrange(low, high + 1) for _ in range(g.n)])


def test_fire_moves_chips_along_multiplicities():
    g = mg.from_edge_list(3, [(0, 1, 2), (1, 2, 1)])
    d = dv.fire(dv.Divisor(g, [5, 0, 0]), 0)
    assert d.chips.tolist() == [3, 2, 0]


def test_fire_conserves_degree():
    rng = random.Random(3)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 6, 0.5)
        d = random_divisor(rng, g)
        v = rng.randrange(g.n)
        assert dv.fire(d, v).degree() == d.degree()


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


def test_batch_reduction_matches_single_reduction():
    rng = random.Random(33)
    g = oracles.random_connected_graph(rng, 6, 0.5)
    rows = np.array([[rng.randrange(0, 4) for _ in range(g.n)] for _ in range(30)],
                    dtype=np.int64)
    for q in range(g.n):
        batch = dv._batch_reduce_effective(g.mult, rows, q)
        for i in range(rows.shape[0]):
            single = dv._reduce_chips(g.mult, rows[i], q)
            assert np.array_equal(batch[i], single)


def test_batch_burn_is_exact_past_float32_precision():
    g = mg.from_edge_list(3, [(0, 1, 1), (1, 2, 2**24 + 1)])
    rows = np.array([[0, 0, 2**24], [0, 0, 2**24 + 1], [0, 5, 2**24], [0, 0, 0]], dtype=np.int64)
    for q in range(g.n):
        batch = dv._burn_rows(g.mult, rows, q)
        for i in range(rows.shape[0]):
            assert np.array_equal(batch[i], dv._burn_mask(g.mult, rows[i], q))


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
    with pytest.raises(ValueError):
        dv.gonality(mg.cycle(5), lower_hint=4, upper_hint=2)


def test_gonality_hints_do_not_change_the_answer():
    g = mg.complete_bipartite(3, 3)
    assert dv.gonality(g)[0] == 3
    assert dv.gonality(g, lower_hint=1, upper_hint=5)[0] == 3


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
    c5c5 = mg.cartesian_product(mg.cycle(5), mg.cycle(5))
    # the degree-9 box has 35,723,880 rows: ~6.8 GiB of int64 chips
    with pytest.raises(dv.CandidateBudgetError, match="budget"):
        dv.gonality(c5c5, lower_hint=9)
