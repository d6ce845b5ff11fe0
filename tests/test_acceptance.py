"""Acceptance gate: one test (and one printed pass line) per criterion.

Each criterion is phrased against documented values of the benchmark
figures, classical gonalities, or independent brute-force oracles; nothing
here reuses the search logic it is checking.
"""

import itertools
import random

import numpy as np
import pytest

import oracles
from scramblegon import certify as ct
from scramblegon import divisors as dv
from scramblegon import fixtures as fx
from scramblegon import invariants as inv
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc

_GON_CACHE = {}


def exhaustive_gonality(g):
    if g not in _GON_CACHE:
        _GON_CACHE[g] = dv.gonality(g)[0]
    return _GON_CACHE[g]


def _passed(number, message):
    print("[PASS] criterion %d: %s" % (number, message))


# the small-factor family used by the product criteria
def product_factors():
    return [("P2", mg.path(2)), ("P3", mg.path(3)), ("C3", mg.cycle(3)),
            ("C4", mg.cycle(4)), ("K3", mg.complete(3)), ("K4", mg.complete(4)),
            ("star3", mg.star(4))]  # three leaves


def test_criterion_01_cube():
    q3 = fx.cube()
    assert exhaustive_gonality(q3) == 4
    assert sc.scramble_order(fx.cube_scramble()).order == 4
    report = sc.sn_bounds(q3)
    assert report.exact and report.lower == 4
    _passed(1, "cube gonality 4, drawn scramble order 4, sn sandwich closes at 4")


def test_criterion_02_classical_gonalities():
    for n in range(2, 7):
        assert exhaustive_gonality(mg.complete(n)) == n - 1
    assert exhaustive_gonality(mg.complete_bipartite(2, 3)) == 2
    assert exhaustive_gonality(mg.complete_bipartite(3, 3)) == 3
    for m in range(3, 9):
        assert exhaustive_gonality(mg.cycle(m)) == 2
    rng = random.Random(2024)
    for _ in range(10):
        tree = mg.random_tree(rng.randrange(2, 11), seed=rng.randrange(1 << 30))
        assert exhaustive_gonality(tree) == 1
    for m in range(1, 5):
        for n in range(1, 5):
            assert exhaustive_gonality(mg.grid([m, n])) == min(m, n)
    _passed(2, "complete, bipartite, cycle, tree, and grid gonalities all match")


def test_criterion_03_wedge_trio():
    graphs = [fx.slashed_diamond(), fx.wedge_tips(), fx.wedge_middles()]
    values = [exhaustive_gonality(g) for g in graphs]
    assert values == [2, 2, 3]
    for g, value in zip(graphs, values):
        report = sc.sn_bounds(g, use_brute=True)
        assert report.exact and report.lower == value
    assert sc.scramble_order(fx.wedge_middles_scramble()).order == 3
    _passed(3, "wedge trio gonalities (2, 2, 3), sn sandwich closes, drawn scramble order 3")


def test_criterion_04_immersion_minor_pair():
    assert sc.scramble_order(fx.immersion_scramble()).order == 3
    assert sc.brute_force_sn(fx.immersion_g()).value == 3
    h_report = sc.sn_bounds(fx.immersion_h(), use_brute=True)
    assert h_report.exact and h_report.lower == 2
    # the hyperelliptic witness: deleting one parallel c-d edge leaves a graph
    # where one chip on a and one on b has positive rank
    assert dv.has_positive_rank(fx.immersion_h_prime_divisor())
    assert exhaustive_gonality(fx.immersion_h_prime()) == 2
    _passed(4, "immersion pair: sn(G) = 3 > 2 = sn(H), hyperelliptic witness checks out")


def test_criterion_05_complete_graph_burning():
    checked = 0
    for n in (4, 5):
        g = mg.complete(n)
        for degree in range(n - 1):
            for probe in itertools.combinations_with_replacement(range(n), degree):
                chips = np.zeros(n, dtype=np.int64)
                for v in probe:
                    chips[v] += 1
                d = dv.Divisor(g, chips)
                for q in range(n):
                    if chips[q] == 0:
                        assert dv.dhar_burn(d, q).all_burned()
                        checked += 1
    rng = random.Random(55)
    for n in (6, 7):
        g = mg.complete(n)
        for _ in range(500):
            degree = rng.randrange(0, n - 1)
            chips = np.zeros(n, dtype=np.int64)
            for _ in range(degree):
                chips[rng.randrange(n)] += 1
            q = rng.choice([v for v in range(n) if chips[v] == 0])
            assert dv.dhar_burn(dv.Divisor(g, chips), q).all_burned()
            checked += 1
    _passed(5, "one Dhar pass burns K_n for every low-degree divisor (%d cases)" % checked)


def test_criterion_06_dense_graphs_close_at_n_minus_alpha():
    rng = random.Random(66)
    done = 0
    while done < 100:
        n = 6 + done % 5
        g = mg.random_graph(n, 0.8, seed=rng.randrange(1 << 30))
        if inv.min_degree(g) < n // 2 + 1 or not inv.is_connected(g):
            continue
        alpha = oracles.brute_alpha(g)
        assert sc.scramble_order(sc.edge_scramble(g)).order == n - alpha
        assert dv.gonality(g)[0] == n - alpha
        done += 1
    _passed(6, "100 dense random graphs: edge-scramble order = gonality = n - alpha")


def test_criterion_07_sharpness_fixtures():
    rook = mg.cartesian_product(mg.complete(3), mg.complete(2))
    assert exhaustive_gonality(rook) == 3
    assert rook.n - inv.independence_number(rook) == 4
    # 4-cycle plus a cone vertex over one embedded edge-copy: n = 5, delta = 2
    odd = mg.from_edge_list(5, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1),
                                (4, 0, 1), (4, 2, 1)])
    assert inv.min_degree(odd) == 2
    assert exhaustive_gonality(odd) == 2
    assert odd.n - inv.independence_number(odd) == 3
    _passed(7, "both sharpness fixtures have gonality strictly below n - alpha")


def test_criterion_08_cone_reduction_round_trip():
    count = 0
    for g in oracles.connected_graph_corpus(max_n=4, max_edges=6):
        if g.n < 2:
            continue
        alpha, m, cone_graph = ct.reduce_alpha(g)
        assert alpha == oracles.brute_alpha(g)
        assert alpha == 2 * m - dv.gonality(cone_graph)[0]
        count += 1
    assert count == 9  # connected simple graphs on 2..4 vertices up to isomorphism
    rng = random.Random(88)
    for _ in range(10):
        g = oracles.random_connected_graph(rng, 5, 0.6)
        alpha, m, cone_graph = ct.reduce_alpha(g)
        assert alpha == oracles.brute_alpha(g)
        assert alpha == 2 * m - dv.gonality(cone_graph)[0]
        count += 1
    _passed(8, "alpha recovered from cone gonality on %d graphs" % count)


def test_criterion_09_product_lower_bound_soundness():
    pairs = 0
    for (_, g), (_, h) in itertools.product(product_factors(), repeat=2):
        if g.n * h.n > 12:
            continue
        gon = exhaustive_gonality(mg.cartesian_product(g, h))
        if g.n >= 2 and h.n >= 2:
            assert ct.cor42_lower(g, h) <= gon
        if inv.vertex_connectivity(g) >= 2:
            assert ct.prop43_lower(g, h) <= gon
        for k in range(1, inv.vertex_connectivity(g) + 1):
            if g.n < 2 * k - 1:
                break
            formula = ct.thm41_lower(g, h, k)
            assert formula <= gon
            assert sc.scramble_order(sc.product_scramble(g, h, k)).order >= formula
        pairs += 1
    _passed(9, "all closed-form lower bounds sound on %d product pairs" % pairs)


def test_criterion_10_certificates_match_exhaustive_search():
    assert ct.certify_product(mg.cycle(4), mg.cycle(5)).value == 8
    # upper-bound side of the 4x5 torus certificate, checked directly
    prod = mg.cartesian_product(mg.cycle(4), mg.cycle(5))
    chips = np.zeros(prod.n, dtype=np.int64)
    chips[sorted(mg.canonical_copy(mg.cycle(4), mg.cycle(5), "left", 0))] = 2
    assert dv.has_positive_rank(dv.Divisor(prod, chips))

    for n in (3, 4):
        doubled = mg.cartesian_product(mg.cycle(2), mg.complete(n))
        assert exhaustive_gonality(doubled) == 2 * n - 2
        assert ct.certify_product(mg.cycle(2), mg.complete(n)).value == 2 * n - 2
    assert exhaustive_gonality(mg.cartesian_product(mg.cycle(4), mg.complete(3))) == 6

    agreed = 0
    seen = set()
    for (_, g), (_, h) in itertools.combinations_with_replacement(product_factors(), 2):
        if g.n * h.n > 12 or (g, h) in seen:
            continue
        seen.add((g, h))
        cert = ct.certify_product(g, h)
        gon = exhaustive_gonality(mg.cartesian_product(g, h))
        if cert.certified:
            assert cert.value == gon
        else:
            assert cert.bounds.lower <= gon <= cert.bounds.upper
        agreed += 1
    _passed(10, "certificates agree with exhaustive gonality on %d desk-scale products" % agreed)


def test_criterion_11_large_instance_certificates():
    rook3 = mg.cartesian_product(mg.complete(3), mg.complete(2))
    cert = ct.certify_product(mg.complete(4), rook3)
    assert cert.certified and cert.value == 12
    # the dedicated uniform-connectivity route also proves 12 on its own
    value, checks = ct._stmt_uniform(ct._stats(rook3, 12), ct._stats(mg.complete(4), 12))
    assert value == 12 and all(c.passed for c in checks)

    torus = mg.cartesian_product(mg.cycle(3), mg.cycle(3))
    cert = ct.certify_product(torus, mg.cycle(6))
    assert cert.certified and cert.value == 18
    # the k = 3 product scramble's order meets |V(C3xC3)| gon(C6)
    assert cert.statement == "met-bounds"
    assert [c.value for c in cert.hypotheses] == [
        "18 by k=3 product scramble (G,H)", "18 by factor gonality"]
    assert all(c.passed for c in cert.hypotheses)
    _passed(11, "certified 12 for K4xK3xK2 and 18 for C3xC3xC6, hypotheses checked")


def test_criterion_12_oracle_equivalences(corpus):
    pruned_checked = 0
    for g in corpus:
        assert dv.gonality(g)[0] == oracles.unpruned_gonality(g)
        pruned_checked += 1

    pair_checked = 0
    for g in corpus:
        if g.n < 2:
            continue
        divisors = []
        for degree in range(4):
            for probe in itertools.combinations_with_replacement(range(g.n), degree):
                chips = np.zeros(g.n, dtype=np.int64)
                for v in probe:
                    chips[v] += 1
                divisors.append(chips)
        reduced = [dv.q_reduce(dv.Divisor(g, c), 0).chips.tobytes() for c in divisors]
        for i, j in itertools.combinations(range(len(divisors)), 2):
            same = reduced[i] == reduced[j]
            assert same == oracles.laplacian_equivalent(g, divisors[i], divisors[j])
            pair_checked += 1

    sandwich_checked = 0
    for g in corpus:
        report = sc.sn_bounds(g)
        brute = sc.brute_force_sn(g).value
        assert report.lower <= brute <= report.upper
        if report.exact:
            assert brute == report.lower
            sandwich_checked += 1
    _passed(12, "pruned = unpruned gonality on %d graphs, %d equivalence pairs, "
               "%d closed sandwiches match brute force"
            % (pruned_checked, pair_checked, sandwich_checked))
