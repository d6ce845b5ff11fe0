import collections
import copy
import itertools
import random
import re

import networkx as nx
import pytest

import oracles
from scramblegon import certify as ct
from scramblegon import divisors as dv
from scramblegon import invariants as inv
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc


def test_lower_bound_formulas_known_values():
    c4, c5 = mg.cycle(4), mg.cycle(5)
    assert ct.thm41_lower(c4, c5, 1) == min(5, 8, 12)
    assert ct.thm41_lower(c4, c5, 2) == min(10, 8, 8)
    assert ct.cor42_lower(c4, c5) == max(min(5, 8), min(4, 10))
    assert ct.prop43_lower(c4, c5) == min(10, 8, 8)


def test_lower_bound_formulas_reject_bad_hypotheses():
    disconnected = mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(ct.HypothesisError):
        ct.thm41_lower(disconnected, mg.cycle(4), 1)
    with pytest.raises(ct.HypothesisError):
        ct.thm41_lower(mg.path(4), mg.cycle(4), 2)   # kappa(P4) = 1 < 2
    with pytest.raises(ct.HypothesisError):
        ct.thm41_lower(mg.complete(4), mg.cycle(4), 3)  # |V| < 2k-1
    with pytest.raises(ct.HypothesisError, match="k must be an integer"):
        ct.thm41_lower(mg.cycle(4), mg.cycle(5), 1.5)
    with pytest.raises(ct.HypothesisError):
        ct.prop43_lower(mg.path(4), mg.cycle(4))
    with pytest.raises(ct.HypothesisError):
        ct.cor42_lower(mg.from_edge_list(1, []), mg.cycle(4))


def test_formulas_bound_scramble_order_of_the_witness_scramble():
    pairs = [(mg.cycle(4), mg.path(3)), (mg.complete(4), mg.path(2)),
             (mg.cycle(3), mg.cycle(4))]
    for g, h in pairs:
        kappa = inv.vertex_connectivity(g)
        for k in range(1, kappa + 1):
            if g.n < 2 * k - 1:
                break
            order = sc.scramble_order(sc.product_scramble(g, h, k)).order
            assert order >= ct.thm41_lower(g, h, k)
    # the product-bound table: every k it lists, in either orientation,
    # builds a product scramble of at least the listed value, and k = 0 and
    # one past its largest k are refused by the scramble and the formula
    pairs.append((mg.complete(5), mg.cycle(3)))
    for g, h in pairs:
        table = list(ct._product_bounds(ct._stats(g, 0), ct._stats(h, 0)))
        for tag, k, value, _ in table:
            a, b = (g, h) if tag == "G,H" else (h, g)
            assert sc.scramble_order(sc.product_scramble(a, b, k)).order >= value
        top = max(k for tag, k, _, _ in table if tag == "G,H")
        for k in (0, top + 1):
            with pytest.raises(ValueError):
                sc.product_scramble(g, h, k)
            with pytest.raises(ct.HypothesisError):
                ct.thm41_lower(g, h, k)


def test_certify_statement_ids_and_values():
    # two triangles sharing vertex 0
    bowtie = mg.from_edge_list(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 3, 1), (2, 4, 1)])
    cases = [
        (mg.path(3), mg.complete(4), "tree-factor", 4),
        (mg.cycle(4), mg.cycle(5), "uniform-connectivity", 8),
        (mg.cycle(3), mg.complete(4), "rook", 8),
        (mg.cycle(2), mg.complete(4), "doubled-edge-times-complete", 6),
        (mg.cycle(2), mg.complete(3), "uniform-connectivity", 4),
        (bowtie, mg.complete(6), "met-bounds", 12),
    ]
    for g, h, statement, value in cases:
        cert = ct.certify_product(g, h)
        assert cert.certified
        assert (cert.statement, cert.value) == (statement, value)
        assert all(check.passed for check in cert.hypotheses)
    # K6 plays G: kappa(K6) = 5 admits k = 1..3, and Thm 4.1's value at k
    # first reaches |V(G)| gon(H) = 12 at k = 3
    cert = ct.certify_product(bowtie, mg.complete(6))
    assert cert.hypotheses[0].value == "12 by k=3 product scramble (H,G)"


def test_certify_is_orientation_symmetric_in_value():
    pairs = [(mg.path(3), mg.complete(4)), (mg.cycle(4), mg.cycle(5)),
             (mg.cycle(3), mg.complete(4))]
    for g, h in pairs:
        assert ct.certify_product(g, h).value == ct.certify_product(h, g).value


def test_certify_open_case_reports_bounds():
    k6 = mg.complete(6)
    cert = ct.certify_product(k6, k6)
    assert not cert.certified
    assert cert.statement == "open"
    assert (cert.bounds.lower, cert.bounds.upper) == (18, 30)
    assert cert.bounds.lower <= cert.bounds.upper
    # on P2 x C5 the (H,G) k = 2 value ties the (G,H) k = 1 value 4; the
    # first of equal bounds names the source
    bounds = ct.certify_product(mg.path(2), mg.cycle(5), budget=0).bounds
    assert (bounds.lower, bounds.lower_source) == (4, "k=1 product scramble (G,H)")


def test_open_bounds_equal_the_best_public_lower_formula():
    # the public formulas give the oracle's closed-form values where its
    # hypotheses hold and refuse elsewhere; budget 0 leaves the factor
    # gonalities unknown, so most pairs stay open, and their lower bound must
    # be the best of those values (no factor here has one vertex)
    factors = [mg.path(3), mg.cycle(2), mg.cycle(4), mg.cycle(5), mg.complete(4),
               mg.complete_bipartite(2, 3), mg.star(4), mg.hypercube(3), mg.complete(5),
               mg.from_edge_list(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1)])]

    def formula(f, *args):
        try:
            return f(*args)
        except ct.HypothesisError:
            return None

    opened = 0
    for g in factors:
        for h in factors:
            want = oracles.product_lower_formulas(g, h)
            for k in range(0, g.n + 2):
                assert formula(ct.thm41_lower, g, h, k) == want.get(("thm41", k))
            assert formula(ct.prop43_lower, g, h) == want.get("prop43")
            assert formula(ct.cor42_lower, g, h) == want.get("cor42")
            cert = ct.certify_product(g, h, budget=0)
            if cert.certified:
                continue
            opened += 1
            values = list(want.values()) + list(oracles.product_lower_formulas(h, g).values())
            assert cert.bounds.lower == max(values)
    assert opened >= 50


def test_every_open_bound_names_a_scramble_that_attains_it():
    # the factors above; on C5 x C2 and the 4-vertex multigraph x C2 the
    # larger k = 1 value is the (H,G) one
    factors = [mg.path(3), mg.cycle(2), mg.cycle(4), mg.cycle(5), mg.complete(4),
               mg.complete_bipartite(2, 3), mg.star(4), mg.hypercube(3), mg.complete(5),
               mg.from_edge_list(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1)])]
    checked = 0
    for g, h in itertools.product(factors, repeat=2):
        if g.n * h.n > 12:
            continue
        for budget in (0, 12):
            cert = ct.certify_product(g, h, budget=budget)
            if cert.certified:
                continue
            k, tag = re.fullmatch(r"k=(\d+) product scramble \((G,H|H,G)\)",
                                  cert.bounds.lower_source).groups()
            a, b = (g, h) if tag == "G,H" else (h, g)
            assert sc.scramble_order(sc.product_scramble(a, b, int(k))).order >= cert.bounds.lower
            checked += 1
    assert checked >= 6


def _with_gon(stats, gon):
    """A copy of a factor's stats that reads `gon` as its gonality."""
    stats = copy.copy(stats)
    stats.gon = gon
    return stats


def test_open_bounds_raise_on_a_factor_gonality_below_the_lower_bound():
    # gon(Q3) = 4; taken as 1 it puts the factor-gonality upper bound 8
    # under the product-scramble lower bound 18, which must not be reported
    q3 = _with_gon(ct._stats(mg.hypercube(3), 12), 1)
    with pytest.raises(ValueError, match="lower 18 > upper 8"):
        ct._open_bounds(q3, q3)


def _bipartite_cases():
    """Relabelled K_{m,n}, the doubled edge, near misses (an edge removed,
    added inside a part or doubled, an isolated vertex added), every
    connected simple graph on at most 6 vertices, and random graphs and
    multigraphs."""
    rng = random.Random(37)
    cases = [mg.path(1), mg.cycle(2), mg.from_edge_list(2, [(0, 1, 1)])]
    cases += [mg.from_edge_list(len(a), [(u, v, 1) for u, v in a.edges()])
              for a in nx.graph_atlas_g()[1:] if len(a) <= 6 and nx.is_connected(a)]
    for m in range(1, 5):
        for n in range(m, 6):
            edges = [(u, m + v, 1) for u in range(m) for v in range(n)]
            variants = [edges, edges[1:], edges + [(m, m + n - 1, 1)] if n > 1 else edges[1:],
                        [(u, v, 2 if i == 0 else k) for i, (u, v, k) in enumerate(edges)]]
            for i, variant in enumerate(variants):
                g = mg.from_edge_list(m + n, variant)
                cases.append(mg.relabel(g, rng.sample(range(g.n), g.n)))
            cases.append(mg.from_edge_list(m + n + 1, edges))
    for i in range(200):
        g = mg.random_graph(rng.randrange(2, 9), rng.choice([0.3, 0.6, 0.9]), seed=rng.randrange(1 << 30))
        if i % 2:
            g = mg.from_edge_list(g.n, [(u, v, rng.randint(1, 2)) for u, v, _ in g.edges()])
        cases.append(g)
    return cases


def test_complete_bipartite_parts_match_networkx():
    for g in _bipartite_cases():
        assert ct._complete_bipartite_parts(g) == oracles.networkx_complete_bipartite_parts(g)
    assert ct._complete_bipartite_parts(mg.relabel(mg.complete_bipartite(2, 3), [4, 0, 2, 1, 3])) == (2, 3)
    assert ct._complete_bipartite_parts(mg.cycle(2)) is None
    assert ct._complete_bipartite_parts(mg.cycle(4)) == (2, 2)


def test_certify_closes_large_cycle_factors_within_a_raised_budget(monkeypatch):
    # a cycle's genus + 1 = 2 meets its vertex scramble's order 2, so the
    # budget that admits C16 and C20 gives their gonality with no search
    def refuse(*args, **kwargs):
        raise AssertionError("the gonality search ran")

    monkeypatch.setattr(dv, "_first_positive_rank_row", refuse)
    g, h = mg.cycle(16), mg.cycle(20)
    assert not ct.certify_product(g, h).certified
    cert = ct.certify_product(g, h, budget=20)
    assert cert.certified
    assert cert.value == 32  # 2 |V(G)| via the hyperelliptic-factor route


def test_omitted_statements_certify_what_an_earlier_statement_certifies():
    # wherever tree-times-tight or high-connectivity-gonk would hold, some
    # statement the certifier keeps certifies the same value, for every
    # factor gonality a graph of the factor's shape could have; and with the
    # factors' true gonalities, wherever any omitted statement holds the
    # certifier proves its value (a made-up gonality may put the
    # factor-gonality upper bound under the table's lower bound)
    factors = [mg.path(1), mg.path(2), mg.path(3), mg.star(4), mg.cycle(2), mg.cycle(3),
               mg.cycle(4), mg.cycle(5), mg.complete(4), mg.complete(5),
               mg.complete_bipartite(2, 3), mg.hypercube(3), mg.from_edge_list(2, [(0, 1, 3)]),
               mg.from_edge_list(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1)])]
    gon = {f: dv.gonality(f)[0] for f in factors}
    fired, held = 0, collections.Counter()
    for g, h in itertools.product(factors, repeat=2):
        stats_g, stats_h = ct._stats(g, 0), ct._stats(h, 0)
        omitted = oracles.omitted_product_statements(g, h)
        for (gon_g, gon_h), statements in omitted.items():
            values = {value for statement, value in statements
                      if statement in ("tree-times-tight", "high-connectivity-gonk")}
            if values:
                cert = ct._certify(_with_gon(stats_g, gon_g), _with_gon(stats_h, gon_h))
                assert cert.certified and values == {cert.value}
                fired += 1
        statements = omitted[gon[g], gon[h]]
        if statements:
            cert = ct.certify_product(g, h)
            assert cert.certified and {value for _, value in statements} == {cert.value}
            held.update(statement for statement, _ in statements)
    assert fired >= 200
    assert min(held[statement] for statement in (
        "biconnected-gon2", "biconnected-tight", "high-connectivity-tight",
        "one-vertex-factor")) >= 1, held


def test_reduce_alpha_of_c7_through_the_gonality_search():
    # the cone has 14 vertices and gonality 11; its degree-11 scan fits the
    # candidate-box budget once the budget prices the rows actually scanned
    assert ct.reduce_alpha(mg.cycle(7), solver="gonality")[0] == 3


def test_certify_finds_the_gonality_of_eight_factors_without_a_search(monkeypatch):
    # min(lam, n) meets n - alpha on each, and n on the doubled edge C2
    def refuse(*args, **kwargs):
        raise AssertionError("the gonality search ran")

    monkeypatch.setattr(dv, "gonality", refuse)
    monkeypatch.setattr(dv, "_first_positive_rank_row", refuse)
    factors = [(mg.path(3), 1), (mg.cycle(2), 2), (mg.complete(3), 2), (mg.cycle(4), 2),
               (mg.complete(4), 3), (mg.complete_bipartite(2, 3), 2), (mg.star(4), 1),
               (mg.complete(5), 4)]
    for g, gon in factors:
        assert ct._stats(g, 12).gon == gon
    for (g, _), (h, _) in itertools.product(factors, repeat=2):
        ct.certify_product(g, h)


def test_equal_factors_share_their_invariants(monkeypatch):
    c5 = mg.cycle(5)
    ring = mg.from_edge_list(5, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert ring is not c5 and ring == c5
    pairs = [(c5, c5, 1), (c5, ring, 1), (mg.cycle(4), c5, 2)]
    stats = ct._stats
    want = [ct._certify(stats(g, 12), stats(h, 12)) for g, h, _ in pairs]
    calls = []
    monkeypatch.setattr(ct, "_stats", lambda g, budget: calls.append(g) or stats(g, budget))
    for (g, h, computed), cert in zip(pairs, want):
        del calls[:]
        assert ct.certify_product(g, h) == cert
        assert len(calls) == computed


def _fixture_factors():
    """The 20 fixture-family factors: P2-P6, C3-C7, K2-K5, five K_{m,n}, Q3."""
    return ([mg.path(n) for n in range(2, 7)] + [mg.cycle(n) for n in range(3, 8)]
            + [mg.complete(n) for n in range(2, 6)]
            + [mg.complete_bipartite(m, n) for m, n in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))]
            + [mg.hypercube(3)])


def test_lazy_factor_stats_certify_as_the_eager_reference():
    # every certificate, hypotheses included, equals the one built from
    # stats whose invariants are all computed up front
    factors = _fixture_factors()
    for budget in (0, 12):
        eager = [oracles.eager_factor_stats(g, budget) for g in factors]
        for (g, stats_g), (h, stats_h) in itertools.product(zip(factors, eager), repeat=2):
            assert ct.certify_product(g, h, budget=budget) == ct._certify(stats_g, stats_h)


def test_the_hundred_certify_pairs_run_the_pinned_searches(monkeypatch):
    # the benchmark's ten certify factors: tight-factor tests its size
    # condition before gon(H), and uniform-connectivity its size conditions
    # at k = lam(G) before gon(G) and gon(G) = lam(G) before kappa(G)
    factors = [mg.path(3), mg.cycle(2), mg.complete(3), mg.cycle(4), mg.cycle(5), mg.complete(4),
               mg.complete_bipartite(2, 3), mg.star(4), mg.hypercube(3), mg.complete(5)]
    calls = collections.Counter()

    def count(module, name):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or f(*a))

    count(dv, "_sandwich")
    count(inv, "vertex_connectivity")
    count(inv, "max_independent_set")
    for g, h in itertools.product(factors, repeat=2):
        ct.certify_product(g, h)
    assert calls == {"_sandwich": 67, "vertex_connectivity": 61, "max_independent_set": 35}


def test_tree_factor_pairs_read_neither_kappa_nor_a_gonality_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kappa or a gonality search was computed")

    monkeypatch.setattr(inv, "vertex_connectivity", refuse)
    monkeypatch.setattr(dv, "_first_positive_rank_row", refuse)
    q3 = mg.hypercube(3)
    for g, h in ((mg.path(3), q3), (q3, mg.path(3)), (mg.star(4), q3)):
        cert = ct.certify_product(g, h)
        assert (cert.statement, cert.value) == ("tree-factor", 8)


def test_an_over_budget_factor_fails_only_the_pairs_that_read_its_gonality(monkeypatch):
    # with no candidate box admitted the Petersen graph's sandwich, which
    # scans degree 4 (its edge scramble's order, below n - alpha = 6),
    # raises; the eager stats raised on every pair with it in it
    monkeypatch.setattr(dv, "CANDIDATE_BOX_BUDGET", 0)
    petersen = oracles.petersen()
    with pytest.raises(dv.CandidateBudgetError):
        oracles.eager_factor_stats(petersen, 12)
    cert = ct.certify_product(mg.path(4), petersen)
    assert (cert.statement, cert.value) == ("tree-factor", 10)
    with pytest.raises(dv.CandidateBudgetError):
        ct.certify_product(mg.cycle(4), petersen)  # the factor-gonality bound reads it


def test_every_kept_statement_certifies_a_pair_the_table_leaves_open(monkeypatch):
    # without the named statement each pair stays open, so no statement
    # the certifier keeps is a second path to met-bounds
    paw = mg.from_edge_list(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    cases = [
        ("tree-factor", mg.path(3), mg.complete(4), 0, 4, (4, 12)),
        ("complete-bipartite-factor", mg.path(2), mg.complete_bipartite(2, 3), 0, 4, (4, 10)),
        ("rook", mg.complete(4), mg.complete(4), 12, 12, (8, 12)),
        ("uniform-connectivity", mg.path(2), paw, 12, 4, (2, 4)),
        ("doubled-edge-times-complete", mg.cycle(2), mg.complete(5), 12, 8, (6, 8)),
    ]
    statements = list(ct._STATEMENTS)
    for statement, g, h, budget, value, bounds in cases:
        cert = ct.certify_product(g, h, budget=budget)
        assert (cert.statement, cert.value) == (statement, value)
        monkeypatch.setattr(ct, "_STATEMENTS", [s for s in statements if s[0] != statement])
        cert = ct.certify_product(g, h, budget=budget)
        assert cert.statement == "open"
        assert (cert.bounds.lower, cert.bounds.upper) == bounds
        monkeypatch.setattr(ct, "_STATEMENTS", statements)
    # tight-factor reads gon(H) and lam(H) only, where met-bounds would read
    # gon(Petersen), which no candidate box is admitted to search
    monkeypatch.setattr(dv, "CANDIDATE_BOX_BUDGET", 0)
    cert = ct.certify_product(oracles.petersen(), mg.cycle(20), budget=20)
    assert (cert.statement, cert.value) == ("tight-factor", 20)


def test_every_sn_claiming_certificate_is_the_exact_scramble_number():
    # the products of at most 12 vertices of small paths, cycles, cliques,
    # K1,3 and K2,3: every certificate that claims sn equals brute_force_sn
    factors = [f(m) for f in (mg.path, mg.cycle, mg.complete) for m in range(2, 7)]
    factors += [mg.star(4), mg.complete_bipartite(2, 3)]
    claimed = collections.Counter()
    for g, h in itertools.combinations_with_replacement(factors, 2):
        if g.n * h.n > 12:
            continue
        cert = ct.certify_product(g, h)
        assert cert.proves == (("sn", "gon") if cert.statement not in ("rook", "open")
                               else ("gon",) if cert.statement == "rook" else ())
        if "sn" in cert.proves:
            result = sc.brute_force_sn(mg.cartesian_product(g, h))
            assert result.exact and result.value == cert.value, (g, h, cert)
            claimed[cert.statement] += 1
    assert claimed == {"tree-factor": 43, "tight-factor": 10, "uniform-connectivity": 4,
                       "doubled-edge-times-complete": 3}


def test_rook_proves_gon_but_not_sn():
    # gon(K4 [] K4) = 12, but brute_force_sn finds sn = 11, exact, with a
    # witness whose order an enumeration confirms
    k4 = mg.complete(4)
    cert = ct.certify_product(k4, k4)
    assert (cert.statement, cert.value, cert.proves) == ("rook", 12, ("gon",))
    product = mg.cartesian_product(k4, k4)
    result = sc.brute_force_sn(product)
    assert (result.value, result.exact) == (11, True)
    eggs = [set(e) for e in result.witness.eggs]
    assert oracles.brute_hitting_number(product.n, eggs) >= 11
    assert oracles.brute_egg_cut(product, eggs) >= 11
    assert ct.certify_product(mg.cycle(4), mg.cycle(5)).proves == ("sn", "gon")
    assert ct.certify_product(mg.cycle(2), mg.cycle(2)).proves == ()


def test_one_vertex_factors_bound_the_product_by_the_other_factor():
    # K1 [] H = H, so H's vertex scramble bounds the product from below
    k1, q3 = mg.path(1), mg.hypercube(3)
    cert = ct.certify_product(k1, k1)
    assert (cert.statement, cert.value) == ("met-bounds", 1)
    assert all(check.passed for check in cert.hypotheses)
    assert [check.value for check in cert.hypotheses] == [
        "1 by vertex scramble of H (G,H)", "1 by factor gonality"]
    for g, h, tag in ((k1, q3, "G,H"), (q3, k1, "H,G")):
        bounds = ct.certify_product(g, h).bounds
        assert (bounds.lower, bounds.upper) == (3, 4)
        assert bounds.lower_source == "vertex scramble of H (%s)" % tag
    for h in (mg.path(4), mg.cycle(5), mg.complete(4), q3):
        cert = ct.certify_product(k1, h, budget=0)
        assert not cert.certified
        assert cert.bounds.lower == max(1, min(inv.edge_connectivity(h), h.n))
        assert cert.bounds.lower <= dv.gonality(h)[0] <= cert.bounds.upper
    # at budget 0 K1 x K1's bounds meet at 1: H's vertex scramble and the
    # vertex count
    cert = ct.certify_product(k1, k1, budget=0)
    assert (cert.statement, cert.value) == ("met-bounds", 1)
    assert [check.value for check in cert.hypotheses] == [
        "1 by vertex scramble of H (G,H)", "1 by vertex count"]


def test_met_bounds_certify_the_product():
    # C3 x K3,3 either way and the prism x C3: the k = 3 product scramble's
    # order 9 meets the factor-gonality divisor's degree 9
    c3, k33 = mg.cycle(3), mg.complete_bipartite(3, 3)
    prism = mg.cartesian_product(c3, mg.path(2))
    for g, h, tag in ((c3, k33, "H,G"), (k33, c3, "G,H"), (prism, c3, "G,H")):
        cert = ct.certify_product(g, h)
        assert (cert.statement, cert.value) == ("met-bounds", 9)
        assert [check.value for check in cert.hypotheses] == [
            "9 by k=3 product scramble (%s)" % tag, "9 by factor gonality"]
        assert all(check.passed for check in cert.hypotheses)


def test_no_certificate_stays_open_at_met_bounds():
    rng = random.Random(71)
    factors = [mg.path(1), mg.path(3), mg.cycle(2), mg.cycle(3), mg.cycle(5), mg.complete(4),
               mg.complete_bipartite(2, 3), mg.complete_bipartite(3, 3), mg.star(4),
               mg.hypercube(3), mg.cartesian_product(mg.cycle(3), mg.path(2))]
    factors += [oracles.random_connected_graph(rng, rng.randrange(2, 7), 0.6) for _ in range(6)]
    factors += [oracles.random_connected_multigraph(rng, rng.randrange(2, 5), 0.6)
                for _ in range(4)]
    met = 0
    for g, h in itertools.product(factors, repeat=2):
        for budget in (0, 12):
            cert = ct.certify_product(g, h, budget=budget)
            assert cert.certified or cert.bounds.lower < cert.bounds.upper
            met += cert.statement == "met-bounds"
    assert met >= 4


def test_certify_rejects_disconnected_input():
    with pytest.raises(ct.HypothesisError):
        ct.certify_product(mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)]), mg.cycle(3))


def test_check_all_equal_dense_graphs():
    cert = ct.check_all_equal(mg.complete(5))
    assert cert.certified and cert.value == 4
    cert = ct.check_all_equal(mg.complete_multipartite([2, 2, 2]))
    assert cert.certified and cert.value == 6 - 2
    assert ct.check_all_equal(mg.cycle(5)) is None  # too sparse
    with pytest.raises(ct.HypothesisError):
        ct.check_all_equal(mg.cycle(2))  # not simple
    with pytest.raises(ct.HypothesisError):
        ct.check_all_equal(mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)]))


def test_dense_graphs_have_n_minus_alpha_as_their_edge_scramble_order():
    # delta >= floor(n/2) + 1: n - alpha is the edge scramble's order, by
    # exhausting hitting sets and bipartitions, and check_all_equal's value
    rng = random.Random(12)
    checked = 0
    while checked < 25:
        n = rng.randrange(3, 10)
        g = mg.random_graph(n, 0.8, rng.randrange(1 << 30))
        if not inv.is_connected(g) or inv.min_degree(g) < n // 2 + 1:
            continue
        eggs = [{u, v} for u, v, _ in g.edges()]
        order = min(oracles.brute_hitting_number(n, eggs), oracles.brute_egg_cut(g, eggs))
        assert n - oracles.brute_alpha(g) == order == ct.check_all_equal(g).value
        checked += 1


def test_reduce_alpha_both_solvers():
    for g, alpha in [(mg.cycle(4), 2), (mg.path(3), 2), (mg.complete(4), 1),
                     (mg.complete_bipartite(2, 3), 3)]:
        for solver in ("gonality", "scramble-sandwich"):
            value, m, cone_graph = ct.reduce_alpha(g, solver=solver)
            assert value == alpha == oracles.brute_alpha(g)
            assert m == g.n
            assert cone_graph.n == 2 * g.n


def test_reduce_alpha_validation():
    with pytest.raises(ct.HypothesisError):
        ct.reduce_alpha(mg.cycle(2))
    with pytest.raises(ct.HypothesisError):
        ct.reduce_alpha(mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)]))
    with pytest.raises(ct.HypothesisError):
        ct.reduce_alpha(mg.from_edge_list(1, []))
    with pytest.raises(ValueError):
        ct.reduce_alpha(mg.cycle(4), solver="astrology")
