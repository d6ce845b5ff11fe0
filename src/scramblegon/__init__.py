"""Chip-firing divisor theory and scramble theory on finite multigraphs.

Provides exact gonality, scramble orders, closed-form Cartesian-product
bounds, a product-gonality certifier, and the cone reduction recovering the
independence number from gonality.
"""

from .multigraph import (
    Multigraph, from_edge_list, cartesian_product, canonical_copy, cone,
    smooth_two_valent, subdivide, induced_subgraph, relabel,
    path, cycle, complete, complete_bipartite, complete_multipartite,
    star, hypercube, grid, random_tree, random_graph,
)
from .invariants import (
    min_degree, components, is_connected, is_connected_subset,
    edge_boundary, edge_connectivity, vertex_connectivity, bridges,
    min_cut_between, independence_number, max_independent_set,
)
from .divisors import (
    Divisor, BurnResult, zero_divisor, fire, fire_set, dhar_burn,
    q_reduce, is_q_reduced, has_positive_rank, rank, gonality,
    CandidateBudgetError,
)
from .scrambles import (
    Scramble, ScrambleOrder, BoundReport, BruteForceResult,
    hitting_number, egg_cut_number, scramble_order,
    vertex_scramble, edge_scramble, product_scramble,
    sn_bounds, brute_force_sn,
)
from .certify import (
    Certificate, HypothesisCheck, HypothesisError,
    thm41_lower, cor42_lower, prop43_lower,
    certify_product, check_all_equal, reduce_alpha,
)
from .mel import (
    MelError, parse_mel, write_mel, parse_divisor, write_divisor,
    parse_scramble, write_scramble,
)

__version__ = "1.0.0"
