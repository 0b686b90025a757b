"""Exact cohomology of tautological bundles on Quot schemes of the line.

The package computes, in exact integer arithmetic, cohomology and Euler
characteristics of exterior, symmetric and dualized exterior powers of
tautological bundles on Quot schemes over the projective line, by resolving
them on a product of two Grassmannians and running Borel-Weil-Bott on every
Koszul term.  It also certifies the supporting combinatorial vanishing
statements on finite grids.
"""

from .partitions import (
    as_partition,
    as_weight,
    dominates,
    enumerate_in_box,
    negate_reverse,
    size,
    transpose,
    union,
    weyl_dim,
)
from .schur import (
    cauchy_wedge,
    direct_sum_expand,
    double_bundle_expand,
    lr_coefficient,
    lr_expand_tensor,
    pieri_sym,
    pieri_wedge,
)
from .bott import (
    BWBResult,
    GrassmannianContext,
    HomogeneousBundle,
    bwb,
    cohomology_dims,
    euler_char,
    vanishes_plus_condition,
    vanishes_quot_dual_condition,
    vanishes_sub_condition,
)
from .indices import (
    IndexReport,
    kn_index,
    lemma_triples,
    n_index,
    verify_dual_vanishing,
    verify_sym_vanishing,
    verify_wedge_vanishing,
)
from .quot import (
    EmbeddingData,
    TautologicalSheaf,
    check_conjecture,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    resolution_terms,
    sym_power,
    term_cohomology,
    term_profiles,
    verify_resolution_propositions,
    verify_theorem,
    wedge_power,
)
from .series import BivariateSeries, closed_form, compare, resolution_series

__version__ = "0.1.0"
