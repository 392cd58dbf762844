"""Homological product CSS codes for qudits of odd prime dimension.

The pipeline: two-sector chain complexes with involution over GF(D)
(complexes), their tensor products (product), the CSS codes they induce
and exact distance search (css), leading-coordinate quotients
(reduction), exact rank-enumeration counts with brute-force oracles
(counting), and seeded Monte Carlo harnesses with the uniform low
weight condition (experiments).  All linear algebra is exact (gf).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .gf import (
    FieldSpec,
    MatGF,
    rank,
    kernel_basis,
    solve,
    inverse,
    random_invertible,
    row_weights,
    col_weights,
    matrix_to_text,
    matrix_from_text,
)
from .complexes import (
    ComplexShape,
    InvolutiveComplex,
    standard_boundary,
    random_boundary,
    validate,
    homology_dimensions,
    is_good,
    flip_sectors,
    complex_to_text,
    complex_from_text,
)
from .product import (
    ProductComplex,
    product,
    KunnethReport,
    kunneth_check,
    product_chain_map,
)
from .css import (
    CssCode,
    DistanceReport,
    extract_css,
    min_distance,
    vanishing_reduced_implies_boundary,
)
from .reduction import (
    ReductionParams,
    ReducedComplex,
    reduce,
    reduced_kerim_check,
)
from .counting import (
    gaussian_binomial,
    count_rank_matrices,
    count_rank_extensions,
    count_cycles_by_rank,
    count_reduced_cycles,
    enumerate_reduced_cycles,
    enumerate_plus_cycle_ranks,
    brute_count_rank_matrices,
    brute_count_rank_extensions,
)
from .experiments import (
    TrialConfig,
    EstimateReport,
    wilson_interval,
    trial_rng,
    mc_low_weight_kernel,
    mc_goodness,
    sample_uniform_rank,
    mc_uniform_low_weight,
    exhaustive_ulw_probability,
    csv_text,
)
