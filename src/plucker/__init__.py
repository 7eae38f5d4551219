"""Exact-arithmetic toolkit for Plucker-coordinate loci in the Grassmannian.

Subset posets and their distinguished families, Bruhat order and
positroids, banded matrix parameterizations with exact inverse maps,
ideal-membership certificates built from signed exchange relations, and
finite-field point enumeration for set-level identity checks.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigError,
    DecompositionError,
    EmptyIntervalError,
    EvaluationError,
    ParameterError,
    ParseError,
    ShapeError,
)
from .subsets import (
    KSubset,
    SubsetFamily,
    SubsetInterval,
    covers,
    cyclic_shift,
    delta,
    enumerate_subsets,
    epsilon,
    i_set,
    interval,
    iter_comparable_pairs,
    lower_covers,
    p_set,
    p_set_complement,
    parse_subset,
    sigma_sets,
    subset_leq,
    subset_rank,
    upper_covers,
)
from .permutations import (
    Permutation,
    bruhat_interval,
    bruhat_leq,
    compose,
    grassmannian_perm,
    identity,
    is_positroid_bruteforce,
    long_cycle,
    long_element,
    pi_k,
    positroid_from_interval,
    simple_transposition,
    verify_positroidset,
)
from .fields import QQ, Fp, PrimeField, Rationals, is_prime
from .matrices import (
    ExactMatrix,
    PluckerVector,
    YShape,
    enumerate_y,
    format_matrix,
    ldu,
    maximal_minors,
    parse_matrix,
    phi,
    psi,
    sample_y,
    verify_plucker_relations,
    w_membership,
    y_shape_check,
)
from .certificates import (
    Certificate,
    LaurentExpression,
    PluckerSymbol,
    PrecedesT,
    evaluate,
    format_certificate,
    parse_certificate,
    plucker_relation,
    precedes_t,
    principal_certificate,
    relation_table,
    unit_certificate,
    verify_certificate,
)
from .varieties import (
    GrPoint,
    VarietySpec,
    closed_richardson_points,
    count_points,
    divisor_spec,
    enumerate_grassmannian,
    gaussian_binomial,
    interpolate_count_polynomial,
    membership,
    open_richardson_points,
    positroid_spec,
    richardson_buckets,
    richardson_spec,
    verify_complement,
    verify_positroid_divisor,
    verify_shifted_schubert,
    verify_w_count,
    w_spec,
)
from .config import SweepConfig, load_config
from .reports import ClaimReport, RunReport
from .claims import CLAIM_IDS, run_all, run_claim
