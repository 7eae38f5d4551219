"""Exact-arithmetic toolkit for Plucker-coordinate loci in the Grassmannian.

Subset posets and their distinguished families, Bruhat order and
positroids, banded matrix parameterizations with exact inverse maps,
ideal-membership certificates built from signed exchange relations, and
finite-field point enumeration for set-level identity checks.

The public names below are loaded on first use (PEP 562): reading one
imports only the module that defines it, so a process pays for the
modules it reads and no others.
"""

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in (
        ("errors", "BudgetError ConfigError DecompositionError EmptyIntervalError EvaluationError"
         " ParameterError ParseError ShapeError"),
        ("subsets", "KSubset SubsetFamily SubsetInterval avoids_window covers cyclic_shift delta"
         " enumerate_subsets epsilon i_set interval iter_comparable_pairs lower_covers p_set"
         " p_set_complement parse_subset sigma_sets subset_leq subset_rank upper_covers"),
        ("permutations", "Permutation bruhat_interval bruhat_leq compose grassmannian_perm identity"
         " is_positroid_bruteforce long_cycle long_element pi_k positroid_from_interval"
         " simple_transposition verify_positroidset"),
        ("fields", "QQ Fp PrimeField Rationals is_prime"),
        ("matrices", "ExactMatrix PluckerVector YShape enumerate_y format_matrix ldu maximal_minors"
         " parse_matrix phi psi sample_y w_membership y_shape_check"),
        ("certificates", "Certificate LaurentExpression PluckerSymbol PrecedesT evaluate"
         " format_certificate parse_certificate plucker_relation precedes_t principal_certificate"
         " relation_table unit_certificate verify_certificate verify_pivot_inverse"
         " verify_plucker_relations"),
        ("varieties", "GrPoint VarietySpec closed_richardson_points count_points divisor_spec"
         " enumerate_grassmannian gaussian_binomial interpolate_count_polynomial membership"
         " open_richardson_points positroid_spec richardson_buckets richardson_spec"
         " verify_complement verify_positroid_divisor verify_shifted_schubert verify_w_count w_spec"),
        ("config", "SweepConfig load_config"),
        ("reports", "ClaimReport RunReport"),
        ("claims", "CLAIM_IDS run_all run_claim"),
    )
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
