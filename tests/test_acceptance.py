"""Acceptance suite: one test per criterion, each printing a verdict line.

All checks are exact (integer/rational arithmetic or prime-field
equality); the sweep ranges and sample counts below are the acceptance
contract and are pinned here, not configurable.
"""

from dataclasses import replace

from plucker import (
    Certificate,
    KSubset,
    SweepConfig,
    covers,
    enumerate_grassmannian,
    enumerate_subsets,
    interval,
    is_positroid_bruteforce,
    iter_comparable_pairs,
    membership,
    open_richardson_points,
    p_set,
    positroid_spec,
    principal_certificate,
    richardson_spec,
    subset_leq,
    verify_certificate,
)
from plucker.claims import (
    claim_cor5_unit,
    claim_lem4_certificates,
    claim_relations,
    claim_s7_complement,
    claim_s7_shifted_schubert,
    claim_thm3_roundtrip,
    claim_thm6_positroidset,
    claim_thm7_divisor,
    claim_w_count,
)

# k <= 3, n <= 6, q in {2, 3}, 100 rational samples, 50 Eq1 matrices
BASE = SweepConfig().validate()
assert BASE.rational_samples >= 100 and BASE.matrix_samples >= 50


def _verdict(num: int, name: str, report) -> None:
    print(f"ACCEPTANCE {num} {name}: {report.verdict.upper()}"
          f" ({report.params.get('checks', 0)} checks, {report.seconds:.1f}s)")
    assert report.verdict == "pass", report.witness


def test_criterion_01_parameterization_round_trip():
    report = claim_thm3_roundtrip(BASE)
    _verdict(1, "Thm3-roundtrip", report)
    assert report.params["checks"] >= 200  # at least the rational samples


def test_criterion_02_plucker_relation_validation():
    report = claim_relations(BASE)
    _verdict(2, "Eq1-relations", report)
    assert "three-term relation present in S(2,4)" in report.params.get("notes", [])


def test_criterion_03_window_family_is_bruhat_projection():
    report = claim_thm6_positroidset(BASE)
    _verdict(3, "Thm6-positroidset", report)
    assert "notes" not in report.params  # nothing skipped in the sweep range


def test_criterion_04_membership_certificates():
    report = claim_lem4_certificates(BASE)
    _verdict(4, "Lem4-certificates", report)


def test_criterion_05_unit_pivots():
    report = claim_cor5_unit(BASE)
    _verdict(5, "Cor5-unit", report)
    # the named small Grassmannians additionally sweep q = 5
    wide = replace(BASE, k_range=(2, 2), n_range=(2, 5), primes=(2, 3, 5)).validate()
    report5 = claim_cor5_unit(wide)
    print(f"ACCEPTANCE 5b Cor5-unit q=5: {report5.verdict.upper()}"
          f" ({report5.params.get('checks', 0)} checks)")
    assert report5.verdict == "pass", report5.witness


def test_criterion_06_divisor_set_equality():
    report = claim_thm7_divisor(BASE)
    _verdict(6, "Thm7-divisor", report)


def test_criterion_07_complement_description():
    report = claim_s7_complement(BASE)
    _verdict(7, "S7-complement", report)


def test_criterion_08_shifted_one_row_description():
    report = claim_s7_shifted_schubert(BASE)
    _verdict(8, "S7-shifted-schubert", report)


def test_criterion_09_point_count_formula():
    report = claim_w_count(replace(BASE, primes=(2, 3, 5)).validate())
    _verdict(9, "W-count", report)


def _brute_covers(a, b):
    if a == b or not subset_leq(a, b):
        return False
    return not any(
        c not in (a, b) and subset_leq(a, c) and subset_leq(c, b)
        for c in enumerate_subsets(a.k, a.n)
    )


def test_criterion_10_oracle_agreements():
    # covering relation vs the order-theoretic oracle, all k, n <= 6
    for n in range(1, 7):
        for k in range(1, n + 1):
            subs = enumerate_subsets(k, n)
            for a in subs:
                for b in subs:
                    assert covers(a, b) == _brute_covers(a, b)

    # every interval and every nonempty window family is found by the
    # exhaustive Bruhat-interval search, n <= 5
    for n in range(2, 6):
        for k in range(1, n + 1):
            for beta, gamma in iter_comparable_pairs(k, n):
                assert is_positroid_bruteforce(interval(beta, gamma), k, n)
                for t in range(1, k):
                    fam = p_set(beta, gamma, t)
                    if len(fam):
                        assert is_positroid_bruteforce(fam, k, n)

    # a corrupted cofactor must be caught by point verification
    b, g = KSubset((1, 2), 4), KSubset((2, 4), 4)
    cert = principal_certificate(b, g, 1, KSubset((1, 3), 4))
    corrupted = Certificate(
        target=cert.target, pivot=cert.pivot, cofactor=-cert.cofactor,
        beta=b, gamma=g, t=1,
    )
    points = [p.plucker for p in open_richardson_points(b, g, 3)]
    assert verify_certificate(cert, points)
    assert not verify_certificate(corrupted, points)

    # a mutated divisor spec (wrong pivot subset) must break set equality
    b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
    wrong_pivot = KSubset((2, 3), 4)
    open_spec = richardson_spec(b, g, open_=True)
    ambient = [p for p in enumerate_grassmannian(2, 4, 3) if membership(p, open_spec)]
    lhs = {p for p in ambient if not p.plucker[wrong_pivot]}
    rhs = {p for p in ambient if membership(p, positroid_spec(p_set(b, g, 1)))}
    assert lhs != rhs

    print("ACCEPTANCE 10 oracle-agreements: PASS")
