import itertools
import random
from fractions import Fraction

import pytest

from plucker import (
    BudgetError,
    KSubset,
    ParameterError,
    VarietySpec,
    closed_richardson_points,
    count_points,
    divisor_spec,
    enumerate_grassmannian,
    enumerate_subsets,
    gaussian_binomial,
    interpolate_count_polynomial,
    interval,
    iter_comparable_pairs,
    membership,
    p_set,
    positroid_spec,
    richardson_buckets,
    richardson_spec,
    sigma_sets,
    subset_leq,
    subset_rank,
    verify_complement,
    verify_plucker_relations,
    verify_positroid_divisor,
    verify_shifted_schubert,
    verify_w_count,
    w_membership,
    w_spec,
)
from plucker.matrices import YShape


def ks(elems, n):
    return KSubset(elems, n)


def brute_gaussian(n, k, q):
    # subspace count as a product of (q^n - q^i) / (q^k - q^i)
    num = den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return num // den


class TestGaussianBinomial:
    def test_against_product_oracle(self):
        for n in range(1, 7):
            for k in range(0, n + 1):
                for q in (2, 3, 5):
                    assert gaussian_binomial(n, k, q) == brute_gaussian(n, k, q)

    def test_frozen_values(self):
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(6, 3, 2) == 1395


class TestEnumeration:
    def test_projective_line(self):
        assert len(enumerate_grassmannian(1, 2, 2)) == 3

    @pytest.mark.parametrize("k,n,q", [(2, 4, 2), (2, 4, 3), (2, 5, 2), (3, 5, 2), (3, 6, 2)])
    def test_counts(self, k, n, q):
        assert len(enumerate_grassmannian(k, n, q)) == gaussian_binomial(n, k, q)

    def test_budget_guard_on_large_case(self):
        with pytest.raises(BudgetError):
            enumerate_grassmannian(4, 14, 2)

    def test_non_prime_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_grassmannian(2, 4, 4)

    def test_points_satisfy_relations(self):
        for q in (2, 3):
            for point in enumerate_grassmannian(2, 4, q):
                assert verify_plucker_relations(point.plucker)
                assert not point.plucker.is_zero()
        rng = random.Random(3)
        pts = enumerate_grassmannian(3, 6, 2)
        for point in rng.sample(pts, 25):
            assert verify_plucker_relations(point.plucker)

    def test_points_unique(self):
        pts = enumerate_grassmannian(2, 4, 3)
        assert len(set(pts)) == len(pts)


class TestBuckets:
    @pytest.mark.parametrize("q", (2, 3))
    def test_partition_of_24(self, q):
        buckets = richardson_buckets(2, 4, q)
        total = sum(len(v) for v in buckets.values())
        assert total == gaussian_binomial(4, 2, q)
        for (beta, gamma), pts in buckets.items():
            assert subset_leq(beta, gamma)
            spec = richardson_spec(beta, gamma, open_=True)
            for p in pts:
                assert membership(p, spec)
        # each point satisfies exactly one open interval spec
        for point in enumerate_grassmannian(2, 4, q):
            homes = [
                (b, g)
                for b, g in iter_comparable_pairs(2, 4)
                if membership(point, richardson_spec(b, g, open_=True))
            ]
            assert len(homes) == 1

    def test_point_schubert_cell_is_pivot_set(self):
        for point in enumerate_grassmannian(2, 4, 2):
            pivots = []
            for i in range(2):
                row = point.matrix.rows[i]
                pivots.append(next(j + 1 for j in range(4) if row[j]))
            buckets = richardson_buckets(2, 4, 2)
            home = next(key for key, pts in buckets.items() if point in pts)
            assert home[0] == ks(sorted(pivots), 4)

    def test_closed_points_union(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        assert len(closed_richardson_points(b, g, 2)) == gaussian_binomial(4, 2, 2)
        spec = richardson_spec(ks((1, 3), 4), ks((2, 4), 4))
        via_spec = {p for p in enumerate_grassmannian(2, 4, 2) if membership(p, spec)}
        assert set(closed_richardson_points(ks((1, 3), 4), ks((2, 4), 4), 2)) == via_spec


class TestSpecs:
    def test_disjointness_enforced(self):
        a = ks((1, 2), 4)
        with pytest.raises(ParameterError):
            VarietySpec(2, 4, frozenset({a}), frozenset({a}))

    def test_empty_spec_accepts_everything(self):
        spec = VarietySpec(2, 4, frozenset(), frozenset())
        pts = enumerate_grassmannian(2, 4, 2)
        assert all(membership(p, spec) for p in pts)

    def test_point_stratum_is_single_point(self):
        for q in (2, 3, 5):
            for b in enumerate_subsets(2, 4):
                spec = richardson_spec(b, b, open_=True)
                assert count_points(spec, q) == 1

    def test_interval_positroid_spec_equals_closed_richardson(self):
        for b, g in iter_comparable_pairs(2, 4):
            assert positroid_spec(interval(b, g)) == richardson_spec(b, g, open_=False)

    def test_w_spec_matches_matrix_membership(self):
        # on open-stratum points the reverse echelon form exists; the spec
        # filter and the matrix-side predicate must agree there
        for q in (2, 3):
            for (b, g), pts in richardson_buckets(2, 4, q).items():
                for p in pts:
                    m = p.matrix
                    n_mat = m.submatrix_columns(g).inverse() * m
                    assert membership(p, w_spec(b, g)) == w_membership(n_mat, b, g)


def frozenset_membership(point, spec):
    # the definition by coordinate lookups that the support bitmask replaces
    pv = point.plucker
    return all(not pv[s] for s in spec.must_vanish) and all(pv[s] for s in spec.must_not_vanish)


class TestSupportBitmask:
    @pytest.mark.parametrize("k,n,q", [(2, 4, 3), (3, 5, 2)])
    def test_admits_matches_frozenset_oracle(self, k, n, q):
        points = enumerate_grassmannian(k, n, q)
        for p in points:
            assert p.support == sum(1 << i for i, v in enumerate(p.plucker.values) if v)
        specs = [VarietySpec(k, n, frozenset(), frozenset())]
        for b, g in iter_comparable_pairs(k, n):
            specs += [richardson_spec(b, g), richardson_spec(b, g, open_=True), w_spec(b, g)]
            specs += [divisor_spec(b, g, t) for t in range(1, k) if len(p_set(b, g, t))]
            specs += [positroid_spec(f) for f in itertools.chain(*sigma_sets(b, g))]
        for spec in specs:
            for p in points:
                assert spec.admits(p.support) == frozenset_membership(p, spec), (spec, p)


class TestSetCheckFailures:
    def test_wrong_family_is_reported_with_a_point(self, monkeypatch):
        # every positroid spec becomes the closed interval variety: the window
        # locus grows to the whole open stratum and the removed loci cover
        # the inverted stratum, so both identities break
        import plucker.varieties as varieties

        b, g = ks((1, 2), 4), ks((3, 4), 4)
        monkeypatch.setattr(varieties, "positroid_spec", lambda family: richardson_spec(b, g))
        for rep in (verify_positroid_divisor(b, g, 1, 3), verify_complement(b, g, 3)):
            assert rep.verdict == "fail"
            assert rep.witness.startswith("set mismatch at GrPoint(")


class TestDivisorIdentity:
    def test_big_cell_example(self):
        rep = verify_positroid_divisor(ks((1, 2), 4), ks((3, 4), 4), 1, 3)
        assert rep.verdict == "pass"

    def test_empty_window_rejected(self):
        with pytest.raises(ParameterError):
            verify_positroid_divisor(ks((1, 2), 4), ks((1, 4), 4), 1, 3)

    def test_sweep_24(self):
        for q in (2, 3, 5):
            for b, g in iter_comparable_pairs(2, 4):
                if len(p_set(b, g, 1)):
                    rep = verify_positroid_divisor(b, g, 1, q)
                    assert rep.verdict in ("pass", "flag"), rep

    def test_mutated_pivot_detected(self):
        # replacing the pivot with a wrong subset must break set equality
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        wrong_pivot = ks((2, 3), 4)
        open_spec = richardson_spec(b, g, open_=True)
        ambient = [p for p in enumerate_grassmannian(2, 4, 3) if membership(p, open_spec)]
        lhs = {p for p in ambient if not p.plucker[wrong_pivot]}
        rhs = {p for p in ambient if membership(p, positroid_spec(p_set(b, g, 1)))}
        assert lhs != rhs


class TestComplement:
    def test_equal_endpoints(self):
        b = ks((1, 3), 4)
        rep = verify_complement(b, b, 3)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("q", (2, 3))
    def test_big_cell(self, q):
        rep = verify_complement(ks((1, 2), 4), ks((3, 4), 4), q)
        assert rep.verdict == "pass"

    def test_adjacent_pair(self):
        rep = verify_complement(ks((1, 2), 4), ks((1, 3), 4), 2)
        assert rep.verdict == "pass"


class TestShiftedSchubert:
    def test_big_cell_fixes_direction(self):
        rep = verify_shifted_schubert(ks((1, 2), 4), ks((3, 4), 4), 1)
        assert rep.verdict == "pass"

    def test_sweep_25(self):
        for b, g in iter_comparable_pairs(2, 5):
            if len(p_set(b, g, 1)):
                assert verify_shifted_schubert(b, g, 1).verdict == "pass"

    def test_wrong_shift_direction_would_fail(self):
        # shifting the other way must not reproduce the window family
        from plucker import SubsetFamily, cyclic_shift, epsilon, i_set

        b, g = ks((1, 3), 4), ks((3, 4), 4)
        t = 1
        eps = epsilon(b, g, t)
        upset = [a for a in enumerate_subsets(2, 4) if subset_leq(eps, a)]
        wrong = SubsetFamily((cyclic_shift(a, -g(t)) for a in upset), 2, 4)
        assert wrong != i_set(b, g, t)


class TestCounts:
    def test_w_count_frozen(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        assert count_points(w_spec(b, g), 2) == 4
        assert count_points(w_spec(b, g), 3) == 36

    def test_w_count_reports(self):
        for q in (2, 3, 5):
            for b, g in iter_comparable_pairs(2, 4):
                assert verify_w_count(b, g, q).verdict == "pass"

    def test_rank_difference_equals_shape_dimension(self):
        for k, n in ((2, 4), (2, 5), (3, 6)):
            for b, g in iter_comparable_pairs(k, n):
                shape = YShape(b, g)
                assert subset_rank(g) - subset_rank(b) == shape.star_count + shape.unit_count

    def test_banded_example_is_beyond_budget(self):
        with pytest.raises(BudgetError):
            verify_w_count(ks((2, 5, 6, 10), 14), ks((6, 8, 11, 12), 14), 2)


class TestInterpolation:
    def test_w_polynomial_recovered(self):
        # degree 4 needs six primes before the held-out check can confirm it
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        result = interpolate_count_polynomial(w_spec(b, g), (2, 3, 5, 7, 11, 13))
        # q^2 (q-1)^2 = q^4 - 2 q^3 + q^2
        assert result["coefficients"][:5] == [
            Fraction(0),
            Fraction(0),
            Fraction(1),
            Fraction(-2),
            Fraction(1),
        ]
        assert result["degree"] == 4 and result["stable"]

    def test_saturated_sample_reads_unstable(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        result = interpolate_count_polynomial(w_spec(b, g), (2, 3, 5, 7, 11))
        assert result["degree"] == 4 and not result["stable"]

    def test_open_cell_degree_is_dimension(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        result = interpolate_count_polynomial(
            richardson_spec(b, g, open_=True), (2, 3, 5, 7, 11, 13)
        )
        assert result["degree"] == subset_rank(g) - subset_rank(b) == 4
        assert result["stable"]

    def test_divisor_degree_one_less(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        result = interpolate_count_polynomial(divisor_spec(b, g, 1), (2, 3, 5, 7, 11))
        assert result["degree"] == 3 and result["stable"]

    def test_insufficient_primes(self):
        with pytest.raises(ParameterError):
            interpolate_count_polynomial(w_spec(ks((1, 2), 4), ks((3, 4), 4)), (2,))
