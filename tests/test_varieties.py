import itertools
import random
import re
import struct
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from plucker import (
    BudgetError,
    ExactMatrix,
    KSubset,
    ParameterError,
    VarietySpec,
    closed_richardson_points,
    count_points,
    delta,
    divisor_spec,
    enumerate_grassmannian,
    enumerate_subsets,
    gaussian_binomial,
    interpolate_count_polynomial,
    interval,
    iter_comparable_pairs,
    membership,
    open_richardson_points,
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

    @pytest.mark.parametrize("q", [1, 0, -2])
    def test_q_below_two_rejected(self, q):
        # q = 1 used to divide by zero and q = 0 to count one subspace
        with pytest.raises(ParameterError, match=rf"q >= 2, got k=2, n=4, q={q}$"):
            gaussian_binomial(4, 2, q)


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
        # a budget that admits them must not let bad moduli through (a huge
        # prime is tested from the CLI, in a subprocess with a timeout)
        for q in (4, 1):
            with pytest.raises(ParameterError):
                enumerate_grassmannian(2, 4, q, budget=10**100)

    # 4099 is above the interning limit of PrimeField, so its residues are made per use;
    # q = 2, 3, 5 pack a cell's minors in 8-bit lanes, 4099 in 16, 16411 in 32, 2**31 - 1 in 64
    @pytest.mark.parametrize(
        "k,n,q", [(1, 4, 3), (2, 4, 3), (3, 5, 2), (4, 6, 2), (3, 3, 5), (1, 2, 4099), (1, 2, 16411), (2, 2, 2**31 - 1)]
    )
    def test_points_match_leibniz_minors(self, leibniz, k, n, q):
        pts = enumerate_grassmannian(k, n, q)
        column_sets = [[e - 1 for e in s.elements] for s in enumerate_subsets(k, n)]
        for point in pts:
            expected = [leibniz(point.matrix.rows, cols) for cols in column_sets]
            assert list(point.plucker.values) == expected
            assert point.support == sum(1 << i for i, v in enumerate(expected) if v)
        assert len({p.matrix for p in pts}) == len(pts) == gaussian_binomial(n, k, q)

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


class TestLazyPoints:
    """A point holds its rows, residues and support; its matrix and minor
    vector are built when read, and it compares, hashes and prints as its matrix."""

    @staticmethod
    def fresh(k, n, q):
        import plucker.varieties as varieties

        for cache in (varieties._cell, varieties._buckets):
            cache.cache_clear()
        return enumerate_grassmannian(k, n, q)

    def test_independent_builds_give_equal_points(self):
        first, second = self.fresh(2, 4, 3), self.fresh(2, 4, 3)
        assert len(first) == len(second) == 130
        for a, b in zip(first, second):
            assert a is not b and a.rows is not b.rows
            assert a == b and hash(a) == hash(b) == hash(a.matrix)
        assert len(set(first) | set(second)) == 130
        assert first[0] != first[1] and first[0] != first[0].matrix

    def test_repr_and_immutability(self):
        points = enumerate_grassmannian(2, 4, 3)
        # as recorded when points were dataclasses holding their matrix
        assert repr(points[0]) == "GrPoint(ExactMatrix[1 0 0 0; 0 1 0 0])"
        assert repr(points[77]) == "GrPoint(ExactMatrix[1 0 2 2; 0 1 1 2])"
        assert repr(points[-1]) == "GrPoint(ExactMatrix[0 0 1 0; 0 0 0 1])"
        for name in ("rows", "residues", "support", "field", "matrix", "plucker", "other"):
            with pytest.raises(AttributeError):
                setattr(points[0], name, None)

    def test_count_builds_no_matrix_and_no_minor_vector(self, monkeypatch):
        from plucker.matrices import PluckerVector

        def built(*args, **kwargs):
            raise AssertionError("a point object was built")

        monkeypatch.setattr(ExactMatrix, "_set", built)  # behind __init__ and _of_rows
        monkeypatch.setattr(PluckerVector, "__init__", built)
        points = self.fresh(2, 4, 3)
        assert count_points(w_spec(ks((1, 2), 4), ks((3, 4), 4)), 3) == 36
        assert len(richardson_buckets(2, 4, 3)) == 20
        with pytest.raises(AssertionError, match="point object"):
            points[0].plucker
        with pytest.raises(AssertionError, match="point object"):
            points[0].matrix


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

    def test_buckets_are_a_read_only_view_of_the_cache(self):
        buckets = richardson_buckets(2, 4, 3)
        key = (ks((1, 2), 4), ks((3, 4), 4))
        with pytest.raises(AttributeError):
            buckets.pop(key)
        with pytest.raises(TypeError):
            buckets[key] = ()
        with pytest.raises(TypeError):
            del buckets[key]
        assert richardson_buckets(2, 4, 3) is buckets
        assert len(open_richardson_points(*key, 3)) == 48

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

    def test_equal_constraints_give_equal_specs_and_hashes(self):
        a, b = ks((1, 2), 4), ks((3, 4), 4)
        spec = VarietySpec(2, 4, frozenset({a}), frozenset({b}))
        same = VarietySpec(2, 4, frozenset([a]), frozenset([b]))
        assert spec == same and hash(spec) == hash(same) and spec is not same
        assert {spec: "x"}[same] == "x"
        assert richardson_spec(a, b) == richardson_spec(a, b)

    def test_specs_differing_in_one_field_are_unequal(self):
        a, b = ks((1, 2), 4), ks((3, 4), 4)
        spec = VarietySpec(2, 4, frozenset({a}), frozenset({b}))
        others = [
            VarietySpec(2, 5, frozenset(), frozenset()),
            VarietySpec(1, 4, frozenset(), frozenset()),
            VarietySpec(2, 4, frozenset(), frozenset({b})),
            VarietySpec(2, 4, frozenset({a}), frozenset()),
        ]
        assert VarietySpec(2, 4, frozenset(), frozenset()) not in others
        assert all(spec != other for other in others)
        assert spec != (2, 4, frozenset({a}), frozenset({b}))

    def test_specs_are_immutable(self):
        spec = VarietySpec(2, 4, frozenset({ks((1, 2), 4)}), frozenset())
        for name in ("k", "n", "must_vanish", "must_not_vanish", "_vanish", "_nonvanish", "extra"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 0)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert (spec.k, spec.n, spec.must_vanish) == (2, 4, frozenset({ks((1, 2), 4)}))

    def test_repr_names_every_field(self):
        text = repr(VarietySpec(2, 4, frozenset({ks((1, 2), 4)}), frozenset({ks((3, 4), 4)})))
        assert text == (
            "VarietySpec(k=2, n=4, must_vanish=frozenset({KSubset([1, 2], n=4)}), "
            "must_not_vanish=frozenset({KSubset([3, 4], n=4)}))"
        )

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

    def test_specs_built_from_masks_equal_the_public_constructor(self):
        # richardson_spec, w_spec and divisor_spec build from the interval's mask; the
        # public constructor is given the same members in reverse lex order
        def public(b, g, vanish, nonvanish):
            outside = {s for s in enumerate_subsets(b.k, b.n) if not (subset_leq(b, s) and subset_leq(s, g))}
            vanish, nonvanish = (frozenset(sorted(m, reverse=True)) for m in (outside | set(vanish), set(nonvanish)))
            return VarietySpec(b.k, b.n, vanish, nonvanish)

        checked = 0
        for k in range(1, 4):
            for n in range(k, 7):
                for b, g in iter_comparable_pairs(k, n):
                    deltas = [delta(b, g, i) for i in range(k + 1)]
                    pairs = [(richardson_spec(b, g), public(b, g, (), ())),
                             (richardson_spec(b, g, open_=True), public(b, g, (), (b, g))),
                             (w_spec(b, g), public(b, g, (), deltas))]
                    for t in range(1, k):
                        try:
                            want = public(b, g, (delta(b, g, t),), (b, g))
                        except ParameterError as exc:  # the pivot is an endpoint
                            with pytest.raises(ParameterError, match=re.escape(str(exc))):
                                divisor_spec(b, g, t)
                            continue
                        pairs.append((divisor_spec(b, g, t), want))
                    for got, want in pairs:
                        # equal, with equal masks, and printed the same
                        assert got == want and hash(got) == hash(want)
                        assert (got._vanish, got._nonvanish) == (want._vanish, want._nonvanish)
                        assert repr(got) == repr(want)
                        checked += 1
        assert checked == 1705

    def test_repr_lists_members_in_lex_order(self):
        b, g = KSubset([1], 2), KSubset([2], 2)
        text = "VarietySpec(k=1, n=2, must_vanish=frozenset(), must_not_vanish=frozenset({%r, %r}))" % (b, g)
        assert repr(VarietySpec(1, 2, frozenset(), frozenset((g, b)))) == text
        assert repr(richardson_spec(b, g, open_=True)) == text
        spec = VarietySpec(2, 4, frozenset([ks((3, 4), 4), ks((2, 4), 4), ks((1, 4), 4)]), frozenset([ks((1, 2), 4)]))
        assert repr(spec) == (
            "VarietySpec(k=2, n=4, must_vanish=frozenset({KSubset([1, 4], n=4), KSubset([2, 4], n=4), "
            "KSubset([3, 4], n=4)}), must_not_vanish=frozenset({KSubset([1, 2], n=4)}))"
        )

    def test_constructor_errors_keep_their_messages_and_order(self):
        a4, a5 = ks((1, 2), 4), ks((1, 2), 5)
        with pytest.raises(ParameterError, match=r"^vanishing and non-vanishing constraints overlap$"):
            VarietySpec(2, 4, frozenset({a5}), frozenset({a5}))  # the overlap is found first
        for vanish, nonvanish in (({a5}, set()), (set(), {a5}), ({a4, a5}, set())):
            with pytest.raises(ParameterError, match=re.escape(f"{a5!r} does not live in S(2,4)")):
                VarietySpec(2, 4, frozenset(vanish), frozenset(nonvanish))
        with pytest.raises(ParameterError, match="need 0 < k <= n"):
            VarietySpec(5, 3, frozenset(), frozenset())
        spec = VarietySpec(2, 4, {a4}, set())  # plain sets are read, and frozensets handed back
        assert spec.must_vanish == frozenset({a4}) and isinstance(spec.must_vanish, frozenset)
        assert spec.must_not_vanish == frozenset() and isinstance(spec.must_not_vanish, frozenset)

    def test_w_spec_matches_matrix_membership(self, cramer):
        # on open-stratum points the reverse echelon form exists (Cramer's rule
        # over the nonzero minor at gamma); the spec filter and the matrix-side
        # predicate must agree there
        for q in (2, 3):
            for (b, g), pts in richardson_buckets(2, 4, q).items():
                for p in pts:
                    m = p.matrix
                    n_mat = ExactMatrix(cramer(m, g), m.field)
                    assert membership(p, w_spec(b, g)) == w_membership(n_mat, b, g)


def frozenset_membership(point, spec):
    # the definition by coordinate lookups that the support bitmask replaces
    pv = point.plucker
    return all(not pv[s] for s in spec.must_vanish) and all(pv[s] for s in spec.must_not_vanish)


class TestDivisorSpec:
    @pytest.mark.parametrize("t", [0, 2, 3])
    def test_cut_outside_1_to_k_minus_1_rejected(self, t):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        with pytest.raises(ParameterError, match=rf"^t={t} out of range 1\.\.1$"):
            divisor_spec(b, g, t)


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

    @pytest.mark.parametrize("k,n,q", [(2, 4, 3), (3, 5, 2)])
    def test_checks_read_the_strata_they_test(self, k, n, q, monkeypatch):
        # oracle: the whole Grassmannian, one point per support, the last enumerated
        import plucker.varieties as varieties

        points = enumerate_grassmannian(k, n, q)
        every = {p.support: p for p in points}
        nowhere = VarietySpec(k, n, frozenset(enumerate_subsets(k, n)), frozenset())

        def reps(spec, pts):
            return {p.support: p for p in pts if spec.admits(p.support)}

        def witness(lhs, rhs, case):
            diff = {s for s in every if lhs(s)} ^ {s for s in every if rhs(s)}
            return f"set mismatch at {every[min(diff)]!r} in {case}" if diff else None

        for b, g in iter_comparable_pairs(k, n):
            opened, closed, inverted = richardson_spec(b, g, open_=True), richardson_spec(b, g), w_spec(b, g)
            stratum = {p.support for p in open_richardson_points(b, g, q)}
            for spec in [opened] + [divisor_spec(b, g, t) for t in range(1, k) if len(p_set(b, g, t))]:
                assert reps(spec, points).keys() <= stratum, (b, g, spec)
            got, want = reps(closed, closed_richardson_points(b, g, q)), reps(closed, points)
            assert got.keys() == want.keys() and all(got[s] is want[s] for s in want), (b, g)
            shape = YShape(b, g)
            assert count_points(inverted, q) == q**shape.star_count * (q - 1) ** shape.unit_count
            assert verify_w_count(b, g, q) is None, (b, g)
            # with every positroid spec replaced by the closed interval variety
            # or by the empty locus, both checks must name the oracle's witness,
            # which a check reading the wrong stratum would miss
            removed = any(map(len, sigma_sets(b, g)))
            for sub in (closed, nowhere):
                monkeypatch.setattr(varieties, "positroid_spec", lambda family: sub)
                for t in range(1, k):
                    if len(p_set(b, g, t)):
                        div = divisor_spec(b, g, t)
                        rhs = lambda s: opened.admits(s) and sub.admits(s)
                        want = witness(div.admits, rhs, f"({b},{g},t={t},q={q})")
                        assert verify_positroid_divisor(b, g, t, q) == want, (b, g, t, sub)
                lhs = lambda s: closed.admits(s) and inverted.admits(s)
                rhs = lambda s: closed.admits(s) and not (removed and sub.admits(s))
                assert verify_complement(b, g, q) == witness(lhs, rhs, f"({b},{g},q={q})"), (b, g, sub)
            monkeypatch.undo()

    def test_set_checks_check_the_budget(self):
        # Gr(2,4) over GF(3) has 130 points
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        checks = (
            lambda: verify_positroid_divisor(b, g, 1, 3, 100),
            lambda: verify_complement(b, g, 3, 100),
            lambda: verify_w_count(b, g, 3, 100),
            lambda: closed_richardson_points(b, g, 3, 100),
        )
        for check in checks:
            with pytest.raises(BudgetError, match="130 points"):
                check()


class TestCensus:
    """A cell's support census counts the supports of its points, and the set
    checks and counts read it without building a point."""

    # GF(67) needs 16-bit lanes (2q > 2^7); the others fit in 8 bits
    @pytest.mark.parametrize("k,n,q", [(2, 4, 2), (2, 4, 3), (3, 5, 2), (2, 5, 5), (3, 6, 2), (2, 3, 67)])
    def test_census_counts_the_supports_of_each_cell(self, k, n, q):
        import plucker.varieties as varieties

        for pivot in enumerate_subsets(k, n):
            census = varieties._census(k, n, q, pivot)
            assert census == Counter(p.support for p in varieties._cell(k, n, q, pivot)), pivot
            assert varieties._census(k, n, q, pivot) is census
        with pytest.raises(TypeError):
            census[1] = 1

    @pytest.mark.parametrize("k,n,q", [(2, 4, 3), (3, 5, 2)])
    def test_supports_match_the_enumeration(self, k, n, q):
        from plucker.varieties import _supports

        points = enumerate_grassmannian(k, n, q)
        specs = [VarietySpec(k, n, frozenset(), frozenset())]
        for b, g in iter_comparable_pairs(k, n):
            specs += [richardson_spec(b, g), richardson_spec(b, g, open_=True), w_spec(b, g)]
            specs += [divisor_spec(b, g, t) for t in range(1, k) if len(p_set(b, g, t))]
        for spec in specs:
            assert _supports(spec, q) == Counter(p.support for p in points if spec.admits(p.support)), spec

    def test_set_checks_and_counts_build_no_point(self):
        from plucker import SweepConfig, reports, varieties
        from plucker.claims import run_all

        for cache in (varieties._cell, varieties._buckets, varieties._census):
            cache.cache_clear()
        cfg = SweepConfig(k_range=(2, 3), n_range=(4, 5), rational_samples=5).validate()
        report = run_all(cfg, ("Thm7-divisor", "S7-complement", "W-count"))
        for claim in report.claims:
            assert claim.verdict == reports.PASS, (claim.claim, claim.witness)
        assert varieties._census.cache_info().currsize > 0
        assert varieties._cell.cache_info().currsize == 0


class TestStrata:
    """A cell's open strata each hold one packed buffer of the residue vectors of
    their points, and Lem4 and Cor5 read them without building a point."""

    @staticmethod
    def corrupt(monkeypatch, q, beta, gamma, index, image):
        """Make ``claims`` read the open stratum (beta, gamma) of Gr(2,4)/GF(q) from a copy
        of its packed buffer whose lane ``index`` holds ``image`` of its value."""
        from plucker import claims
        from plucker.varieties import _strata

        def corrupted(k, n, p, pivot):
            strata = _strata(k, n, p, pivot)
            if (k, n, p, pivot) != (2, 4, q, beta):
                return strata
            buffer = array(strata[gamma].typecode, strata[gamma])  # a copy: the cached buffer stays intact
            buffer[index] = image(buffer[index])
            return {**strata, gamma: buffer}

        monkeypatch.setattr(claims, "_strata", corrupted)

    # GF(257) needs 16-bit lanes (2q > 2^7); the others fit in 8 bits
    @pytest.mark.parametrize("k,n,q", [(2, 4, 2), (2, 4, 3), (3, 5, 2), (3, 6, 2), (2, 3, 257)])
    def test_strata_match_the_buckets(self, k, n, q):
        from plucker.varieties import _lane, _strata

        N, got = len(enumerate_subsets(k, n)), {}
        for beta in enumerate_subsets(k, n):
            strata = _strata(k, n, q, beta)
            assert _strata(k, n, q, beta) is strata
            with pytest.raises(TypeError):
                strata[beta] = array(_lane(q))
            for gamma, buffer in strata.items():
                assert buffer.typecode == _lane(q) and len(buffer) % N == 0
                got[beta, gamma] = list(struct.iter_unpack(f"{N}{_lane(q)}", buffer))
        want = {key: [p.residues for p in points] for key, points in richardson_buckets(k, n, q).items()}
        assert list(got.items()) == list(want.items())  # every key, in order, and every vector, in order

    def test_strata_take_about_one_lane_a_coordinate(self):
        from plucker.varieties import _lane, _strata

        k, n, q = 3, 6, 3
        subsets = enumerate_subsets(k, n)
        N = len(subsets)
        for beta in subsets:  # warm every cache the strata read
            _strata(k, n, q, beta)
        _strata.cache_clear()
        tracemalloc.start()
        try:
            lanes = sum(len(b) for beta in subsets for b in _strata(k, n, q, beta).values())
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        points = gaussian_binomial(n, k, q)
        assert lanes == N * points
        assert size <= 1.25 * N * struct.calcsize(_lane(q)) * points  # bytes a point, arrays' headers included

    def test_lem4_and_cor5_build_no_point(self):
        from plucker import SweepConfig, reports, varieties
        from plucker.claims import run_all

        for cache in (varieties._cell, varieties._buckets, varieties._strata):
            cache.cache_clear()
        cfg = SweepConfig(k_range=(2, 3), n_range=(4, 5), rational_samples=5).validate()
        report = run_all(cfg, ("Lem4-certificates", "Cor5-unit"))
        for claim in report.claims:
            assert claim.verdict == reports.PASS, (claim.claim, claim.witness)
        assert varieties._strata.cache_info().currsize > 0
        assert varieties._cell.cache_info().currsize == 0
        assert varieties._buckets.cache_info().currsize == 0

    def test_a_corrupted_residue_fails_lem4(self, monkeypatch):
        # on the open stratum of ({1,2},{2,4}) Delta_34 vanishes, so
        # Delta_13 Delta_24 = Delta_14 Delta_23, and Delta_13 + 1 breaks it
        from plucker import SweepConfig, claims, reports

        beta, gamma, q = ks((1, 2), 4), ks((2, 4), 4), 3
        self.corrupt(monkeypatch, q, beta, gamma, 1, lambda x: (x + 1) % q)  # Delta_13 of the first point
        cfg = SweepConfig(k_range=(2, 2), n_range=(4, 4), rational_samples=5).validate()
        (report,) = claims.run_all(cfg, ("Lem4-certificates",)).claims
        assert report.verdict == reports.FAIL
        assert report.witness == "certificate failed for {1,3} at ({1,2},{2,4},t=1)"
        monkeypatch.undo()
        assert claims.run_all(cfg, ("Lem4-certificates",)).claims[0].verdict == reports.PASS

    def test_a_zeroed_pivot_lane_fails_cor5(self, monkeypatch):
        # the unit certificate of ({1,2},{1,4}) inverts Delta_14, the third coordinate;
        # zero it at the last point of the stratum over GF(3)
        from plucker import SweepConfig, claims, reports
        from plucker.varieties import _strata

        beta, gamma, q = ks((1, 2), 4), ks((1, 4), 4), 3
        last = len(_strata(2, 4, q, beta)[gamma]) - 6
        self.corrupt(monkeypatch, q, beta, gamma, last + 2, lambda x: 0)
        cfg = SweepConfig(k_range=(2, 2), n_range=(4, 4), rational_samples=5).validate()
        (report,) = claims.run_all(cfg, ("Cor5-unit",)).claims
        assert report.verdict == reports.FAIL
        assert report.witness == "pivot {1,4} vanishes on the open stratum at ({1,2},{1,4},q=3)"
        monkeypatch.undo()
        assert claims.run_all(cfg, ("Cor5-unit",)).claims[0].verdict == reports.PASS


class TestSetCheckFailures:
    def test_wrong_family_is_reported_with_a_point(self, monkeypatch):
        # every positroid spec becomes the closed interval variety: the window
        # locus grows to the whole open stratum and the removed loci cover
        # the inverted stratum, so both identities break
        import plucker.varieties as varieties

        b, g = ks((1, 2), 4), ks((3, 4), 4)
        monkeypatch.setattr(varieties, "positroid_spec", lambda family: richardson_spec(b, g))
        at = "set mismatch at GrPoint(ExactMatrix[1 0 2 0; 0 1 0 2]) in ({1,2},{3,4}"
        assert verify_positroid_divisor(b, g, 1, 3) == at + ",t=1,q=3)"
        assert verify_complement(b, g, 3) == at + ",q=3)"


class TestDivisorIdentity:
    def test_big_cell_example(self):
        assert verify_positroid_divisor(ks((1, 2), 4), ks((3, 4), 4), 1, 3) is None

    def test_empty_window_rejected(self):
        with pytest.raises(ParameterError):
            verify_positroid_divisor(ks((1, 2), 4), ks((1, 4), 4), 1, 3)

    def test_sweep_24(self):
        for q in (2, 3, 5):
            for b, g in iter_comparable_pairs(2, 4):
                if len(p_set(b, g, 1)):
                    rep = verify_positroid_divisor(b, g, 1, q)
                    assert rep is None, rep

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
        assert verify_complement(b, b, 3) is None

    @pytest.mark.parametrize("q", (2, 3))
    def test_big_cell(self, q):
        assert verify_complement(ks((1, 2), 4), ks((3, 4), 4), q) is None

    def test_adjacent_pair(self):
        assert verify_complement(ks((1, 2), 4), ks((1, 3), 4), 2) is None


class TestShiftedSchubert:
    def test_big_cell_fixes_direction(self):
        assert verify_shifted_schubert(ks((1, 2), 4), ks((3, 4), 4), 1) is None

    def test_sweep_25(self):
        for b, g in iter_comparable_pairs(2, 5):
            if len(p_set(b, g, 1)):
                assert verify_shifted_schubert(b, g, 1) is None

    def test_empty_window_families_check_the_restriction(self):
        empty = [(b, g) for b, g in iter_comparable_pairs(2, 5) if not len(p_set(b, g, 1))]
        assert empty
        for b, g in empty:
            assert verify_shifted_schubert(b, g, 1) is None

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
                assert verify_w_count(b, g, q) is None

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
