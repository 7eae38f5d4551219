import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker import (
    EmptyIntervalError,
    KSubset,
    ParameterError,
    ParseError,
    SubsetFamily,
    SubsetInterval,
    avoids_window,
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


def ks(elems, n):
    return KSubset(elems, n)


def brute_leq(a, b):
    return all(x <= y for x, y in zip(a.elements, b.elements))


def brute_covers(a, b):
    """Order-theoretic covering: a < b with nothing strictly between."""
    if a == b or not brute_leq(a, b):
        return False
    for c in enumerate_subsets(a.k, a.n):
        if c not in (a, b) and brute_leq(a, c) and brute_leq(c, b):
            return False
    return True


# strategies


@st.composite
def ksubsets(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    elems = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
    return KSubset(sorted(elems), n)


@st.composite
def comparable_pairs(draw, max_n=7):
    a = draw(ksubsets(max_n))
    elems = draw(st.lists(st.integers(1, a.n), min_size=a.k, max_size=a.k, unique=True))
    b = KSubset(sorted(elems), a.n)
    lo = KSubset([min(x, y) for x, y in zip(a.elements, b.elements)], a.n)
    hi = KSubset([max(x, y) for x, y in zip(a.elements, b.elements)], a.n)
    return lo, hi


class TestKSubset:
    def test_validation(self):
        with pytest.raises(ParameterError):
            KSubset((2, 2), 4)
        with pytest.raises(ParameterError):
            KSubset((3, 1), 4)
        with pytest.raises(ParameterError):
            KSubset((0, 1), 4)
        with pytest.raises(ParameterError):
            KSubset((1, 5), 4)
        with pytest.raises(ParameterError):
            KSubset((), 4)

    def test_only_integers(self):
        # int() would read [1.9, 2.2] as {1,2} and n = 4.9 as 4
        for elems, n in (((1.9, 2.2), 4), ((1, 2), 4.9), (("1", 2), 4), ((1, 2), "4")):
            with pytest.raises(ParameterError, match="not an integer"):
                KSubset(elems, n)

    def test_call_is_one_indexed(self):
        a = ks((2, 5, 6, 10), 14)
        assert a(1) == 2 and a(4) == 10
        with pytest.raises(ParameterError):
            a(0)

    def test_equality_hash(self):
        assert ks((1, 3), 4) == ks((1, 3), 4)
        assert ks((1, 3), 4) != ks((1, 3), 5)
        assert hash(ks((1, 3), 4)) == hash(ks((1, 3), 4))
        assert str(ks((1, 3), 4)) == "{1,3}"

    def test_parse(self):
        assert parse_subset("{1,3}", 4) == ks((1, 3), 4)
        assert parse_subset("3,1", 4) == ks((1, 3), 4)
        with pytest.raises(Exception):
            parse_subset("{1,1}", 4)

    def test_parse_takes_ascii_digits_only(self):
        # int() reads "1_0" as 10, "+1" as 1 and "\u0663" (Arabic-Indic three) as 3
        assert parse_subset("{ 1, 10 }", 12) == ks((1, 10), 12)
        for text in ("{1_0}", "{+1,3}", "{1,\u0663}", "{-1,3}", "{1,}3"):
            with pytest.raises(ParseError, match="bad subset literal"):
                parse_subset(text, 12)


class TestEnumerate:
    def test_tiny(self):
        assert [s.elements for s in enumerate_subsets(1, 2)] == [(1,), (2,)]

    def test_lex_24(self):
        got = [s.elements for s in enumerate_subsets(2, 4)]
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_count_matches_binomial(self):
        assert len(enumerate_subsets(3, 6)) == math.comb(6, 3) == 20

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            enumerate_subsets(0, 3)
        with pytest.raises(ParameterError):
            enumerate_subsets(4, 3)


class TestOrder:
    def test_examples(self):
        assert subset_leq(ks((1, 2), 4), ks((3, 4), 4))
        assert not subset_leq(ks((1, 4), 4), ks((2, 3), 4))
        a = ks((2, 3), 5)
        assert subset_leq(a, a)

    def test_mismatch(self):
        with pytest.raises(ParameterError):
            subset_leq(ks((1, 2), 4), ks((1, 2), 5))

    def test_interval_full(self):
        fam = interval(ks((1, 2), 4), ks((3, 4), 4))
        assert fam == SubsetFamily(enumerate_subsets(2, 4))

    def test_interval_singleton(self):
        b = ks((1, 3), 5)
        assert interval(b, b) == SubsetFamily([b])

    def test_interval_filtered(self):
        fam = interval(ks((1, 3), 4), ks((2, 4), 4))
        want = {ks(e, 4) for e in [(1, 3), (1, 4), (2, 3), (2, 4)]}
        assert fam.members == want

    def test_interval_error(self):
        with pytest.raises(EmptyIntervalError):
            interval(ks((2, 3), 4), ks((1, 4), 4))

    def test_subset_interval_type(self):
        si = SubsetInterval(ks((1, 3), 4), ks((2, 4), 4))
        assert ks((1, 4), 4) in si
        assert ks((3, 4), 4) not in si
        assert si.family() == interval(si.lo, si.hi)


class TestFamilies:
    """``SubsetFamily`` against the same operations on frozensets, and the window
    families against their element-wise definitions."""

    @staticmethod
    def all_families(k, n):
        subsets = enumerate_subsets(k, n)
        for bits in range(1 << len(subsets)):
            members = frozenset(s for i, s in enumerate(subsets) if bits >> i & 1)
            yield members, SubsetFamily(members, k, n)

    def test_operations_match_frozensets(self):
        families = list(self.all_families(2, 4))
        assert len(families) == 64
        for a, fa in families:
            assert len(fa) == len(a) and fa.members == a and isinstance(fa.members, frozenset)
            assert list(fa) == sorted(a)
            assert repr(fa) == "SubsetFamily({" + ", ".join(map(str, sorted(a))) + "}, k=2, n=4)"
            for b, fb in families:
                for got, want in ((fa & fb, a & b), (fa | fb, a | b), (fa - fb, a - b)):
                    assert got == SubsetFamily(want, 2, 4) and got.members == want
                    assert (got.k, got.n) == (2, 4) and list(got) == sorted(want)
                assert (fa == fb) == (a == b)
                if a == b:
                    assert hash(fa) == hash(fb)
        assert len({fa for _, fa in families}) == 64

    def test_membership(self):
        fam = SubsetFamily([ks((1, 3), 4), ks((2, 4), 4)])
        assert ks((1, 3), 4) in fam and ks((2, 4), 4) in fam
        assert ks((1, 2), 4) not in fam
        for other in (ks((1, 3), 5), ks((1, 3, 4), 4), ks((3,), 4)):  # another (k, n)
            assert other not in fam
        assert (1, 3) not in fam and "{1,3}" not in fam

    def test_window_families_match_their_definitions(self):
        checked = 0
        for k in range(1, 4):
            for n in range(k, 7):
                subsets = enumerate_subsets(k, n)
                for b, g in iter_comparable_pairs(k, n):
                    box = {a for a in subsets if subset_leq(b, a) and subset_leq(a, g)}
                    assert interval(b, g).members == box and list(interval(b, g)) == sorted(box)
                    for t in range(1, k):
                        lo, hi = b(t + 1), g(t)
                        meets = {a for a in subsets if any(lo <= x <= hi for x in a)}
                        assert i_set(b, g, t).members == meets
                        assert p_set(b, g, t).members == box & meets
                        assert p_set_complement(b, g, t).members == box - meets
                        assert {a for a in subsets if avoids_window(a, b, g, t)} == box - meets
                        checked += 1
        assert checked == 654

    def test_empty_family(self):
        empty = SubsetFamily([], 2, 4)
        assert len(empty) == 0 and list(empty) == [] and empty.members == frozenset()
        assert repr(empty) == "SubsetFamily({}, k=2, n=4)"
        assert empty == SubsetFamily(set(), 2, 4) and hash(empty) == hash(SubsetFamily((), 2, 4))
        assert empty != SubsetFamily([], 2, 5) and ks((1, 2), 4) not in empty
        full = SubsetFamily(enumerate_subsets(2, 4))
        assert empty | full == full and full - full == empty and not (empty & full)
        odd = SubsetFamily([], 5, 3)  # no subset of S(5, 3) exists, but an empty family may carry it
        assert (odd.k, odd.n, len(odd), list(odd)) == (5, 3, 0, [])
        assert repr(odd) == "SubsetFamily({}, k=5, n=3)"
        with pytest.raises(ParameterError, match=r"an empty family needs explicit \(k, n\)"):
            SubsetFamily([])

    def test_mixed_parameters_are_refused(self):
        with pytest.raises(ParameterError, match=r"^family members must share \(k, n\)$"):
            SubsetFamily([ks((1, 2), 4), ks((1, 2), 5)])
        with pytest.raises(ParameterError, match=r"^family members must share \(k, n\)$"):
            SubsetFamily([ks((1, 2), 4)], 2, 5)
        fam, other = SubsetFamily([ks((1, 2), 4)]), SubsetFamily([ks((1, 2), 5)])
        for op in ("__and__", "__or__", "__sub__"):
            with pytest.raises(ParameterError, match=r"^families must share \(k, n\)$"):
                getattr(fam, op)(other)


class TestCovers:
    def test_examples(self):
        assert covers(ks((1, 2), 4), ks((1, 3), 4))
        assert not covers(ks((1, 2), 4), ks((3, 4), 4))
        a = ks((1, 2), 4)
        assert not covers(a, a)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_bruteforce_oracle(self, n):
        for k in range(1, n + 1):
            subs = enumerate_subsets(k, n)
            for a in subs:
                for b in subs:
                    assert covers(a, b) == brute_covers(a, b), (a, b)

    def test_upper_lower_consistent(self):
        for a in enumerate_subsets(2, 5):
            for b in upper_covers(a):
                assert covers(a, b)
            for b in lower_covers(a):
                assert covers(b, a)


class TestDelta:
    def test_endpoints(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        assert delta(b, g, 0) == g
        assert delta(b, g, 2) == b

    def test_mixed(self):
        assert delta(ks((1, 2), 4), ks((3, 4), 4), 1) == ks((1, 4), 4)

    def test_in_interval(self):
        for b, g in iter_comparable_pairs(2, 5):
            fam = interval(b, g)
            for t in range(0, 3):
                assert delta(b, g, t) in fam

    def test_t_out_of_range(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        with pytest.raises(ParameterError):
            delta(b, g, 3)
        with pytest.raises(ParameterError):
            delta(b, g, -1)


class TestWindowFamilies:
    def test_p_set_example(self):
        fam = p_set(ks((1, 2), 4), ks((3, 4), 4), 1)
        want = {ks(e, 4) for e in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]}
        assert fam.members == want

    def test_p_set_empty_window(self):
        assert len(p_set(ks((1, 2), 4), ks((1, 4), 4), 1)) == 0

    def test_complement_contains_pivot(self):
        for b, g in iter_comparable_pairs(2, 5):
            for t in (1,):
                comp = p_set_complement(b, g, t)
                d = delta(b, g, t)
                assert d in comp
                assert d not in p_set(b, g, t)

    def test_i_set_example(self):
        fam = i_set(ks((1, 2), 4), ks((3, 4), 4), 1)
        assert fam.members == {s for s in enumerate_subsets(2, 4)} - {ks((1, 4), 4)}

    def test_i_set_empty_window(self):
        assert len(i_set(ks((1, 2), 4), ks((1, 4), 4), 1)) == 0

    def test_i_set_restricts_to_p_set(self):
        for k, n in ((2, 5), (2, 7), (3, 6), (3, 7)):
            for b, g in iter_comparable_pairs(k, n):
                for t in range(1, k):
                    assert p_set(b, g, t) == (i_set(b, g, t) & interval(b, g))

    def test_t_out_of_range(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        with pytest.raises(ParameterError):
            p_set(b, g, 0)
        with pytest.raises(ParameterError):
            i_set(b, g, 2)

    def test_complement_partitions_the_interval_and_matches_avoids_window(self):
        for k, n in ((2, 5), (3, 6)):
            subsets = enumerate_subsets(k, n)
            for b, g in iter_comparable_pairs(k, n):
                for t in range(1, k):
                    comp = p_set_complement(b, g, t)
                    assert comp == interval(b, g) - p_set(b, g, t)
                    assert {a for a in subsets if avoids_window(a, b, g, t)} == comp.members

    def test_avoids_window_errors_match_the_family(self):
        b, g, a = ks((1, 2), 4), ks((3, 4), 4), ks((1, 4), 4)
        for bad in ((g, b, 1), (b, g, 0), (b, g, 2)):
            for build in (p_set_complement, lambda *args: avoids_window(a, *args)):
                with pytest.raises(ParameterError) as err:
                    build(*bad)
                assert (err.type is EmptyIntervalError) == (bad[0] == g)
        assert not avoids_window(ks((1, 5), 5), b, g, 1)  # another (k, n): not a member


class TestCyclicShift:
    def test_examples(self):
        a = ks((1, 2), 4)
        assert cyclic_shift(a, 0) == a
        assert cyclic_shift(ks((3, 4), 4), 1) == ks((1, 4), 4)
        assert cyclic_shift(a, 4) == a

    @settings(deadline=None, max_examples=60)
    @given(ksubsets(), st.integers(-12, 12))
    def test_inverse_shift(self, a, j):
        assert cyclic_shift(cyclic_shift(a, j), -j) == a

    @settings(deadline=None, max_examples=60)
    @given(ksubsets(), st.integers(-6, 6), st.integers(-6, 6))
    def test_composition(self, a, i, j):
        assert cyclic_shift(a, i + j) == cyclic_shift(cyclic_shift(a, i), j)

    def test_bijection_with_period_dividing_n(self):
        for k, n in ((2, 4), (2, 5), (3, 6)):
            subs = enumerate_subsets(k, n)
            shifted = {cyclic_shift(a, 1) for a in subs}
            assert shifted == set(subs)
            for a in subs:
                assert cyclic_shift(a, n) == a


class TestEpsilon:
    def test_example(self):
        assert epsilon(ks((1, 2), 4), ks((3, 4), 4), 1) == ks((1, 3), 4)

    def test_last_element_bound_exhaustive(self):
        # nonempty window implies the last element exceeds k, for all n <= 7
        for n in range(2, 8):
            for k in range(2, n + 1):
                for b, g in iter_comparable_pairs(k, n):
                    for t in range(1, k):
                        if len(p_set(b, g, t)) == 0:
                            continue
                        e = epsilon(b, g, t)
                        assert e(k) > k

    def test_empty_window_rejected(self):
        with pytest.raises(ParameterError):
            epsilon(ks((1, 2), 4), ks((1, 4), 4), 1)

    def test_k1_unreachable(self):
        with pytest.raises(ParameterError):
            epsilon(ks((1,), 3), ks((2,), 3), 1)


class TestSigmaSets:
    def test_equal_endpoints(self):
        b = ks((1, 3), 4)
        s0, s1, s2 = sigma_sets(b, b)
        assert not s0 and not s1 and not s2

    def test_full_interval_24(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        s0, s1, s2 = sigma_sets(b, g)
        assert s0 == frozenset({p_set(b, g, 1)})
        assert s1 == frozenset({interval(ks((1, 3), 4), g)})
        assert s2 == frozenset({interval(b, ks((2, 4), 4))})

    def test_sigma1_counts_covers(self):
        for b, g in iter_comparable_pairs(2, 5):
            if b == g:
                continue
            _, s1, s2 = sigma_sets(b, g)
            assert len(s1) == sum(1 for bp in upper_covers(b) if subset_leq(bp, g))
            assert len(s2) == sum(1 for gp in lower_covers(g) if subset_leq(b, gp))

    def test_members_inside_interval(self):
        for b, g in iter_comparable_pairs(2, 5):
            box = interval(b, g)
            for fam_set in sigma_sets(b, g):
                for fam in fam_set:
                    assert fam.members <= box.members


class TestRank:
    def test_extremes(self):
        assert subset_rank(ks((1, 2, 3), 7)) == 0
        assert subset_rank(ks((5, 6, 7), 7)) == 3 * 4

    def test_banded_shape_dimension(self):
        b = ks((2, 5, 6, 10), 14)
        g = ks((6, 8, 11, 12), 14)
        assert subset_rank(b) == 13
        assert subset_rank(g) == 27
        assert subset_rank(g) - subset_rank(b) == 14  # 10 free + 4 invertible entries

    @settings(deadline=None, max_examples=60)
    @given(comparable_pairs())
    def test_monotone(self, pair):
        lo, hi = pair
        assert subset_rank(lo) <= subset_rank(hi)


@settings(deadline=None, max_examples=60)
@given(comparable_pairs(max_n=6))
def test_delta_and_windows_random(pair):
    b, g = pair
    k = b.k
    box = interval(b, g)
    for t in range(0, k + 1):
        assert delta(b, g, t) in box
    for t in range(1, k):
        assert delta(b, g, t) not in p_set(b, g, t)
        assert p_set(b, g, t) == (i_set(b, g, t) & box)
