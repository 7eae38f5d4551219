import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker import (
    BudgetError,
    KSubset,
    ParameterError,
    Permutation,
    SubsetFamily,
    bruhat_interval,
    bruhat_leq,
    compose,
    enumerate_subsets,
    grassmannian_perm,
    identity,
    interval,
    is_positroid_bruteforce,
    iter_comparable_pairs,
    long_cycle,
    long_element,
    p_set,
    pi_k,
    positroid_from_interval,
    simple_transposition,
    subset_leq,
    verify_positroidset,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Permutation([1, 1, 3])
        with pytest.raises(ParameterError):
            Permutation([0, 1, 2])

    def test_only_integers(self):
        for images in ([1.0, 2.0], [2.7, 1], ["1", "2"]):
            with pytest.raises(ParameterError, match="not an integer"):
                Permutation(images)

    def test_call_and_inverse(self):
        w = Permutation([3, 1, 4, 2])
        assert w(1) == 3
        assert compose(w, w.inverse()) == identity(4)

    def test_long_cycle(self):
        c = long_cycle(4)
        assert c.images == (2, 3, 4, 1)
        assert long_element(4).images == (4, 3, 2, 1)

    def test_long_cycle_action_matches_subset_shift(self):
        from plucker import cyclic_shift

        c = long_cycle(5)
        for alpha in enumerate_subsets(2, 5):
            shifted = KSubset(sorted(c(x) for x in alpha), 5)
            assert shifted == cyclic_shift(alpha, 1)


class TestCompose:
    def test_identity_units(self):
        w = Permutation([2, 3, 1])
        assert compose(identity(3), w) == w
        assert compose(w, identity(3)) == w

    def test_involution(self):
        w = Permutation([2, 1, 3])
        assert compose(w, simple_transposition(1, 3)) == identity(3)

    def test_right_multiplication_swaps_positions(self):
        w = Permutation([3, 1, 4, 2])
        ws = compose(w, simple_transposition(2, 4))
        assert ws.images == (3, 4, 1, 2)

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            compose(identity(3), identity(4))

    @settings(deadline=None, max_examples=50)
    @given(
        st.permutations(list(range(1, 5))),
        st.permutations(list(range(1, 5))),
        st.permutations(list(range(1, 5))),
    )
    def test_associative(self, a, b, c):
        u, v, w = Permutation(a), Permutation(b), Permutation(c)
        assert compose(compose(u, v), w) == compose(u, compose(v, w))


class TestPik:
    def test_examples(self):
        w = Permutation([3, 1, 4, 2])
        assert pi_k(w, 2) == KSubset((1, 3), 4)
        assert pi_k(identity(5), 3) == KSubset((1, 2, 3), 5)
        assert pi_k(w, 4) == KSubset((1, 2, 3, 4), 4)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            pi_k(identity(3), 0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_invariance_under_off_block_transpositions(self, n):
        for w in all_perms(n):
            for k in range(1, n + 1):
                for t in range(1, n):
                    if t + 1 <= k or t > k:
                        assert pi_k(compose(w, simple_transposition(t, n)), k) == pi_k(w, k)

    def test_projection_of_right_descent_product(self):
        # first t values of w_beta * s_t drop beta(t) for beta(t+1)
        for k, n in ((2, 5), (3, 6)):
            for beta in enumerate_subsets(k, n):
                wb = grassmannian_perm(beta)
                for t in range(1, k):
                    moved = pi_k(compose(wb, simple_transposition(t, n)), t)
                    assert moved == KSubset(beta.elements[: t - 1] + (beta(t + 1),), n)


class TestBruhat:
    def test_examples(self):
        u = Permutation([2, 1, 3])
        v = Permutation([3, 1, 2])
        assert bruhat_leq(u, v)
        assert bruhat_leq(u, u)
        for w in all_perms(3):
            assert bruhat_leq(identity(3), w)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_partial_order_axioms(self, n):
        ps = all_perms(n)
        for u in ps:
            assert bruhat_leq(u, u)
            for v in ps:
                if bruhat_leq(u, v) and bruhat_leq(v, u):
                    assert u == v
                for w in ps:
                    if bruhat_leq(u, v) and bruhat_leq(v, w):
                        assert bruhat_leq(u, w)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_projection_order_preserving(self, n):
        ps = all_perms(n)
        for u in ps:
            for v in ps:
                if bruhat_leq(u, v):
                    for k in range(1, n + 1):
                        assert subset_leq(pi_k(u, k), pi_k(v, k))

    def test_interval_examples(self):
        assert bruhat_interval(identity(3), identity(3)) == frozenset({identity(3)})
        u = Permutation([2, 1, 3])
        assert bruhat_interval(u, identity(3)) == frozenset()
        for n in (2, 3, 4):
            full = bruhat_interval(identity(n), long_element(n))
            assert len(full) == len(all_perms(n))

    def test_interval_is_the_order_interval(self):
        def by_filter(u, v, ps):
            return frozenset(w for w in ps if bruhat_leq(u, w) and bruhat_leq(w, v))

        for n in (1, 2, 3, 4):
            ps = all_perms(n)
            for u in ps:
                for v in ps:
                    assert bruhat_interval(u, v) == by_filter(u, v, ps)
        rng = random.Random(1806)
        for n in (5, 6):
            ps = all_perms(n)
            nonempty = 0
            for _ in range(200):
                u, v = rng.sample(ps, 2)
                if bruhat_leq(v, u):
                    u, v = v, u
                want = by_filter(u, v, ps)
                assert bruhat_interval(u, v) == want
                nonempty += bool(want)
            assert nonempty >= 50
        assert len(bruhat_interval(identity(7), long_element(7))) == 5040

    def test_interval_past_n_7(self):
        # v lies in the Young subgroup S_3 x S_3 x S_2 (its reduced words use
        # no s_3, s_6), so [u, v] is the product of the blockwise intervals
        def block(u, v, shift):
            u, v = Permutation(u), Permutation(v)
            below = [w for w in all_perms(u.n) if bruhat_leq(u, w) and bruhat_leq(w, v)]
            return [tuple(x + shift for x in w.images) for w in below]

        blocks = [block((2, 1, 3), (2, 3, 1), 0), block((1, 2, 3), (2, 3, 1), 3), block((1, 2), (2, 1), 6)]
        want = {Permutation(a + b + c) for a, b, c in itertools.product(*blocks)}
        assert len(want) == 2 * 4 * 2
        u, v = Permutation([2, 1, 3, 4, 5, 6, 7, 8]), Permutation([2, 3, 1, 5, 6, 4, 8, 7])
        assert bruhat_interval(u, v) == want


class TestGrassmannianPerm:
    def test_examples(self):
        assert grassmannian_perm(KSubset((1, 2), 4)) == identity(4)
        assert grassmannian_perm(KSubset((2, 4), 4)) == Permutation([2, 4, 1, 3])
        assert grassmannian_perm(KSubset((1, 2, 3), 3)) == identity(3)

    def test_projection_identity(self):
        for n in range(2, 8):
            for k in range(1, n + 1):
                for alpha in enumerate_subsets(k, n):
                    assert pi_k(grassmannian_perm(alpha), k) == alpha

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_minimal_in_fiber(self, n):
        for k in range(1, n + 1):
            for alpha in enumerate_subsets(k, n):
                wa = grassmannian_perm(alpha)
                for w in all_perms(n):
                    if pi_k(w, k) == alpha:
                        assert bruhat_leq(wa, w)


class TestPositroids:
    def test_singleton(self):
        alpha = KSubset((2, 3), 4)
        wa = grassmannian_perm(alpha)
        assert positroid_from_interval(wa, wa, 2) == SubsetFamily([alpha])

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_full_interval_projects_onto_everything(self, n):
        for k in range(1, n + 1):
            fam = positroid_from_interval(identity(n), long_element(n), k)
            assert fam == SubsetFamily(enumerate_subsets(k, n))

    def test_grassmannian_interval_projects_to_subset_interval(self):
        rng = random.Random(4101)
        for k, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
            pairs = list(iter_comparable_pairs(k, n))
            for _ in range(5):
                beta, gamma = pairs[rng.randrange(len(pairs))]
                fam = positroid_from_interval(
                    grassmannian_perm(beta), grassmannian_perm(gamma), k
                )
                assert fam == interval(beta, gamma)

    def test_projection_window_family_example(self):
        beta, gamma = KSubset((1, 2), 4), KSubset((3, 4), 4)
        assert verify_positroidset(beta, gamma, 1)

    def test_projection_window_family_empty_case(self):
        assert verify_positroidset(KSubset((1, 2), 4), KSubset((1, 4), 4), 1)

    def test_bruteforce_on_intervals(self):
        for k, n in ((1, 3), (2, 4), (2, 5), (3, 5)):
            for beta, gamma in iter_comparable_pairs(k, n):
                assert is_positroid_bruteforce(interval(beta, gamma), k, n)

    def test_bruteforce_rejects_disconnected_family(self):
        fam = SubsetFamily([KSubset((1, 2), 4), KSubset((3, 4), 4)])
        assert not is_positroid_bruteforce(fam, 2, 4)

    def test_bruteforce_guard(self):
        fam = SubsetFamily(enumerate_subsets(2, 7))
        with pytest.raises(BudgetError):
            is_positroid_bruteforce(fam, 2, 7)

    def test_window_families_are_positroids(self):
        for k, n in ((2, 4), (2, 5), (3, 5)):
            for beta, gamma in iter_comparable_pairs(k, n):
                for t in range(1, k):
                    fam = p_set(beta, gamma, t)
                    if len(fam):
                        assert is_positroid_bruteforce(fam, k, n)
