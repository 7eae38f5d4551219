import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker import (
    QQ,
    DecompositionError,
    ExactMatrix,
    KSubset,
    ParameterError,
    ParseError,
    PluckerVector,
    PrimeField,
    ShapeError,
    YShape,
    enumerate_y,
    format_matrix,
    iter_comparable_pairs,
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
from plucker.matrices import _dense, _layout, _sampled_minors, integer_minors

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def rational_matrix(rng, k, n):
    return ExactMatrix([[QQ.random_element(rng) for _ in range(n)] for _ in range(k)], QQ)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


class TestExactMatrix:
    def test_construction_and_equality(self):
        m = ExactMatrix([[1, 2], [3, 4]], QQ)
        assert m[0, 1] == Fraction(2)
        assert m == ExactMatrix([[1, 2], [3, 4]], QQ)
        assert m != ExactMatrix([[1, 2], [3, 4]], F5)
        with pytest.raises(ParameterError):
            ExactMatrix([[1, 2], [3]], QQ)

    def test_multiplication(self):
        a = ExactMatrix([[1, 2], [3, 4]], QQ)
        b = ExactMatrix([[0, 1], [1, 0]], QQ)
        assert a * b == ExactMatrix([[2, 1], [4, 3]], QQ)

    def test_determinant(self):
        assert ExactMatrix([[2, 1], [4, 5]], QQ).det() == 6
        assert ExactMatrix([[1, 2], [2, 4]], QQ).det() == 0
        assert ExactMatrix([[0, 1], [1, 0]], F3).det() == F3(-1)

    def test_submatrix_columns(self):
        m = ExactMatrix([[1, 2, 3], [4, 5, 6]], QQ)
        assert m.submatrix_columns(KSubset((1, 3), 3)) == ExactMatrix([[1, 3], [4, 6]], QQ)


class TestMaximalMinors:
    def test_identity_block(self):
        m = ExactMatrix([[1, 0, 0], [0, 1, 0]], QQ)
        pv = maximal_minors(m)
        assert pv[KSubset((1, 2), 3)] == 1
        assert pv[KSubset((1, 3), 3)] == 0

    def test_two_by_four(self):
        a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        m = ExactMatrix([[1, 0, a, b], [0, 1, c, d]], QQ)
        assert maximal_minors(m)[KSubset((3, 4), 4)] == a * d - b * c

    def test_rank_deficient(self):
        for field in (QQ, F2, F3, PrimeField(7)):
            for rows in ([[1, 2, 3], [2, 4, 6]], [[1, 2, 3], [0, 0, 0]], [[0, 0], [0, 0]]):
                assert maximal_minors(ExactMatrix(rows, field)).is_zero()

    def test_minors_satisfy_relations(self):
        rng = random.Random(11)
        for k, n in ((2, 4), (2, 5), (3, 5)):
            assert verify_plucker_relations(maximal_minors(rational_matrix(rng, k, n)))

    def test_three_term_relation_on_minors(self):
        rng = random.Random(5)
        pv = maximal_minors(rational_matrix(rng, 2, 4))
        d = {s.elements: v for s, v in pv.items()}
        assert d[(1, 3)] * d[(2, 4)] - d[(1, 2)] * d[(3, 4)] - d[(1, 4)] * d[(2, 3)] == 0

    def test_plucker_vector_checks_its_length(self):
        assert PluckerVector(2, 4, QQ, [Fraction(0)] * 6).is_zero()
        for k, n, count in ((2, 4, 5), (2, 4, 7), (0, 4, 1), (5, 4, 0), (1, 0, 0)):
            with pytest.raises(ParameterError):
                PluckerVector(k, n, QQ, [Fraction(0)] * count)

    def test_perturbed_vector_fails_relations(self):
        # over GF(q), the three-term relation at the residues is a nonzero
        # multiple of q; adding 1 to Delta_{1,2} adds Delta_{3,4}, a unit
        cases = (
            (QQ, [[1, 0, 2, 3], [0, 1, 5, 7]]),
            (F5, [[1, 0, 2, 3], [0, 1, 0, 2]]),
            (F3, [[1, 0, 2, 2], [0, 1, 1, 2]]),
        )
        first, last = KSubset((1, 2), 4), KSubset((3, 4), 4)
        for field, rows in cases:
            pv = maximal_minors(ExactMatrix(rows, field))
            assert verify_plucker_relations(pv) and pv[last]
            bad = pv.with_value(first, pv[first] + 1)
            assert not verify_plucker_relations(bad), field

    def test_alternating_in_rows(self):
        rng = random.Random(23)
        m = rational_matrix(rng, 2, 4)
        swapped = ExactMatrix([m.rows[1], m.rows[0]], QQ)
        for s, v in maximal_minors(m).items():
            assert maximal_minors(swapped)[s] == -v

    def test_left_multiplication_scales_by_det(self):
        rng = random.Random(29)
        for _ in range(5):
            m = rational_matrix(rng, 2, 5)
            g = rational_matrix(rng, 2, 2)
            dg = g.det()
            gm = g * m
            for s, v in maximal_minors(m).items():
                assert maximal_minors(gm)[s] == dg * v


class TestMinorKernelOracle:
    """``maximal_minors`` and ``det`` against the Leibniz formula, subset by subset."""

    FIELDS = (QQ, F2, F3, PrimeField(7))

    @staticmethod
    def draw_matrix(data, field, k, n):
        if field is QQ:
            den = st.one_of(st.integers(1, 9), st.integers(10**9, 10**15))
            entry = st.builds(Fraction, st.integers(-(10**6), 10**6), den)
        else:
            entry = st.integers(-50, 50)
        rows = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
        shape = data.draw(st.sampled_from(["generic", "zero row", "rank deficient"]))
        if shape == "zero row":
            rows[data.draw(st.integers(0, k - 1))] = [0] * n
        elif shape == "rank deficient" and k > 1:
            # the last row becomes a combination of the others
            coeffs = data.draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
            rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        return ExactMatrix(rows, field)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_minors_and_det_match_leibniz(self, leibniz, data):
        field = data.draw(st.sampled_from(self.FIELDS))
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 6))
        m = self.draw_matrix(data, field, k, n)
        pv = maximal_minors(m)
        for cols, value in zip(itertools.combinations(range(n), k), pv.values):
            expected = leibniz(m.rows, cols)
            assert value == expected and type(value) is type(field.one)
            det = m.submatrix_columns([c + 1 for c in cols]).det()
            assert det == expected and type(det) is type(field.one)

    def test_large_denominators(self, leibniz):
        rows = [
            [Fraction(1, 10**20 + 7), Fraction(-3, 10**18), 5, Fraction(2, 3)],
            [Fraction(7, 11), Fraction(10**25, 10**25 + 1), Fraction(-1, 2**70), 1],
            [1, 0, Fraction(1, 997 * 991), Fraction(-5, 6)],
        ]
        m = ExactMatrix(rows, QQ)
        for cols, value in zip(itertools.combinations(range(4), 3), maximal_minors(m).values):
            assert value == leibniz(m.rows, cols)


class TestLDU:
    def test_identity(self):
        i3 = ExactMatrix.identity(3, QQ)
        assert ldu(i3) == (i3, i3, i3)

    def test_worked_example(self):
        s = ExactMatrix([[2, 1], [4, 5]], QQ)
        lower, diag, upper = ldu(s)
        assert lower == ExactMatrix([[1, 0], [2, 1]], QQ)
        assert diag == ExactMatrix([[2, 0], [0, 3]], QQ)
        assert upper == ExactMatrix([[1, Fraction(1, 2)], [0, 1]], QQ)
        assert lower * diag * upper == s

    def test_zero_leading_minor(self):
        with pytest.raises(DecompositionError) as err:
            ldu(ExactMatrix([[0, 1], [1, 0]], QQ))
        assert err.value.index == 1
        # the 2x2 leading minor vanishes, the 1x1 one does not
        for field in (QQ, F3):
            with pytest.raises(DecompositionError) as err:
                ldu(ExactMatrix([[1, 2, 0], [2, 4, 1], [0, 1, 1]], field))
            assert err.value.index == 2

    @settings(deadline=None, max_examples=40)
    @given(st.lists(small_fracs, min_size=9, max_size=9))
    def test_round_trip_random(self, entries):
        s = ExactMatrix([entries[0:3], entries[3:6], entries[6:9]], QQ)
        try:
            lower, diag, upper = ldu(s)
        except DecompositionError:
            return
        assert lower * diag * upper == s
        for i in range(3):
            assert lower[i, i] == 1 and upper[i, i] == 1
            assert diag[i, i] != 0
            for j in range(i + 1, 3):
                assert lower[i, j] == 0 and upper[j, i] == 0


FIG_BETA = KSubset((2, 5, 6, 10), 14)
FIG_GAMMA = KSubset((6, 8, 11, 12), 14)


class TestBandedShape:
    def test_shape_counts_banded_example(self):
        shape = YShape(FIG_BETA, FIG_GAMMA)
        assert shape.star_count == 10
        assert shape.unit_count == 4

    def test_y_shape_check_canonical(self):
        m = sample_y(FIG_BETA, FIG_GAMMA, QQ, seed=3)
        assert y_shape_check(m, FIG_BETA, FIG_GAMMA)

    def test_y_shape_check_skeleton_matrix(self):
        # all free entries zero, all invertible entries one
        shape = YShape(FIG_BETA, FIG_GAMMA)
        rows = [[Fraction(0)] * 14 for _ in range(4)]
        for i in range(1, 5):
            rows[i - 1][shape.pivot_column(i) - 1] = Fraction(1)
            rows[i - 1][shape.unit_column(i) - 1] = Fraction(1)
        assert y_shape_check(ExactMatrix(rows, QQ), FIG_BETA, FIG_GAMMA)

    def test_y_shape_check_violations(self):
        b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
        m = sample_y(b, g, QQ, seed=1)
        rows = [list(r) for r in m.rows]
        rows[0][0] = Fraction(0)  # kill the invertible entry
        assert not y_shape_check(ExactMatrix(rows, QQ), b, g)
        rows = [list(r) for r in m.rows]
        rows[1][0] = Fraction(1)  # nonzero left of the band
        assert not y_shape_check(ExactMatrix(rows, QQ), b, g)

    def test_equal_endpoints_forces_identity_columns(self):
        b = KSubset((1, 3), 4)
        m = sample_y(b, b, QQ, seed=0)
        assert m[0, 0] == 1 and m[1, 2] == 1
        assert y_shape_check(m, b, b)

    def test_sample_deterministic(self):
        b, g = KSubset((1, 3), 5), KSubset((3, 5), 5)
        assert sample_y(b, g, QQ, seed=9) == sample_y(b, g, QQ, seed=9)
        assert sample_y(b, g, F5, seed=9) == sample_y(b, g, F5, seed=9)

    def test_enumerate_y_count(self):
        for q, field in ((2, F2), (3, F3)):
            for b, g in iter_comparable_pairs(2, 4):
                shape = YShape(b, g)
                mats = list(enumerate_y(b, g, field))
                assert len(mats) == q**shape.star_count * (q - 1) ** shape.unit_count
                assert len(set(mats)) == len(mats)
                assert all(y_shape_check(m, b, g) for m in mats)

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
    def test_int_draw_is_exactly_the_scaled_minors_of_sample_y(self, k, n):
        # the same RNG calls in the same order, each pair reduced as Fraction reduces it;
        # column p holds the p-th minor of every draw, and beta == gamma draws nothing
        pairs = list(iter_comparable_pairs(k, n))
        assert any(b == g for b, g in pairs)
        for b, g in pairs:
            shape = YShape(b, g)
            for seed in range(3):
                rng, oracle = random.Random(seed), random.Random(seed)
                columns = _sampled_minors(_layout(shape), n, shape.unit_count, 4, rng)
                draws = [integer_minors(sample_y(b, g, QQ, oracle).rows, n)[0] for _ in range(4)]
                assert columns == [list(column) for column in zip(*draws)]
                assert rng.random() == oracle.random()

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (3, 6)])
    def test_dense_draw_is_exactly_the_scaled_minors_of_random_matrices(self, k, n):
        # Eq1's matrices: every entry drawn, row by row, none a pivot
        rng, oracle = random.Random(k * n), random.Random(k * n)
        columns = _sampled_minors(_dense(k, n), n, 0, 5, rng)
        draws = [
            integer_minors([[QQ.random_element(oracle) for _ in range(n)] for _ in range(k)], n)[0]
            for _ in range(5)
        ]
        assert columns == [list(column) for column in zip(*draws)]
        assert rng.random() == oracle.random()

    def test_over_gf2_units_forced(self):
        b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
        m = sample_y(b, g, F2, seed=5)
        assert m[0, 0] == F2(1) and m[1, 1] == F2(1)


class TestPhiPsi:
    def test_phi_requires_shape(self):
        b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
        with pytest.raises(ShapeError):
            phi(ExactMatrix([[1, 1, 1, 1], [1, 1, 1, 1]], QQ), b, g)

    def test_phi_fixes_echelon_input(self):
        b = KSubset((1, 3), 4)
        m = sample_y(b, b, QQ, seed=0)
        assert phi(m, b, b) == m

    def test_phi_preserves_minors(self):
        b, g = KSubset((1, 3), 6), KSubset((4, 6), 6)
        m = sample_y(b, g, QQ, seed=17)
        assert maximal_minors(phi(m, b, g)) == maximal_minors(m)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_phi_preserves_every_maximal_minor(self, data):
        # the gamma block of a banded matrix is lower unipotent, so det G = 1:
        # the minors of sample_y's matrix are the minors of its echelon form
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 7))
        beta, gamma = data.draw(st.sampled_from(list(iter_comparable_pairs(k, n))))
        field = data.draw(st.sampled_from([QQ, PrimeField(2), PrimeField(5), PrimeField(7)]))
        m = sample_y(beta, gamma, field, data.draw(st.integers(0, 2**32)))
        assert maximal_minors(phi(m, beta, gamma)) == maximal_minors(m)

    def test_banded_example_membership(self):
        m = sample_y(FIG_BETA, FIG_GAMMA, QQ, seed=23)
        n_mat = phi(m, FIG_BETA, FIG_GAMMA)
        assert w_membership(n_mat, FIG_BETA, FIG_GAMMA)
        assert psi(n_mat, FIG_BETA, FIG_GAMMA) == m

    def test_round_trip_exhaustive_24(self):
        for field in (F2, F3):
            for b, g in iter_comparable_pairs(2, 4):
                for m in enumerate_y(b, g, field):
                    n_mat = phi(m, b, g)
                    assert psi(n_mat, b, g) == m
                    assert phi(psi(n_mat, b, g), b, g) == n_mat

    def test_round_trip_random_f5(self):
        rng = random.Random(31)
        for k, n in ((2, 4), (3, 6)):
            pairs = list(iter_comparable_pairs(k, n))
            for _ in range(50):
                b, g = pairs[rng.randrange(len(pairs))]
                m = sample_y(b, g, F5, rng)
                n_mat = phi(m, b, g)
                assert w_membership(n_mat, b, g)
                assert psi(n_mat, b, g) == m

    def test_psi_rejects_bad_minors(self):
        # echelon matrices with a vanishing mixed minor: delta_1 = {1,4} for
        # beta={1,2}, gamma={3,4} needs the (1,1) entry of N_beta nonzero, and
        # delta_2 = beta needs det N_beta nonzero; the error names the size
        # of the vanishing leading minor of N_beta
        b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
        for field in (QQ, F2, F5):
            for rows, index in (
                ([[0, 0, 1, 0], [1, 1, 0, 1]], 1),
                ([[1, 1, 1, 0], [1, 1, 0, 1]], 2),
            ):
                with pytest.raises(DecompositionError) as err:
                    psi(ExactMatrix(rows, field), b, g)
                assert err.value.index == index
                assert str(err.value) == f"leading principal minor {index} is zero"

    def test_psi_checks_gamma_identity(self):
        b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
        n_mat = ExactMatrix([[1, 0, 2, 0], [0, 1, 0, 3]], QQ)
        with pytest.raises(ParameterError):
            psi(n_mat, b, g)

    def test_entry_vanishing_argument_observable(self):
        # for echelon members, entries left of the band pair with vanishing minors
        rng = random.Random(37)
        b, g = KSubset((2, 4), 6), KSubset((4, 6), 6)
        for _ in range(10):
            m = psi(phi(sample_y(b, g, QQ, rng), b, g), b, g)
            minors = maximal_minors(m)
            for i in range(1, 3):
                for j in range(1, b(i)):
                    if j in b:
                        continue
                    alpha = b.replace(b(i), j)
                    assert minors[alpha] == 0
                    assert m[i - 1, j - 1] == 0


class TestPhiCramerOracle:
    """``phi`` against Cramer's rule, entry by entry, on drawn banded matrices."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_phi_matches_cramer(self, cramer, data):
        field = data.draw(st.sampled_from([QQ, F2, F5, PrimeField(7)]))
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(k, 7))
        b, g = data.draw(st.sampled_from(list(iter_comparable_pairs(k, n))))
        if field is QQ:
            entry = st.fractions(min_value=-20, max_value=20, max_denominator=20)
        else:
            entry = st.integers(0, field.p - 1)
        shape = YShape(b, g)
        rows = [[0] * n for _ in range(k)]
        for i in range(1, k + 1):
            rows[i - 1][g(i) - 1] = 1
            if g(i) > b(i):
                rows[i - 1][b(i) - 1] = data.draw(entry.filter(bool))
            for j in shape.free_columns(i):
                rows[i - 1][j - 1] = data.draw(entry)
        m = ExactMatrix(rows, field)
        got = phi(m, b, g)
        assert [list(row) for row in got.rows] == cramer(m, g)
        assert all(type(x) is type(field.one) for row in got.rows for x in row)


class TestWMembership:
    def test_phi_image_is_member(self):
        rng = random.Random(41)
        for b, g in iter_comparable_pairs(2, 5):
            m = sample_y(b, g, QQ, rng)
            assert w_membership(phi(m, b, g), b, g)

    def test_gamma_identity_alone_is_not_enough(self):
        b, g = KSubset((1, 2), 4), KSubset((3, 4), 4)
        rows = [[0, 0, 1, 0], [0, 0, 0, 1]]
        assert not w_membership(ExactMatrix(rows, QQ), b, g)

    def test_minor_outside_interval_rejected(self):
        b, g = KSubset((1, 3), 4), KSubset((3, 4), 4)
        # {1,2} lies outside [beta, gamma]; make its minor nonzero
        rows = [[1, 1, 1, 0], [0, 1, 0, 1]]
        n_mat = ExactMatrix(rows, QQ)
        assert maximal_minors(n_mat)[KSubset((1, 2), 4)] != 0
        assert not w_membership(n_mat, b, g)


class TestSerialization:
    def test_rational_round_trip(self):
        m = ExactMatrix([[Fraction(1, 2), 0, -3], [4, Fraction(-5, 7), 1]], QQ)
        text = format_matrix(m)
        assert parse_matrix(text) == m
        assert format_matrix(parse_matrix(text)) == text

    def test_prime_field_round_trip(self):
        m = ExactMatrix([[1, 4, 0], [2, 3, 2]], F5)
        text = format_matrix(m)
        assert text.splitlines()[0] == "field gf 5"
        assert parse_matrix(text) == m

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_matrix("")
        with pytest.raises(ParseError) as err:
            parse_matrix("field rational\n1 2\n3")
        assert err.value.line == 3
        with pytest.raises(ParseError) as err:
            parse_matrix("field rational\n1 x\n")
        assert err.value.line == 2 and err.value.column == 2
        with pytest.raises(ParseError):
            parse_matrix("field gf 6\n1 2\n")
        with pytest.raises(ParseError) as err:
            parse_matrix("field rational\n\n# c\n1 2\n1 x\n")
        assert err.value.line == 5 and err.value.column == 2

    def test_field_line_takes_ascii_digits_only(self):
        # int() reads the first four as 5, so "field gf +5" would not round-trip
        for modulus in ("+5", "\u0665", "+\u0665", "0_5", "-5"):
            with pytest.raises(ParseError, match="bad field line") as err:
                parse_matrix(f"field gf {modulus}\n1 2\n")
            assert err.value.line == 1, modulus

    def test_entries_only_as_format_writes_them(self):
        # int() and Fraction() read "+1 1_0 ٣" as 1 0 3 and "0.5 1e1 2/4 1_0/3" as 1/2 10 1/2 10/3
        for head, row in (("field gf 5", "+1 1_0 ٣ 7 01"), ("field rational", "0.5 1e1 2/4 1_0/3 -0 3/1 1/0 +1")):
            for col, tok in enumerate(row.split(), start=1):
                with pytest.raises(ParseError) as err:
                    parse_matrix(f"{head}\n# entries\n{'1 ' * (col - 1)}{tok}\n")
                assert (err.value.line, err.value.column) == (3, col)
        assert format_matrix(parse_matrix("field rational\n-1/2 0 7 -3\n")) == "field rational\n-1/2 0 7 -3\n"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_format_parse_round_trip(self, data):
        field = data.draw(st.sampled_from([QQ, F2, F5, PrimeField(2**31 - 1)]))
        if field is QQ:
            entry = st.fractions(max_denominator=10**12)
        else:
            entry = st.integers(-(2**40), 2**40)
        n = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
        m = ExactMatrix(rows, field)
        assert parse_matrix(format_matrix(m)) == m

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_garbage_raises_only_parse_error(self, data):
        head = data.draw(st.sampled_from(["field rational", "field gf 5", "field", ""]))
        body = data.draw(st.text(alphabet=" -/0123456789#x\n", max_size=30))
        text = data.draw(st.one_of(st.just(head + "\n" + body), st.text()))
        try:
            parse_matrix(text)
        except ParseError:
            pass
