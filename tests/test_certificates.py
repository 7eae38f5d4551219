import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plucker.certificates as certs
from plucker import (
    QQ,
    Certificate,
    EvaluationError,
    ExactMatrix,
    KSubset,
    LaurentExpression,
    ParameterError,
    ParseError,
    PluckerSymbol,
    PrecedesT,
    PrimeField,
    delta,
    evaluate,
    format_certificate,
    iter_comparable_pairs,
    maximal_minors,
    open_richardson_points,
    p_set_complement,
    parse_certificate,
    phi,
    plucker_relation,
    precedes_t,
    principal_certificate,
    relation_table,
    sample_y,
    unit_certificate,
    verify_certificate,
)


def ks(elems, n):
    return KSubset(elems, n)


def sym(elems, n, power=1):
    return PluckerSymbol(ks(elems, n), power)


def rational_minors(rng, k, n):
    m = ExactMatrix([[QQ.random_element(rng) for _ in range(n)] for _ in range(k)], QQ)
    return maximal_minors(m)


def rational_w_points(beta, gamma, count, seed):
    rng = random.Random(seed)
    return [
        maximal_minors(phi(sample_y(beta, gamma, QQ, rng), beta, gamma))
        for _ in range(count)
    ]


def field_points(beta, gamma, q):
    return [p.plucker for p in open_richardson_points(beta, gamma, q)]


class TestLaurentExpression:
    def test_canonicalization(self):
        a = sym((1, 2), 4)
        e = LaurentExpression([(Fraction(1), (a,)), (Fraction(2), (a,))])
        assert e == LaurentExpression.term(3, (sym((1, 2), 4),))
        zero = LaurentExpression.term(1, (a,)) - LaurentExpression.term(1, (a,))
        assert zero.is_zero()

    def test_power_merging(self):
        e = LaurentExpression.term(1, (sym((1, 2), 4, 1), sym((1, 2), 4, -1)))
        assert e == LaurentExpression.one()

    def test_zero_power_rejected(self):
        with pytest.raises(ParameterError):
            PluckerSymbol(ks((1, 2), 4), 0)

    def test_localization_guard(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        good = LaurentExpression.term(1, (sym((1, 2), 4, -1), sym((1, 3), 4)))
        good.validate_localized(b, g)
        bad = LaurentExpression.term(1, (sym((1, 3), 4, -1),))
        with pytest.raises(ParameterError):
            bad.validate_localized(b, g)


class TestEvaluate:
    def test_constant(self):
        pv = rational_minors(random.Random(0), 2, 4)
        assert evaluate(LaurentExpression.one(), pv) == 1

    def test_unit_pair(self):
        pv = rational_minors(random.Random(1), 2, 4)
        b = ks((1, 2), 4)
        if pv[b]:
            e = LaurentExpression.term(1, (sym((1, 2), 4), sym((1, 2), 4, -1)))
            assert evaluate(e, pv) == 1

    def test_inverted_zero_raises(self):
        m = ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0]], QQ)
        pv = maximal_minors(m)
        e = LaurentExpression.symbol(ks((3, 4), 4), -1)
        with pytest.raises(EvaluationError):
            evaluate(e, pv)

    def test_fraction_coefficients_in_prime_field(self):
        f5 = PrimeField(5)
        m = ExactMatrix([[1, 0, 1, 2], [0, 1, 3, 4]], f5)
        pv = maximal_minors(m)
        e = LaurentExpression.term(Fraction(1, 2), (sym((1, 2), 4),))
        assert evaluate(e, pv) == f5(3)  # 1/2 = 3 mod 5


class TestPluckerRelation:
    def test_three_term_structure(self):
        rel = plucker_relation(ks((1, 3), 4), ks((2, 4), 4), 2)
        monos = {
            frozenset((s.index.elements) for s in mono): c for c, mono in rel.terms
        }
        key = frozenset({(1, 3), (2, 4)})
        assert len(rel.terms) == 3 and key in monos
        # the quadratic pairs are the classical three
        assert set(monos) == {
            key,
            frozenset({(1, 2), (3, 4)}),
            frozenset({(1, 4), (2, 3)}),
        }

    def test_two_term_relation_collapses_with_positive_sign(self):
        # alpha minus beta a single element forces alpha' = beta and
        # beta' = alpha, so the relation is 0 iff the sign is +1
        alpha, beta = ks((1, 2), 4), ks((1, 4), 4)
        terms = certs._exchange_terms(alpha, beta, 4)
        assert terms == [(1, beta, alpha)]
        assert plucker_relation(alpha, beta, 4).is_zero()

    def test_precondition_rejected(self):
        with pytest.raises(ParameterError):
            plucker_relation(ks((1, 3), 4), ks((2, 4), 4), 3)  # 3 in alpha
        with pytest.raises(ParameterError):
            plucker_relation(ks((1, 3), 4), ks((2, 4), 4), 1)  # 1 not in beta

    def test_vanishes_on_minors(self):
        rng = random.Random(13)
        for k, n in ((2, 4), (3, 5)):
            points = [rational_minors(rng, k, n) for _ in range(10)]
            for rel in relation_table(k, n):
                for pv in points:
                    assert evaluate(rel, pv) == 0

    def test_gate_fails_closed(self, monkeypatch):
        certs._relations_validated.cache_clear()
        monkeypatch.setattr(certs, "_sort_sign", lambda seq: 1)
        with pytest.raises(RuntimeError):
            certs._relations_validated(2, 4)
        monkeypatch.undo()
        certs._relations_validated.cache_clear()
        assert len(certs._relations_validated(2, 4)) > 0


class TestPrecedesT:
    def test_pivot_is_minimum(self):
        for b, g in iter_comparable_pairs(2, 5):
            order = PrecedesT(b, g, 1)
            d = delta(b, g, 1)
            for a in order.family():
                assert order.leq(d, a)
                assert order.leq(a, a)

    def test_antisymmetry(self):
        b, g = ks((1, 2, 3), 6), ks((2, 5, 6), 6)
        order = PrecedesT(b, g, 1)
        fam = list(order.family())
        assert len(fam) == 6
        for a in fam:
            for c in fam:
                if order.leq(a, c) and order.leq(c, a):
                    assert a == c

    def test_membership_required(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        with pytest.raises(ParameterError):
            precedes_t(ks((1, 2), 4), ks((1, 4), 4), (b, g, 1))


class TestPrincipalCertificate:
    def test_base_case(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        cert = principal_certificate(b, g, 1, delta(b, g, 1))
        assert cert.cofactor == LaurentExpression.one()
        assert cert.pivot == ks((1, 4), 4)

    def test_singleton_family_is_trivial(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        assert p_set_complement(b, g, 1).members == {ks((1, 4), 4)}

    def test_frozen_small_cofactor(self):
        # worked by hand: on the locus, d(13)*d(24) = d(14)*d(23)
        b, g = ks((1, 2), 4), ks((2, 4), 4)
        cert = principal_certificate(b, g, 1, ks((1, 3), 4))
        want = LaurentExpression.term(1, (sym((2, 3), 4), sym((2, 4), 4, -1)))
        assert cert.cofactor == want

    def test_domain_error(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        with pytest.raises(ParameterError):
            principal_certificate(b, g, 1, ks((2, 3), 4))  # meets the window

    def test_memoized(self):
        b, g = ks((1, 2, 3), 6), ks((2, 5, 6), 6)
        c1 = principal_certificate(b, g, 1, ks((1, 3, 5), 6))
        c2 = principal_certificate(b, g, 1, ks((1, 3, 5), 6))
        assert c1.cofactor is c2.cofactor

    def test_rich_context_verifies_everywhere(self):
        b, g = ks((1, 2, 3), 6), ks((2, 5, 6), 6)
        points = field_points(b, g, 2) + field_points(b, g, 3)
        points += rational_w_points(b, g, 30, seed=101)
        complement = p_set_complement(b, g, 1)
        assert len(complement) == 6
        for alpha in complement:
            cert = principal_certificate(b, g, 1, alpha)
            cert.cofactor.validate_localized(b, g)
            assert verify_certificate(cert, points)

    def test_corrupted_cofactor_detected(self):
        b, g = ks((1, 2), 4), ks((2, 4), 4)
        cert = principal_certificate(b, g, 1, ks((1, 3), 4))
        bad = Certificate(
            target=cert.target,
            pivot=cert.pivot,
            cofactor=-cert.cofactor,
            beta=b,
            gamma=g,
            t=1,
        )
        points = field_points(b, g, 3)
        assert verify_certificate(cert, points)
        assert not verify_certificate(bad, points)


class TestUnitCertificate:
    def test_equal_endpoints(self):
        b = ks((1, 3), 4)
        cert = unit_certificate(b, b, 1)
        assert cert.pivot == b and cert.cofactor == LaurentExpression.one()

    def test_gamma_pivot_case(self):
        b, g = ks((1, 2), 4), ks((1, 4), 4)
        cert = unit_certificate(b, g, 1)
        assert cert.pivot == g
        points = field_points(b, g, 3)
        assert points and verify_certificate(cert, points)

    def test_interior_pivot_case(self):
        b, g = ks((1, 4), 5), ks((2, 5), 5)
        cert = unit_certificate(b, g, 1)
        assert cert.pivot == ks((1, 5), 5)
        assert cert.pivot_inverse is not None
        for q in (2, 3):
            for point in field_points(b, g, q):
                assert point[cert.pivot]  # unit: vanishes nowhere
                assert point[cert.pivot] * evaluate(cert.pivot_inverse, point) == point.field.one
        assert verify_certificate(cert, rational_w_points(b, g, 20, seed=7))

    def test_nonempty_window_rejected(self):
        with pytest.raises(ParameterError):
            unit_certificate(ks((1, 2), 4), ks((3, 4), 4), 1)


class TestSerialization:
    def round_trip(self, cert):
        text = format_certificate(cert)
        back = parse_certificate(text)
        assert back == cert
        assert format_certificate(back) == text

    def test_trivial(self):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        self.round_trip(principal_certificate(b, g, 1, delta(b, g, 1)))

    def test_with_inverse_section(self):
        self.round_trip(unit_certificate(ks((1, 4), 5), ks((2, 5), 5), 1))

    def test_rich(self):
        b, g = ks((1, 2, 3), 6), ks((2, 5, 6), 6)
        for alpha in p_set_complement(b, g, 1):
            self.round_trip(principal_certificate(b, g, 1, alpha))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_certificate("not a certificate\n")
        good = format_certificate(
            principal_certificate(ks((1, 2), 4), ks((2, 4), 4), 1, ks((1, 3), 4))
        )
        with pytest.raises(ParseError):
            parse_certificate(good + "1 {1,2}\n")  # trailing content
        with pytest.raises(ParseError):
            parse_certificate(good.replace("cofactor 1", "cofactor 2"))
        unit = format_certificate(unit_certificate(ks((1, 4), 5), ks((2, 5), 5), 1))
        # (text, physical line of the fault): non-integer numbers, a k line
        # that disagrees with beta, a pivot that is not delta(beta, gamma, t)
        cases = [
            (good.replace("n 4", "n four"), 2),
            (good.replace("k 2", "k 2.0"), 3),
            (good.replace("t 1", "t x"), 6),
            (good.replace("cofactor 1", "cofactor one"), 9),
            (unit.replace("pivot-inverse 1", "pivot-inverse 1/1"), 11),
            (good.replace("k 2", "k 3"), 4),
            (good.replace("pivot {1,4}", "pivot {2,4}"), 8),
            (good.replace("\nt 1", "\n\n\nt -1"), 8),
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                parse_certificate(text)
            assert err.value.line == line, (text, err.value)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_garbage_raises_only_parse_error(self, data):
        lines = format_certificate(unit_certificate(ks((1, 4), 5), ks((2, 5), 5), 1)).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        keep = lines[i].split(" ")[0] if data.draw(st.booleans()) else ""
        lines[i] = keep + data.draw(st.text(alphabet=" {},^-/0123456789", max_size=12))
        text = data.draw(st.one_of(st.just("\n".join(lines)), st.text()))
        try:
            parse_certificate(text)
        except ParseError:
            pass


def test_relations_on_projective_line_are_trivial():
    # k=1: every exchange swaps the whole pair, so the table is all zeros
    table = relation_table(1, 3)
    assert table and all(rel.is_zero() for rel in table)
    pv = maximal_minors(ExactMatrix([[1, 2, 3]], QQ))
    assert all(evaluate(rel, pv) == 0 for rel in table)
