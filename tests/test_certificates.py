import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plucker.certificates as certs
import plucker.matrices as matrices
import plucker.subsets as subsets
from plucker.certificates import compiled_relations, holds
from plucker.matrices import integer_minors
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
    PluckerVector,
    delta,
    enumerate_grassmannian,
    enumerate_subsets,
    evaluate,
    format_certificate,
    iter_comparable_pairs,
    maximal_minors,
    open_richardson_points,
    p_set,
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
    verify_pivot_inverse,
)


def columns(*vectors):
    """The int ``vectors`` as ``holds`` reads them: column i holds the i-th coordinate of each."""
    return list(zip(*vectors))


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
        e = LaurentExpression([(1, (a,)), (2, (a,))])
        assert e == LaurentExpression.term(3, (sym((1, 2), 4),))
        zero = LaurentExpression.term(1, (a,)) - LaurentExpression.term(1, (a,))
        assert zero.is_zero()

    def test_power_merging(self):
        e = LaurentExpression.term(1, (sym((1, 2), 4, 1), sym((1, 2), 4, -1)))
        assert e == LaurentExpression.one()

    def test_non_integer_coefficient_rejected(self):
        # a coefficient like 1/2 certifies nothing over GF(2) or over Z
        a = sym((1, 2), 4)
        with pytest.raises(ParameterError, match="not an integer"):
            LaurentExpression([(Fraction(1, 2), (a,))])
        with pytest.raises(ParameterError, match="not an integer"):
            LaurentExpression.term(1, (a,)).times_term(Fraction(1, 2), ())

    def test_zero_power_rejected(self):
        with pytest.raises(ParameterError):
            PluckerSymbol(ks((1, 2), 4), 0)

    def test_power_is_an_integer(self):
        # int() would store 0.5 as 0, a power the constructor refuses, and 1.5 as 1
        for power in (0.5, 1.5, Fraction(2), "2"):
            with pytest.raises(ParameterError, match="not an integer"):
                PluckerSymbol(ks((1, 2), 4), power)

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
        terms = certs._exchange_terms(alpha.elements, beta.elements, 4)
        assert terms == [(1, beta.elements, alpha.elements)]
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
        # every cached holder of a sign is cleared, so the broken rule is seen
        caches = (certs._checked_exchange, certs._cofactor, certs.relation_table)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(certs, "_sort_sign", lambda seq: 1)
        try:
            with pytest.raises(RuntimeError, match="sign convention"):
                relation_table(2, 4)
            with pytest.raises(RuntimeError, match="sign convention"):
                plucker_relation(ks((1, 2), 4), ks((3, 4), 4), 3)
            # this certificate's own recursion uses a broken exchange
            beta, gamma = ks((1, 2, 5), 5), ks((3, 4, 5), 5)
            with pytest.raises(RuntimeError, match="sign convention"):
                principal_certificate(beta, gamma, 2, ks((3, 4, 5), 5))
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
        assert len(relation_table(2, 4)) > 0

    def test_an_exchange_term_not_strictly_below_stops_the_recursion(self, monkeypatch):
        # a pair of cancelling terms leaves each relation, and so the gate, as it was,
        # but hands the recursion alpha itself, which is not strictly below alpha
        exchange_terms = certs._exchange_terms

        def padded(alpha, other, b):
            return exchange_terms(alpha, other, b) + [(1, alpha, other), (-1, alpha, other)]

        caches = (certs._checked_exchange, certs._cofactor)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(certs, "_exchange_terms", padded)
        try:
            with pytest.raises(RuntimeError, match=r"exchange produced (\{[0-9,]+\}), not strictly below \1"):
                principal_certificate(ks((1, 2, 5), 6), ks((3, 4, 6), 6), 2, ks((3, 4, 5), 6))
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()

    def test_certificate_checks_only_the_exchanges_it_uses(self, monkeypatch):
        # the S(3,6) certificate whose recursion uses the most exchanges
        used = []
        exchange_terms = certs._exchange_terms

        def recording(alpha, other, b):
            used.append((alpha, other, b))
            return exchange_terms(alpha, other, b)

        certs._checked_exchange.cache_clear()
        certs._cofactor.cache_clear()
        monkeypatch.setattr(certs, "_exchange_terms", recording)
        try:
            principal_certificate(ks((1, 2, 5), 6), ks((3, 4, 6), 6), 2, ks((3, 4, 5), 6))
            assert 0 < certs._checked_exchange.cache_info().currsize == len(used) <= 4
        finally:
            monkeypatch.undo()
            certs._checked_exchange.cache_clear()
            certs._cofactor.cache_clear()
        table = relation_table(3, 6)
        assert len(table) == 600
        assert all(plucker_relation(ks(a, 6), ks(o, 6), b) in table for a, o, b in used)


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

    @pytest.mark.parametrize("alpha", [ks((1, 2, 3), 4), ks((1, 4), 5)], ids=["k", "n"])
    def test_target_of_another_grassmannian_named(self, alpha):
        b, g = ks((1, 2), 4), ks((3, 4), 4)
        with pytest.raises(ParameterError, match=re.escape(f"{alpha} has (k, n) = {alpha.k, alpha.n}")):
            principal_certificate(b, g, 1, alpha)

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
        # that disagrees with beta, a pivot that is not delta(beta, gamma, t),
        # and beta not below gamma
        incomparable = good.replace("beta {1,2}", "beta {2,4}").replace("gamma {2,4}", "gamma {1,2}")
        cases = [
            (good.replace("n 4", "n four"), 2),
            (good.replace("k 2", "k 2.0"), 3),
            (good.replace("t 1", "t x"), 6),
            (good.replace("cofactor 1", "cofactor one"), 9),
            (unit.replace("pivot-inverse 1", "pivot-inverse 1/1"), 11),
            (good.replace("k 2", "k 3"), 4),
            (good.replace("pivot {1,4}", "pivot {2,4}"), 8),
            (good.replace("\nt 1", "\n\n\nt -1"), 8),
            (incomparable, 6),
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                parse_certificate(text)
            assert err.value.line == line, (text, err.value)

    @pytest.mark.parametrize("t", [0, 2])
    def test_cut_outside_1_to_k_minus_1_rejected(self, t):
        # delta(beta, gamma, t) is gamma at t = 0 and beta at t = k, so each
        # pivot line agrees with delta; the t line itself must be refused
        b, g = ks((1, 2), 4), ks((2, 4), 4)
        good = format_certificate(principal_certificate(b, g, 1, ks((1, 3), 4)))
        text = good.replace("t 1", f"t {t}").replace("pivot {1,4}", f"pivot {delta(b, g, t)}")
        with pytest.raises(ParseError, match=rf"t={t} out of range 1\.\.1") as err:
            parse_certificate(text)
        assert err.value.line == 6

    def test_non_integer_coefficient_rejected(self):
        good = format_certificate(
            principal_certificate(ks((1, 2), 4), ks((2, 4), 4), 1, ks((1, 3), 4))
        )
        assert "\n1 {2,3} {2,4}^-1\n" in good  # line 10, the only cofactor term
        for coeff in ("1/2", "0.5", "1e3"):
            text = good.replace("\n1 {2,3} {2,4}^-1\n", f"\n{coeff} {{2,3}} {{2,4}}^-1\n")
            with pytest.raises(ParseError, match=re.escape(repr(coeff))) as err:
                parse_certificate(text)
            assert (err.value.line, err.value.column) == (10, 1)

    def test_numbers_are_ascii_digits(self):
        # int() and str.isdecimal() accept these spellings, which would not
        # survive a round trip through format_certificate
        good = format_certificate(
            principal_certificate(ks((1, 2), 4), ks((2, 4), 4), 1, ks((1, 3), 4))
        )
        for coeff in ("+1", "1_0", "\u0663"):
            text = good.replace("\n1 {2,3} {2,4}^-1\n", f"\n{coeff} {{2,3}} {{2,4}}^-1\n")
            with pytest.raises(ParseError, match=re.escape(repr(coeff))) as err:
                parse_certificate(text)
            assert (err.value.line, err.value.column) == (10, 1)
        b, g = ks((1, 2, 3), 6), ks((2, 5, 6), 6)
        wide = format_certificate(principal_certificate(b, g, 1, next(iter(p_set_complement(b, g, 1)))))
        cases = [
            (wide.replace("n 6", "n \u0666"), 2),
            (good.replace("k 2", "k +2"), 3),
            (good.replace("t 1", "t \u0661"), 6),
            (good.replace("cofactor 1", "cofactor 1_0"), 9),
        ]
        for text, line in cases:
            with pytest.raises(ParseError, match="is not a nonnegative integer") as err:
                parse_certificate(text)
            assert err.value.line == line, (text, err.value)

    def test_subsets_are_written_canonically(self):
        # parse_subset accepts the spellings of the first list, which
        # format_certificate would write differently, and refuses those of the second
        good = format_certificate(
            principal_certificate(ks((1, 2), 4), ks((2, 4), 4), 1, ks((1, 3), 4))
        )
        headers = [
            ("beta {1,2}", "beta 1,2", 4),
            ("beta {1,2}", "beta  {1,2}", 4),
            ("target {1,3}", "target {3,1}", 7),
        ]
        for old, new, line in headers:
            with pytest.raises(ParseError, match="is not written as") as err:
                parse_certificate(good.replace(old, new))
            assert (err.value.line, err.value.column) == (line, None), new
        for new in ("beta {+1,2}", "beta {1,\u0662}"):
            with pytest.raises(ParseError, match="is not a nonnegative integer") as err:
                parse_certificate(good.replace("beta {1,2}", new))
            assert (err.value.line, err.value.column) == (4, None), new
        for term, column in (("1 {3,2} {2,4}^-1", 2), ("1 {2,3} {02,4}^-1", 3)):
            with pytest.raises(ParseError, match="is not written as") as err:
                parse_certificate(good.replace("\n1 {2,3} {2,4}^-1\n", f"\n{term}\n"))
            assert (err.value.line, err.value.column) == (10, column), term

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_certificates_round_trip(self, data):
        k, n = data.draw(st.sampled_from([(2, 4), (3, 5)]))
        beta, gamma = data.draw(st.sampled_from(list(iter_comparable_pairs(k, n))))
        t = data.draw(st.integers(1, k - 1))
        targets = list(p_set_complement(beta, gamma, t))
        if len(p_set(beta, gamma, t)):
            cert = principal_certificate(beta, gamma, t, data.draw(st.sampled_from(targets)))
        else:
            cert = unit_certificate(beta, gamma, t)
        assert parse_certificate(format_certificate(cert)) == cert

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


def certificates_of(k, n):
    """Every principal and unit certificate of S(k, n)."""
    for beta, gamma in iter_comparable_pairs(k, n):
        for t in range(1, k):
            for alpha in p_set_complement(beta, gamma, t):
                yield principal_certificate(beta, gamma, t, alpha)
            if not len(p_set(beta, gamma, t)):
                yield unit_certificate(beta, gamma, t)


def probe_points(beta, gamma, rng):
    """Points with Delta_beta and Delta_gamma nonzero, at GF(2), GF(3) and over
    QQ: some of the open stratum, where every certificate holds, and others
    drawn from the whole Grassmannian, where most do not."""
    k, n = beta.k, beta.n
    points = []
    for q in (2, 3):
        points += field_points(beta, gamma, q)[:3]
        grassmannian = enumerate_grassmannian(k, n, q)
        drawn = [grassmannian[rng.randrange(len(grassmannian))].plucker for _ in range(40)]
        points += [p for p in drawn if p[beta] and p[gamma]][:4]
    points += rational_w_points(beta, gamma, 2, seed=rng.randrange(10**6))
    drawn = [rational_minors(rng, k, n) for _ in range(3)]
    return points + [p for p in drawn if p[beta] and p[gamma]]


GRASSMANNIANS = ((2, 4), (2, 5), (3, 5), (3, 6))


class TestCompiledIdentity:
    """``verify_certificate`` evaluates one compiled int identity; the reference
    is ``evaluate`` on field elements (``oracle`` in conftest.py)."""

    @pytest.mark.parametrize("k,n", GRASSMANNIANS)
    def test_agrees_with_the_oracle_point_by_point(self, k, n, oracle, inverse_oracle):
        rng = random.Random(f"compiled:{k}:{n}")
        verdicts = {True: 0, False: 0}
        units = 0
        pair = points = None
        for cert in certificates_of(k, n):
            if (cert.beta, cert.gamma) != pair:
                pair = (cert.beta, cert.gamma)
                points = probe_points(*pair, rng)
            for point in points:
                got = verify_certificate(cert, [point])
                assert got == oracle(cert, [point]), (cert, point)
                verdicts[got] += 1
                if cert.pivot_inverse is not None:
                    got = verify_pivot_inverse(cert, [point])
                    assert got == inverse_oracle(cert, [point]), (cert, point)
                    units += 1
            assert verify_certificate(cert, points) == oracle(cert, points)
        assert verdicts[True] and verdicts[False] and units

    @staticmethod
    def flip_sign(identity):
        inverted, terms = identity
        c, mono = terms[1]
        return inverted, (terms[0], (-c, mono)) + terms[2:]

    @staticmethod
    def drop_inverse(slot):
        def mutate(identity):
            inverted, terms = identity
            c, mono = terms[0]
            lowered = tuple((i, e - (i == slot)) for i, e in mono)
            return inverted, ((c, tuple(m for m in lowered if m[1])),) + terms[1:]

        return mutate

    @pytest.mark.parametrize("k,n", GRASSMANNIANS)
    def test_mutations_fail(self, k, n, monkeypatch):
        compile_ = certs._compile
        mutation = []
        monkeypatch.setattr(certs, "_compile", lambda *args: mutation[0](compile_(*args)))
        pair = points = None
        mutants = certificates = 0
        for cert in certificates_of(k, n):
            certificates += 1
            if (cert.beta, cert.gamma) != pair:
                pair = (cert.beta, cert.gamma)
                points = field_points(*pair, 3) + rational_w_points(*pair, 3, seed=11)
            identity = compile_(cert, cert.target, cert.cofactor)
            mutations = [self.flip_sign] + [self.drop_inverse(slot) for slot in identity[0]]
            for mutate in mutations:
                mutation[:] = [mutate]
                assert not verify_certificate(cert, points), (cert, mutate)
                mutants += 1
        assert mutants > certificates

    def test_parsed_monomial_of_nonzero_degree_raises(self):
        cert = principal_certificate(ks((1, 2), 4), ks((2, 4), 4), 1, ks((1, 3), 4))
        text = format_certificate(cert)
        assert "\n1 {2,3} {2,4}^-1\n" in text
        bad = parse_certificate(text.replace("\n1 {2,3} {2,4}^-1\n", "\n1 {2,3}\n"))
        with pytest.raises(ParameterError, match="degree 1, not 0"):
            verify_certificate(bad, field_points(cert.beta, cert.gamma, 3))
        unit = unit_certificate(ks((1, 4), 5), ks((2, 5), 5), 1)
        wrong = Certificate(unit.target, unit.pivot, unit.cofactor, unit.beta, unit.gamma, 1,
                            pivot_inverse=unit.cofactor)
        with pytest.raises(ParameterError, match="not -1"):
            verify_pivot_inverse(wrong, [])

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
    def test_vanishing_inverted_coordinate_raises(self, field, oracle):
        beta, gamma = ks((1, 3), 4), ks((2, 4), 4)
        cert = principal_certificate(beta, gamma, 1, ks((2, 3), 4))
        assert cert.cofactor.negative_power_indices() == {beta, gamma}
        for zero, unit in ((beta, gamma), (gamma, beta)):
            # identity columns at ``unit``, zero elsewhere: Delta_unit = 1, Delta_zero = 0
            rows = [[int(j == c) for j in range(1, 5)] for c in unit]
            point = maximal_minors(ExactMatrix(rows, field))
            assert point[unit] and not point[zero]
            for check in (verify_certificate, oracle):
                with pytest.raises(EvaluationError, match=re.escape(str(zero))):
                    check(cert, [point])

    def test_points_are_read_in_order_up_to_the_first_failure(self, oracle):
        beta, gamma = ks((1, 3), 4), ks((2, 4), 4)
        cert = principal_certificate(beta, gamma, 1, ks((2, 3), 4))
        good = field_points(beta, gamma, 3)[0]  # another characteristic first
        grassmannian = [p.plucker for p in enumerate_grassmannian(2, 4, 5)]
        failing = next(p for p in grassmannian if p[beta] and p[gamma] and not oracle(cert, [p]))
        vanishing = next(p for p in grassmannian if p[gamma] and not p[beta])
        for check in (verify_certificate, oracle):
            assert check(cert, [good, failing, vanishing]) is False
            with pytest.raises(EvaluationError):
                check(cert, [good, vanishing, failing])

    def test_point_of_another_grassmannian_rejected(self):
        cert = principal_certificate(ks((1, 2), 4), ks((2, 4), 4), 1, ks((1, 3), 4))
        with pytest.raises(ParameterError):
            verify_certificate(cert, [rational_minors(random.Random(3), 2, 5)])


class TestIntegerRelations:
    @pytest.mark.parametrize("k,n,empty", [(1, 3, 6), (2, 4, 24), (3, 6, 180)])
    def test_triples_are_the_relations_empty_ones_included(self, k, n, empty, value_oracle):
        table, compiled = relation_table(k, n), compiled_relations(k, n)
        assert len(table) == len(compiled)
        assert sum(rel.is_zero() for rel in table) == empty
        # any int vector, Plucker or not: the compiled terms are the relation polynomial
        rng = random.Random(k * 100 + n)
        x = [rng.randint(-9, 9) for _ in range(len(enumerate_subsets(k, n)))]
        point = PluckerVector(k, n, QQ, x)
        for rel, terms in zip(table, compiled):
            assert len(terms) == len(rel.terms)
            assert value_oracle(terms, x) == evaluate(rel, point)

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 7) for k in range(1, min(n, 3) + 1)])
    def test_positional_relations_are_the_compiled_table(self, k, n):
        # built on element tuples and positions, as multisets of terms
        pos = subsets._subset_positions(k, n)
        table, compiled = relation_table(k, n), compiled_relations(k, n)
        assert len(table) == len(compiled)
        for rel, terms in zip(table, compiled):
            assert Counter(certs._clear(certs._positional(rel.terms, pos))[1]) == Counter(terms)

    def test_gate_checks_the_relation_it_hands_out(self, monkeypatch):
        # a canonicalisation that loses a term must stop the build
        class DropsATerm(LaurentExpression):
            __slots__ = ()

            def __init__(self, terms):
                super().__init__(list(terms)[:-1])

        caches = (certs._checked_exchange, certs._cofactor, certs.relation_table)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(certs, "LaurentExpression", DropsATerm)
        try:
            with pytest.raises(RuntimeError, match="failed validation"):
                relation_table(2, 4)
            with pytest.raises(RuntimeError, match="failed validation"):
                plucker_relation(ks((1, 2), 4), ks((3, 4), 4), 3)
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
        assert len(relation_table(2, 4)) > 0


class TestExactGate:
    """The gate checks each relation as a polynomial on the identity chart."""

    @staticmethod
    def substitute(minor, values):
        """A ``_chart_minors`` entry (int or polynomial) at the variable values."""
        if isinstance(minor, int):
            return minor
        total = 0
        for mono, c in minor.items():
            for var in mono:
                c *= values[var]
            total += c
        return total

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (4, 7)])
    def test_chart_minors_agree_with_the_numeric_chart(self, k, n, leibniz):
        rng = random.Random(f"chart:{k}:{n}")
        for _ in range(3):
            values = {(r, c): rng.randint(-9, 9) for r in range(k) for c in range(n - k)}
            rows = [[int(j == r) for j in range(k)] + [values[r, c] for c in range(n - k)]
                    for r in range(k)]
            got = [self.substitute(m, values) for m in certs._chart_minors(k, n)]
            assert got == certs._minors(rows, n)
            assert got == [leibniz(rows, [j - 1 for j in s]) for s in enumerate_subsets(k, n)]

    def test_one_flipped_sign_stops_the_build(self, monkeypatch):
        # an exchange the recursion of this S(3,6) certificate uses
        beta, gamma, alpha = ks((1, 2, 5), 6), ks((3, 4, 6), 6), ks((3, 4, 5), 6)
        used = []
        exchange_terms = certs._exchange_terms

        def recording(*key):
            used.append(key)
            return exchange_terms(*key)

        def flipping(*key):
            terms = exchange_terms(*key)
            if key == flipped:
                sign, a, o = terms[0]
                terms[0] = (-sign, a, o)
            return terms

        caches = (certs._checked_exchange, certs._cofactor, certs.relation_table)
        try:
            for cache in caches:
                cache.cache_clear()
            monkeypatch.setattr(certs, "_exchange_terms", recording)
            principal_certificate(beta, gamma, 2, alpha)
            flipped = next(key for key in used if exchange_terms(*key))
            monkeypatch.setattr(certs, "_exchange_terms", flipping)
            for cache in caches:
                cache.cache_clear()
            with pytest.raises(RuntimeError, match="sign convention"):
                relation_table(3, 6)
            for cache in caches:
                cache.cache_clear()
            with pytest.raises(RuntimeError, match="sign convention"):
                compiled_relations(3, 6)
            for cache in caches:
                cache.cache_clear()
            with pytest.raises(RuntimeError, match="sign convention"):
                principal_certificate(beta, gamma, 2, alpha)
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
        assert len(relation_table(3, 6)) == 600

    def test_gate_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the gate drew a random number")

        caches = [f for mod in (certs, matrices, subsets) for f in vars(mod).values()
                  if hasattr(f, "cache_clear")]
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(random, "Random", refuse)
        try:
            assert sum(len(relation_table(k, n)) for k in range(1, 4) for n in range(k, 7)) == 1264
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()


class TestStratumVectors:
    """The claims' fast path: ``holds`` on int columns read once per stratum (GF(q)
    residues and int minors of banded matrices), against ``evaluate`` on the
    matching PluckerVectors (``oracle`` in conftest.py)."""

    @staticmethod
    def stratum(beta, gamma, seed):
        """The (q, int columns) groups the claims read for one stratum, and the
        matching PluckerVectors, group by group."""
        from plucker.claims import _columns
        from plucker.varieties import _strata

        N, groups = len(enumerate_subsets(beta.k, beta.n)), []
        for q in (2, 3):  # each packed stratum sliced into its columns, as the claims read it
            groups.append((q, _columns(_strata(beta.k, beta.n, q, beta), gamma, N)))
        points = [[p.plucker for p in open_richardson_points(beta, gamma, q)] for q, _ in groups]
        rng = random.Random(seed)
        ys = [sample_y(beta, gamma, QQ, rng) for _ in range(4)]
        groups.append((0, columns(*(integer_minors(y.rows, beta.n)[0] for y in ys))))
        points.append(rational_w_points(beta, gamma, 4, seed))
        return groups, points

    @staticmethod
    def probes(beta, gamma, rng):
        """(q, int vector, PluckerVector) triples off the stratum, Delta_beta and
        Delta_gamma nonzero: where most certificates fail."""
        k, n = beta.k, beta.n
        grassmannian = enumerate_grassmannian(k, n, 3)
        drawn = [grassmannian[rng.randrange(len(grassmannian))] for _ in range(40)]
        out = [(3, p.residues, p.plucker) for p in drawn if p.plucker[beta] and p.plucker[gamma]][:4]
        for _ in range(3):
            m = ExactMatrix([[QQ.random_element(rng) for _ in range(n)] for _ in range(k)], QQ)
            point = maximal_minors(m)
            if point[beta] and point[gamma]:
                out.append((0, integer_minors(m.rows, n)[0], point))
        return out

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6)])
    def test_verdicts_match_the_oracle(self, k, n, oracle, inverse_oracle):
        rng = random.Random(f"stratum:{k}:{n}")
        verdicts = {True: 0, False: 0}
        pair = None
        for cert in certificates_of(k, n):
            if (cert.beta, cert.gamma) != pair:
                pair = (cert.beta, cert.gamma)
                groups, points = self.stratum(*pair, seed=rng.randrange(10**6))
                probes = self.probes(*pair, rng)
            sides = [(cert.target, cert.cofactor, oracle)]
            if cert.pivot_inverse is not None:
                sides.append((None, cert.pivot_inverse, inverse_oracle))
            for lhs, expr, reference in sides:
                assert holds(cert, lhs, expr, groups) == all(reference(cert, pts) for pts in points) is True
                for q, x, point in probes:
                    got = holds(cert, lhs, expr, [(q, columns(x))])
                    assert got == reference(cert, [point]), (cert, point)
                    verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6)])
    def test_rational_vectors_are_positive_multiples_of_the_minors(self, k, n):
        for i, (beta, gamma) in enumerate(iter_comparable_pairs(k, n)):
            rng, again = random.Random(i), random.Random(i)
            for _ in range(3):
                x = integer_minors(sample_y(beta, gamma, QQ, rng).rows, n)[0]
                minors = maximal_minors(phi(sample_y(beta, gamma, QQ, again), beta, gamma)).values
                scale = next(Fraction(a) / b for a, b in zip(x, minors) if b)
                assert scale > 0 and [Fraction(a) for a in x] == [scale * b for b in minors]

    def test_vanishing_inverted_coordinate_raises_in_order(self, oracle):
        beta, gamma = ks((1, 3), 4), ks((2, 4), 4)
        cert = principal_certificate(beta, gamma, 1, ks((2, 3), 4))
        rng = random.Random(5)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            point = maximal_minors(ExactMatrix(rows, QQ))
            if point[beta] and point[gamma] and not oracle(cert, [point]):
                break
        failing = integer_minors(rows, 4)[0]
        for zero, unit in ((beta, gamma), (gamma, beta)):
            # identity columns at ``unit``: Delta_unit = 1, Delta_zero = 0
            vanishing = integer_minors([[int(j == c) for j in range(1, 5)] for c in unit], 4)[0]
            for q in (0, 5):
                with pytest.raises(EvaluationError, match=re.escape(str(zero))):
                    holds(cert, cert.target, cert.cofactor, [(q, columns(vanishing))])
            assert holds(cert, cert.target, cert.cofactor, [(0, columns(failing, vanishing))]) is False
            with pytest.raises(EvaluationError):
                holds(cert, cert.target, cert.cofactor, [(0, columns(vanishing, failing))])


def identities_of(k, n):
    """(identity, good points) for every compiled relation and every compiled
    certificate and pivot inverse of S(k, n): the points are int vectors where the
    identity holds, the minors of int matrices or of banded ones."""
    rng = random.Random(f"identities:{k}:{n}")
    minors = [integer_minors([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)], n)[0] for _ in range(4)]
    for terms in compiled_relations(k, n):
        yield ((), terms), minors
    for cert in certificates_of(k, n):
        shape = matrices.YShape(cert.beta, cert.gamma)
        good = list(zip(*matrices._sampled_minors(matrices._layout(shape), n, shape.unit_count, 4, rng)))
        yield certs._compile(cert, cert.target, cert.cofactor), good
        if cert.pivot_inverse is not None:
            yield certs._compile(cert, None, cert.pivot_inverse), good


class TestColumnEvaluator:
    """The column evaluator against the point-by-point oracle of conftest.py, on
    random int columns: shuffled points where the identity holds and random
    vectors with small entries, zeros included, so failures and vanishing
    inverted coordinates come at every index."""

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 5)])
    def test_first_failure_and_verdict_match_the_oracle(self, k, n, value_oracle, holds_oracle):
        rng = random.Random(f"columns:{k}:{n}")
        N = len(enumerate_subsets(k, n))
        outcomes = set()
        for identity, good in identities_of(k, n):
            inverted, terms = identity
            for q in (0, 2, 3, 5):
                vectors = good[: rng.randrange(len(good) + 1)]
                vectors += [[rng.randint(-2, 2) for _ in range(N)] for _ in range(rng.randrange(4))]
                rng.shuffle(vectors)
                if not vectors:
                    continue
                values = [value_oracle(terms, x) for x in vectors]
                first = next((i for i, v in enumerate(values) if (v % q if q else v)), None)
                assert certs._failure(terms, columns(*vectors), q) == first
                assert certs.vanishes(terms, columns(*vectors), q) == (first is None)
                try:
                    want = holds_oracle(identity, [(q, vectors)])
                except EvaluationError:
                    want = EvaluationError
                try:
                    got = certs._holds(identity, [(q, columns(*vectors))], k, n)
                except EvaluationError:
                    got = EvaluationError
                assert got == want, (identity, q, vectors)
                outcomes.add(want)
        assert outcomes == {True, False, EvaluationError}

    def test_constant_terms(self, value_oracle):
        # 1 - x_0 and 2 - x_0 * x_1^2: a term with no coordinate is a column of its coefficient
        x = [[1, 2, 1, 0], [1, 1, 1, 1]]
        for terms in (((1, ()), (-1, ((0, 1),))), ((2, ()), (-1, ((0, 1), (1, 2))))):
            for q in (0, 2, 3):
                values = [value_oracle(terms, point) for point in columns(*x)]
                first = next((i for i, v in enumerate(values) if (v % q if q else v)), None)
                assert certs._failure(terms, x, q) == first

    def test_groups_are_read_in_order(self, value_oracle, holds_oracle):
        cert = principal_certificate(ks((1, 3), 4), ks((2, 4), 4), 1, ks((2, 3), 4))
        identity = certs._compile(cert, cert.target, cert.cofactor)
        rng = random.Random(3)
        vanishing = [1, 0, 1, 1, 0, 1]  # Delta_13 = 0, and Delta_13 is inverted
        failing = next(x for x in ([rng.randint(1, 3) for _ in range(6)] for _ in range(100))
                       if value_oracle(identity[1], x))
        for groups in ([(0, [failing]), (0, [vanishing])], [(0, [vanishing]), (0, [failing])]):
            try:
                want = holds_oracle(identity, groups)
            except EvaluationError:
                want = EvaluationError
            try:
                got = certs._holds(identity, [(q, columns(*xs)) for q, xs in groups], 2, 4)
            except EvaluationError:
                got = EvaluationError
            assert got == want
        assert certs._holds(identity, [(0, columns(failing)), (0, columns(vanishing))], 2, 4) is False


class TestPositionalIdentity:
    """The claims compile certificates straight from ``_cofactor`` on lex positions;
    that identity is ``_compile`` of the public certificate, term for term."""

    @staticmethod
    def check(cert):
        if cert.pivot_inverse is None:
            got = certs._principal_identity(cert.beta, cert.gamma, cert.t, cert.target)
            assert got == certs._compile(cert, cert.target, cert.cofactor), cert
        else:
            got = certs._unit_identities(cert.beta, cert.gamma, cert.t)
            want = (certs._compile(cert, cert.target, cert.cofactor), certs._compile(cert, None, cert.pivot_inverse))
            assert got == want, cert

    def test_every_certificate_up_to_gr36(self):
        units = total = 0
        for k in range(2, 4):
            for n in range(k, 7):
                for cert in certificates_of(k, n):
                    self.check(cert)
                    units += cert.pivot_inverse is not None
                    total += 1
        assert (total - units, units) == (1794, 438)

    def test_a_seeded_sample_at_gr48(self):
        rng = random.Random("positional:4:8")
        pairs = list(iter_comparable_pairs(4, 8))
        checked = 0
        for beta, gamma in rng.sample(pairs, 30):
            for t in range(1, 4):
                for alpha in p_set_complement(beta, gamma, t):
                    self.check(principal_certificate(beta, gamma, t, alpha))
                    checked += 1
                if not len(p_set(beta, gamma, t)):
                    self.check(unit_certificate(beta, gamma, t))
        assert checked > 100
