import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker import QQ, ExactMatrix, Fp, ParameterError, ParseError, PrimeField, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for m in range(-2, 32):
        assert is_prime(m) == (m in primes)


def test_prime_field_rejects_bad_moduli():
    # 2**61 - 1 is prime: it must be rejected by size, not by trial division
    for bad in (0, 1, 4, 9, 2**31 + 11, 2**61 - 1):
        with pytest.raises(ParameterError):
            PrimeField(bad)


# residues of small prime fields mixed with small ints
small_values = st.one_of(
    st.builds(lambda p, v: PrimeField(p)(v), st.sampled_from([2, 3, 7]), st.integers()),
    st.integers(-20, 20),
)


class TestFp:
    F5 = PrimeField(5)

    def test_canonical_and_interned(self):
        f = self.F5
        assert f(7).value == 2
        assert f(-1) == f(4)
        assert f(3) is f(8)  # small fields intern

    def test_arithmetic(self):
        f = self.F5
        assert f(3) + f(4) == f(2)
        assert f(3) - 4 == f(4)
        assert 2 * f(4) == f(3)
        assert f(3) / f(4) == f(2)  # 4 * 2 = 8 = 3
        assert f(2) ** -1 == f(3)
        assert -f(2) == f(3)
        assert bool(f(0)) is False and bool(f(1)) is True

    def test_division_by_zero(self):
        f = self.F5
        with pytest.raises(ZeroDivisionError):
            f(1) / f(0)
        with pytest.raises(ZeroDivisionError):
            f(0) ** -1

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ParameterError):
            PrimeField(5)(1) + PrimeField(7)(1)

    def test_only_integers_and_residues(self):
        # int() would read 1/2 as 0 and 2.7 as 2, so [[1/2, 0], [0, 1]] had det 0 in GF(5)
        for value in (Fraction(1, 2), Fraction(4, 2), 2.7, "3"):
            with pytest.raises(ParameterError, match="not an integer"):
                self.F5(value)
        with pytest.raises(ParameterError):
            ExactMatrix([[Fraction(1, 2), 0], [0, 1]], self.F5)
        assert self.F5(self.F5(3)) is self.F5(3) and self.F5(True) == 1

    def test_constructor_takes_integers_only(self):
        # Fp(1/2, 5) stored a Fraction value, equal to no residue of GF(5)
        for value in (Fraction(1, 2), Fraction(4, 2), 2.0, "3"):
            with pytest.raises(ParameterError, match="not an integer"):
                Fp(value, 5)
        assert Fp(7, 5) == self.F5(2) and Fp(True, 5).value == 1

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_field_axioms_gf7(self, a, b, c):
        f = PrimeField(7)
        x, y, z = f(a), f(b), f(c)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        if y:
            assert (x / y) * y == x

    def test_int_equality_is_canonical(self):
        f = PrimeField(3)
        assert f(1) == 1 and f(1) != 4 and f(2) != -1
        assert len({f(1), 1}) == 1
        assert f(2) + 4 == f(0)  # arithmetic with ints still reduces mod p

    @settings(deadline=None, max_examples=300)
    @given(small_values, small_values)
    def test_equal_implies_equal_hash(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_parse_format_roundtrip(self):
        f = PrimeField(11)
        for v in range(11):
            assert f.parse(f.format(f(v))) == f(v)
        with pytest.raises(ParseError):
            f.parse("x")


# One integer reader, errors.ascii_int, behind both parsers: leading zeros are read,
# signs other than one leading "-" (rationals only), "_" and non-ASCII digits are not.
@pytest.mark.parametrize("token,value", [("0", 0), ("007", 7), ("12", 5)])
def test_residue_parser_keeps(token, value):
    assert PrimeField(7).parse(token) == PrimeField(7)(value)


@pytest.mark.parametrize("token", ["+1", "1_0", "١", "-1", "", " 1", "1/2"])
def test_residue_parser_refuses(token):
    with pytest.raises(ParseError, match=re.escape(f"bad residue {token!r} for GF(7)")):
        PrimeField(7).parse(token)


@pytest.mark.parametrize("token,value", [("-0", 0), ("007", 7), ("-3/06", Fraction(-1, 2)), ("4/2", 2)])
def test_rational_parser_keeps(token, value):
    assert QQ.parse(token) == value


@pytest.mark.parametrize("token", ["+1", "1_0", "١", "1/0", "1/00", "1/-2", "--1", "1/", "1/2/3", "0.5", "1e9"])
def test_rational_parser_refuses(token):
    with pytest.raises(ParseError, match=re.escape(f"bad rational {token!r}")):
        QQ.parse(token)


class TestRationals:
    def test_canonical(self):
        assert QQ(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ.parse("-3/6") == Fraction(-1, 2)
        assert QQ.format(Fraction(-1, 2)) == "-1/2"
        with pytest.raises(ParseError):
            QQ.parse("1/0")

    def test_only_integers_and_fractions(self):
        # Fraction() would read 0.1 as 3602879701896397/36028797018963968
        for value in (0.1, 2.0, "1/2", PrimeField(5)(1)):
            with pytest.raises(ParameterError, match="not an integer"):
                QQ(value)
        assert QQ(3) == Fraction(3) and QQ(Fraction(2, 4)) == Fraction(1, 2)

    def test_random_sampling_deterministic(self):
        a = [QQ.random_element(random.Random(7)) for _ in range(5)]
        b = [QQ.random_element(random.Random(7)) for _ in range(5)]
        assert a == b
        assert all(QQ.random_nonzero(random.Random(i)) != 0 for i in range(20))

    def test_field_equality(self):
        assert QQ == QQ
        assert QQ != PrimeField(5)
        assert PrimeField(5) == PrimeField(5)
        assert PrimeField(5) != PrimeField(7)
