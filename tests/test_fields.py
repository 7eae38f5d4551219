import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker import QQ, ParameterError, ParseError, PrimeField, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for m in range(-2, 32):
        assert is_prime(m) == (m in primes)


def test_prime_field_rejects_bad_moduli():
    # 2**61 - 1 is prime: it must be rejected by size, not by trial division
    for bad in (0, 1, 4, 9, 2**31 + 11, 2**61 - 1):
        with pytest.raises(ParameterError):
            PrimeField(bad)


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

    def test_from_fraction(self):
        f = self.F5
        assert f.from_fraction(Fraction(1, 2)) == f(3)  # 2 * 3 = 1
        with pytest.raises(ZeroDivisionError):
            f.from_fraction(Fraction(1, 5))

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

    def test_parse_format_roundtrip(self):
        f = PrimeField(11)
        for v in range(11):
            assert f.parse(f.format(f(v))) == f(v)
        with pytest.raises(ParseError):
            f.parse("x")


class TestRationals:
    def test_canonical(self):
        assert QQ(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ.parse("-3/6") == Fraction(-1, 2)
        assert QQ.format(Fraction(-1, 2)) == "-1/2"
        with pytest.raises(ParseError):
            QQ.parse("1/0")

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
