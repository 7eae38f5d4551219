"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Rational arithmetic is stdlib ``fractions.Fraction`` (always canonical).
Prime-field elements are tiny immutable wrappers with operator overloads
so matrix code is field-generic; small fields intern their elements.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ParameterError, ParseError

_MAX_PRIME = 2**31
_INTERN_LIMIT = 1 << 12


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Fp:
    """A residue modulo a prime p, canonical in 0..p-1."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Fp is immutable")

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ParameterError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._lift(other)
        return NotImplemented if v is None else Fp(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        return NotImplemented if v is None else Fp(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        return NotImplemented if v is None else Fp(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        return NotImplemented if v is None else Fp(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(v * pow(self.value, -1, self.p), self.p)

    def __pow__(self, e: int):
        if e < 0 and self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return Fp(pow(self.value, e, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value} mod {self.p})"

    def __str__(self):
        return str(self.value)


class PrimeField:
    """GF(p) for a prime p < 2**31."""

    def __init__(self, p: int):
        # size first: trial division of a huge modulus would run for minutes
        if isinstance(p, int) and p >= _MAX_PRIME:
            raise ParameterError(f"p must be below 2**31, got {p}")
        if not isinstance(p, int) or not is_prime(p):
            raise ParameterError(f"{p!r} is not prime")
        self.p = p
        self.characteristic = p
        self._elems = [Fp(v, p) for v in range(p)] if p <= _INTERN_LIMIT else None
        self.zero = self(0)
        self.one = self(1)

    def __call__(self, value) -> Fp:
        if isinstance(value, Fp):
            if value.p != self.p:
                raise ParameterError(f"mixed moduli {self.p} and {value.p}")
            value = value.value
        v = int(value) % self.p
        if self._elems is not None:
            return self._elems[v]
        return Fp(v, self.p)

    def from_fraction(self, q: Fraction | int) -> Fp:
        if isinstance(q, int):
            return self(q)
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {self.p}")
        return self(q.numerator * pow(den, -1, self.p))

    def elements(self):
        return [self(v) for v in range(self.p)]

    def nonzero_elements(self):
        return [self(v) for v in range(1, self.p)]

    def random_element(self, rng: random.Random) -> Fp:
        return self(rng.randrange(self.p))

    def random_nonzero(self, rng: random.Random) -> Fp:
        return self(rng.randrange(1, self.p))

    def parse(self, token: str) -> Fp:
        try:
            return self(int(token))
        except ValueError:
            raise ParseError(f"bad residue {token!r} for GF({self.p})") from None

    def format(self, elem: Fp) -> str:
        return str(self(elem).value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Rationals:
    """The field of exact rationals, elements being ``fractions.Fraction``."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    # Bounded-height sampling keeps round-trip intermediates small.
    _NUM_BOUND = 4
    _DEN_BOUND = 4

    def __call__(self, value) -> Fraction:
        return Fraction(value)

    def from_fraction(self, q) -> Fraction:
        return Fraction(q)

    def random_element(self, rng: random.Random) -> Fraction:
        return Fraction(
            rng.randint(-self._NUM_BOUND, self._NUM_BOUND),
            rng.randint(1, self._DEN_BOUND),
        )

    def random_nonzero(self, rng: random.Random) -> Fraction:
        while True:
            x = self.random_element(rng)
            if x:
                return x

    def parse(self, token: str) -> Fraction:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {token!r}") from None

    def format(self, elem: Fraction) -> str:
        return str(Fraction(elem))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "Rationals()"


QQ = Rationals()
