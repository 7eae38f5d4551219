"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Rational arithmetic is stdlib ``fractions.Fraction`` (always canonical).
Prime-field elements are tiny immutable wrappers with operator overloads
so matrix code is field-generic; small fields intern their elements.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import Immutable, ParameterError, ParseError, as_int, ascii_int

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


class Fp(Immutable):
    """A residue modulo a prime p, canonical in 0..p-1; a non-integer value is a ParameterError."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", as_int(value) % p)
        object.__setattr__(self, "p", p)

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
            # only the canonical residue, so that equal objects hash alike
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value} mod {self.p})"

    def __str__(self):
        return str(self.value)


class PrimeField(Immutable):
    """GF(p) for a prime p < 2**31."""

    __slots__ = ("p", "characteristic", "_elems", "zero", "one")

    def __init__(self, p: int):
        # size first: trial division of a huge modulus would run for minutes
        if isinstance(p, int) and p >= _MAX_PRIME:
            raise ParameterError(f"p must be below 2**31, got {p}")
        if not isinstance(p, int) or not is_prime(p):
            raise ParameterError(f"{p!r} is not prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "characteristic", p)
        elems = tuple(Fp(v, p) for v in range(p)) if p <= _INTERN_LIMIT else None
        object.__setattr__(self, "_elems", elems)
        object.__setattr__(self, "zero", self(0))
        object.__setattr__(self, "one", self(1))

    def __call__(self, value) -> Fp:
        """The element of an int or of an element of this field; anything else is a ParameterError."""
        if isinstance(value, Fp):
            if value.p != self.p:
                raise ParameterError(f"mixed moduli {self.p} and {value.p}")
            value = value.value
        v = as_int(value) % self.p
        if self._elems is not None:
            return self._elems[v]
        return Fp(v, self.p)

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
            return self(ascii_int(token))
        except ParseError:
            raise ParseError(f"bad residue {token!r} for GF({self.p})") from None

    def format(self, elem: Fp) -> str:
        return str(self(elem).value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Rationals(Immutable):
    """The field of exact rationals, elements being ``fractions.Fraction``."""

    __slots__ = ()

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    # Bounded-height sampling keeps round-trip intermediates small.
    _NUM_BOUND = 4
    _DEN_BOUND = 4

    def __call__(self, value) -> Fraction:
        """The element of an int or a Fraction; anything else is a ParameterError."""
        return value if isinstance(value, Fraction) else Fraction(as_int(value))

    def random_pair(self, rng: random.Random) -> tuple[int, int]:
        """:meth:`random_element`'s draw as a reduced (numerator, denominator)."""
        num, den = rng.randint(-self._NUM_BOUND, self._NUM_BOUND), rng.randint(1, self._DEN_BOUND)
        g = math.gcd(num, den)
        return num // g, den // g

    def random_element(self, rng: random.Random) -> Fraction:
        return Fraction(*self.random_pair(rng))

    def random_nonzero(self, rng: random.Random) -> Fraction:
        while True:
            x = self.random_element(rng)
            if x:
                return x

    def parse(self, token: str) -> Fraction:
        # ``n`` or ``n/d``, d nonzero: Fraction() would also take "1e9", "0.5" and "1_0"
        num, slash, den = token.partition("/")
        try:
            return Fraction(ascii_int(num, True), ascii_int(den) if slash else 1)
        except (ParseError, ZeroDivisionError):
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
