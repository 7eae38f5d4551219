"""Signed quadratic exchange relations and ideal-membership certificates.

For comparable (beta, gamma) and a cut position t, every interval member
alpha avoiding the window [beta(t+1), gamma(t)] satisfies an exact
identity  Delta_alpha = Delta_pivot * e_alpha  on the locus where minors
outside [beta, gamma] vanish and Delta_beta, Delta_gamma are invertible;
here pivot is the mixed subset delta(beta, gamma, t).  The cofactor
e_alpha is produced by a recursion over the exchange relations: pick the
first position disagreeing with beta (or the last disagreeing with
gamma), exchange that element into alpha, divide by the unit
Delta_beta (or Delta_gamma), drop terms whose indices leave the interval,
and recurse on the strictly smaller surviving indices.  The mixed
componentwise order (increasing on 1..t, decreasing on t+1..k) makes the
recursion well-founded with the pivot as unique minimum.  The recursion
runs on lex positions (``_cofactor``): its terms are ((position, power),
...) monomials with int coefficients, from which the claims compile their
identities directly and the public certificates build their
``LaurentExpression``.

Signs of the exchange relations follow the shuffle convention (parity of
sorting the modified index sequences).  Each relation is built on element
tuples and lex positions and checked the first time it is built, before it or
its signs are handed out: in compiled form, it must be the zero polynomial on
the minors of the identity chart [I | X] (``_chart_minors``, a proof over Z),
or the build aborts.  Only ``relation_table`` and ``plucker_relation`` build
a ``LaurentExpression`` of it, which must compile back to the checked terms.

Relations and certificates are checked in one compiled form: a polynomial
identity on plain ints, as (coefficient, ((position, power), ...)) terms over
the lex order of ``enumerate_subsets(k, n)`` that sum to 0 where it holds.
Coefficients are ints throughout, so the identities hold over Z.  An
exchange relation has degree 2 and no inverse already.  A certificate's
cofactor monomials all have degree 0, so multiplying by Delta_beta^a *
Delta_gamma^b (a, b the largest inverse powers; a parsed certificate may
invert other coordinates too, and each is cleared the same way) gives

    Delta_target * Delta_beta^a * Delta_gamma^b = sum_i c_i * Delta_pivot * m_i

with monomials m_i of nonnegative powers.  Either identity is
homogeneous of one degree, so it holds at a minor vector exactly when it
holds at any nonzero multiple of that vector, where the inverted coordinates
do not vanish.  A GF(q) point is read as its residues and compared mod q; a
rational point as a nonzero int multiple of it, compared exactly.  Points
are read as columns, column i the i-th coordinate of every point, and one
evaluator (``_values``) sums each compiled term over whole columns with
C-level ``map`` pipelines.  The
rational points of the banded piece are the int minors of a banded matrix
itself: its gamma-column block G is lower unipotent, so ``phi`` (which
left-multiplies by G^-1) changes no maximal minor, as det G = 1.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from typing import Iterable, Sequence

from .errors import EvaluationError, Immutable, ParameterError, ParseError, as_int, ascii_int
from .matrices import PluckerVector, _minors
from .subsets import (
    KSubset,
    _interval_mask,
    _subset_positions,
    _window,
    _window_mask,
    avoids_window,
    delta,
    enumerate_subsets,
    p_set,
    p_set_complement,
    parse_subset,
)

class PluckerSymbol(Immutable):
    """A formal coordinate symbol with an integer power."""

    __slots__ = ("index", "power")

    def __init__(self, index: KSubset, power: int = 1):
        power = as_int(power)
        if power == 0:
            raise ParameterError("zero powers are dropped, not stored")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "power", power)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PluckerSymbol)
            and self.index == other.index
            and self.power == other.power
        )

    def __hash__(self) -> int:
        return hash((self.index, self.power))

    def __repr__(self) -> str:
        return f"PluckerSymbol({self.index}, {self.power})"

    def __str__(self) -> str:
        return str(self.index) if self.power == 1 else f"{self.index}^{self.power}"


def _monomial_key(symbols: tuple[PluckerSymbol, ...]):
    return tuple((s.index.elements, s.power) for s in symbols)


def _merge_symbols(symbols: Iterable[PluckerSymbol]) -> tuple[PluckerSymbol, ...]:
    powers: dict[KSubset, int] = {}
    for s in symbols:
        powers[s.index] = powers.get(s.index, 0) + s.power
    kept = [PluckerSymbol(idx, p) for idx, p in powers.items() if p != 0]
    kept.sort(key=lambda s: s.index.elements)
    return tuple(kept)


class LaurentExpression(Immutable):
    """A canonical sum of integer multiples of symbol monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Iterable[PluckerSymbol]]]):
        acc: dict[tuple, tuple[int, tuple[PluckerSymbol, ...]]] = {}
        for c, symbols in terms:
            if not isinstance(c, int):
                raise ParameterError(f"coefficient {c!r} is not an integer")
            mono = _merge_symbols(symbols)
            key = _monomial_key(mono)
            if key in acc:
                c = acc[key][0] + c
            if c:
                acc[key] = (c, mono)
            else:
                acc.pop(key, None)
        object.__setattr__(
            self, "terms", tuple(acc[key] for key in sorted(acc))
        )

    @classmethod
    def one(cls) -> "LaurentExpression":
        return cls([(1, ())])

    @classmethod
    def symbol(cls, index: KSubset, power: int = 1) -> "LaurentExpression":
        return cls([(1, (PluckerSymbol(index, power),))])

    @classmethod
    def term(cls, coeff, symbols: Iterable[PluckerSymbol]) -> "LaurentExpression":
        return cls([(coeff, tuple(symbols))])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentExpression") -> "LaurentExpression":
        return LaurentExpression(list(self.terms) + list(other.terms))

    def __neg__(self) -> "LaurentExpression":
        return LaurentExpression([(-c, m) for c, m in self.terms])

    def __sub__(self, other: "LaurentExpression") -> "LaurentExpression":
        return self + (-other)

    def __mul__(self, other: "LaurentExpression") -> "LaurentExpression":
        out = []
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                out.append((c1 * c2, m1 + m2))
        return LaurentExpression(out)

    def times_term(self, coeff, symbols: Iterable[PluckerSymbol]) -> "LaurentExpression":
        extra = tuple(symbols)
        return LaurentExpression([(c * coeff, m + extra) for c, m in self.terms])

    def negative_power_indices(self) -> frozenset[KSubset]:
        out = set()
        for _, mono in self.terms:
            for s in mono:
                if s.power < 0:
                    out.add(s.index)
        return frozenset(out)

    def validate_localized(self, beta: KSubset, gamma: KSubset):
        bad = self.negative_power_indices() - {beta, gamma}
        if bad:
            raise ParameterError(
                f"negative powers only allowed at {beta} and {gamma}, found {sorted(map(str, bad))}"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentExpression) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, mono in self.terms:
            body = "*".join(str(s) for s in mono) if mono else "1"
            parts.append(f"{c}*{body}")
        return " + ".join(parts)


def evaluate(expr: LaurentExpression, point: PluckerVector):
    """Exact value of ``expr`` at a full coordinate vector.

    Coordinates are read as stored; a negative power at a vanishing
    coordinate raises.
    """
    field = point.field
    total = field.zero
    for coeff, mono in expr.terms:
        acc = field(coeff)
        for sym in mono:
            value = point[sym.index]
            if sym.power < 0 and not value:
                raise EvaluationError(f"coordinate {sym.index} vanishes but is inverted")
            acc = acc * value**sym.power
        total = total + acc
    return total


def _sort_sign(seq: Sequence[int]) -> int:
    """Parity of the permutation sorting ``seq`` (distinct entries)."""
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _exchange_terms(a: tuple, o: tuple, b: int) -> list[tuple[int, tuple, tuple]]:
    """Signed terms of the exchange of element b of ``o`` into ``a``, both sorted
    element tuples of k-subsets.

    Returns (sign, a', o') triples over j in a minus o, where a' = a - j + b
    and o' = o - b + j, sorted; the signs make  Delta_a Delta_o = sum sign *
    Delta_a' Delta_o'  an identity on maximal minors.
    """
    pos_b = o.index(b)
    out = []
    for pos_j, j in enumerate(a):
        if j in o:
            continue
        seq_a = list(a)
        seq_a[pos_j] = b
        seq_o = list(o)
        seq_o[pos_b] = j
        sign = _sort_sign(seq_a) * _sort_sign(seq_o)
        out.append((sign, tuple(sorted(seq_a)), tuple(sorted(seq_o))))
    return out


class _Poly(dict):
    """An int polynomial, sorted variable tuples to nonzero ints, with only what
    ``_minors`` and ``_values`` use: ``+``, ``-``, ``*`` (ints on either side), ``**``, truth."""

    __slots__ = ()

    def __init__(self, terms=()):
        for m, c in terms:  # (monomial, int) pairs, summed
            c += self.pop(m, 0)
            if c:
                self[m] = c

    def __add__(self, other):
        return _Poly([*self.items(), *_items(other)])

    def __mul__(self, other):
        return _Poly((tuple(sorted(m + m2)), c * c2) for m, c in self.items() for m2, c2 in _items(other))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _Poly((m, -c) for m, c in self.items())

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return other + -self

    def __pow__(self, e: int):
        return reduce(operator.mul, [self] * e)


def _items(x):
    return x.items() if isinstance(x, _Poly) else [((), x)]


@lru_cache(maxsize=None)
def _chart_minors(k: int, n: int) -> list:
    """The maximal minors of the identity chart [I | X], X a k x (n - k) matrix of
    variables (r, c).  A relation P that is zero on them is zero over Z: each term of P
    is a product of two maximal minors, so P(g M) = det(g)^2 P(M).  Every k x n
    M whose first k columns are independent is g times a point of the chart,
    and these M are dense, so P is zero over Q; its coefficients are ints, so
    it is zero over Z and over every field."""
    x = [[_Poly([(((r, c),), 1)]) for c in range(n - k)] for r in range(k)]
    return _minors([[int(j == r) for j in range(k)] + x[r] for r in range(k)], n)


@lru_cache(maxsize=None)
def _checked_exchange(a: tuple, o: tuple, b: int, n: int) -> tuple[tuple, tuple]:
    """The exchange of b of ``o`` into ``a``, element tuples of S(len(a), n): its
    ``_exchange_terms`` and its relation  Delta_a Delta_o - sum sign * Delta_a'
    Delta_o'  in compiled form, one (c, ((position, power), ...)) term per
    monomial with nonzero c, in the order of ``LaurentExpression`` terms.  The
    only source of exchange signs: the compiled relation must be zero on
    ``_chart_minors``, or the sign convention is wrong and the build stops.
    """
    terms = tuple(_exchange_terms(a, o, b))
    k, pos = len(a), _subset_positions(len(a), n)
    acc: dict[tuple, int] = {}
    for c, x, y in ((1, a, o), *((-sign, x, y) for sign, x, y in terms)):
        p, q = sorted((pos[x], pos[y]))
        key = ((p, 2),) if p == q else ((p, 1), (q, 1))
        acc[key] = acc.get(key, 0) + c
    compiled = tuple((c, tuple(_PAIRS.setdefault(pe, pe) for pe in key)) for key, c in sorted(acc.items()) if c)
    # no inverse, so D = 1 (see ``_clear``); the chart is one point, as one-entry columns
    if not vanishes(compiled, [[m] for m in _chart_minors(k, n)]):
        raise RuntimeError(f"sign convention failed validation for (k={k}, n={n}): exchange of {b} of {o} into {a}")
    return terms, compiled


def _exchanges(k: int, n: int):
    """Every exchange (a, o, b, n) of S(k, n), a and o element tuples, in table order."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    return ((a, o, b, n) for a in subsets for o in subsets for b in o if b not in a)


def _relation(a: tuple, o: tuple, b: int, n: int) -> LaurentExpression:
    """The relation of ``_checked_exchange(a, o, b, n)`` as a ``LaurentExpression``,
    which must compile to the relation the gate checked, or the build stops."""
    terms, compiled = _checked_exchange(a, o, b, n)
    k = len(a)
    pos, subsets = _subset_positions(k, n), enumerate_subsets(k, n)
    relation = LaurentExpression(
        (c, (PluckerSymbol(subsets[pos[x]]), PluckerSymbol(subsets[pos[y]])))
        for c, x, y in ((1, a, o), *((-sign, x, y) for sign, x, y in terms))
    )
    if _clear(_positional(relation.terms, pos))[1] != compiled:
        raise RuntimeError(f"sign convention failed validation for (k={k}, n={n}): {relation!r}")
    return relation


@lru_cache(maxsize=None)
def relation_table(k: int, n: int) -> tuple[LaurentExpression, ...]:
    """All exchange relations for S(k, n), each checked on the identity chart."""
    return tuple(_relation(*key) for key in _exchanges(k, n))


def compiled_relations(k: int, n: int) -> tuple[tuple, ...]:
    """The relations of ``relation_table(k, n)``, in its order, in compiled
    form: each sums to 0 at every minor vector, and at every nonzero multiple
    of one.  A relation that cancels to zero compiles to no terms.  No
    ``LaurentExpression`` is built."""
    return tuple(_checked_exchange(*key)[1] for key in _exchanges(k, n))


def verify_plucker_relations(p: PluckerVector) -> bool:
    """True iff every quadratic exchange relation vanishes at ``p``."""
    columns, q = [[x] for x in _ints(p, p.k, p.n)], p.field.characteristic
    return all(vanishes(terms, columns, q) for terms in compiled_relations(p.k, p.n))


def plucker_relation(alpha: KSubset, beta: KSubset, i: int) -> LaurentExpression:
    """The signed exchange relation for (alpha, beta) at element i of beta - alpha."""
    if (alpha.k, alpha.n) != (beta.k, beta.n):
        raise ParameterError("subsets must share (k, n)")
    if i not in beta or i in alpha:
        raise ParameterError(f"{i} must lie in {beta} but not in {alpha}")
    return _relation(alpha.elements, beta.elements, i, alpha.n)


@dataclass(frozen=True)
class PrecedesT:
    """The mixed componentwise order on window-avoiding interval members."""

    beta: KSubset
    gamma: KSubset
    t: int

    def family(self):
        return p_set_complement(self.beta, self.gamma, self.t)

    def leq(self, a: KSubset, b: KSubset) -> bool:
        context = (self.beta, self.gamma, self.t)
        if not (avoids_window(a, *context) and avoids_window(b, *context)):
            raise ParameterError("both subsets must avoid the window inside the interval")
        t = self.t
        return all(a(i) <= b(i) for i in range(1, t + 1)) and all(
            a(i) >= b(i) for i in range(t + 1, a.k + 1)
        )


def precedes_t(a: KSubset, b: KSubset, context) -> bool:
    """Mixed order comparison; ``context`` is a PrecedesT or (beta, gamma, t)."""
    if not isinstance(context, PrecedesT):
        context = PrecedesT(*context)
    return context.leq(a, b)


@dataclass(frozen=True)
class Certificate:
    """Witness that a target coordinate is a pivot multiple on the locus.

    Semantics: at every coordinate vector whose minors vanish outside
    [beta, gamma] and with the beta/gamma coordinates invertible,
    value(target) = value(pivot) * value(cofactor).  ``pivot_inverse``
    is populated for unit certificates and expresses 1/pivot on the same
    locus.
    """

    target: KSubset
    pivot: KSubset
    cofactor: LaurentExpression
    beta: KSubset
    gamma: KSubset
    t: int
    pivot_inverse: LaurentExpression | None = None

    @property
    def context(self) -> tuple[KSubset, KSubset, int]:
        return (self.beta, self.gamma, self.t)


def _times(mono: tuple, *factors: tuple[int, int]) -> tuple:
    """The positional monomial ``mono`` times the (position, power) ``factors``: its
    nonzero powers, sorted by position, as ``LaurentExpression`` sorts its symbols."""
    powers = dict(mono)
    for p, e in factors:
        powers[p] = powers.get(p, 0) + e
    return tuple(sorted(pe for pe in powers.items() if pe[1]))


@lru_cache(maxsize=None)
def _cofactor(beta: KSubset, gamma: KSubset, t: int, a: tuple) -> tuple:
    """The cofactor e_alpha of  Delta_alpha = Delta_pivot * e_alpha  on lex positions,
    alpha given by its elements ``a``: ((monomial, c), ...) with nonzero int c, each
    monomial a tuple of (position, nonzero power) pairs, both sorted, so in the
    order of ``LaurentExpression`` terms."""
    b, g, n = beta.elements, gamma.elements, beta.n
    pos = _subset_positions(len(a), n)
    if a == b[:t] + g[t:]:  # the pivot delta(beta, gamma, t)
        return (((), 1),)
    i = next((i for i in range(t) if a[i] > b[i]), None)
    if i is not None:
        anchor, exchanged = b, b[i]
    else:
        i = next((i for i in range(len(a) - 1, t - 1, -1) if a[i] < g[i]), None)
        if i is None:
            raise RuntimeError(f"{KSubset(a, n)} differs from {delta(beta, gamma, t)} yet matches beta and gamma")
        anchor, exchanged = g, g[i]
    inside = _interval_mask(beta, gamma)  # bit i set when the i-th subset lies in [beta, gamma]
    window = _window_mask(len(a), n, b[t], g[t - 1])  # those meeting [beta(t+1), gamma(t)]
    inverse = (pos[anchor], -1)
    acc: dict[tuple, int] = {}
    for sign, x, y in _checked_exchange(a, anchor, exchanged, n)[0]:
        p = pos[y]
        if not inside >> pos[x] & 1 or not inside >> p & 1:
            continue
        # x must avoid the window and lie strictly below alpha in PrecedesT's order
        if x == a or window >> pos[x] & 1 or not (
            all(map(operator.le, x[:t], a[:t])) and all(map(operator.ge, x[t:], a[t:]))
        ):
            raise RuntimeError(f"exchange produced {KSubset(x, n)}, not strictly below {KSubset(a, n)}")
        for mono, c in _cofactor(beta, gamma, t, x):
            key = _times(mono, (p, 1), inverse)
            acc[key] = acc.get(key, 0) + sign * c
    return tuple(sorted(term for term in acc.items() if term[1]))


@lru_cache(maxsize=None)
def _expression(terms: tuple, k: int, n: int) -> LaurentExpression:
    """The positional ``terms`` of ``_cofactor`` as a ``LaurentExpression``, one object per cofactor."""
    subsets = enumerate_subsets(k, n)
    return LaurentExpression([(c, [PluckerSymbol(subsets[p], e) for p, e in mono]) for mono, c in terms])


def principal_certificate(
    beta: KSubset, gamma: KSubset, t: int, alpha: KSubset
) -> Certificate:
    """Certificate that the target is a pivot multiple, built by exchange recursion."""
    if (alpha.k, alpha.n) != (beta.k, beta.n):
        raise ParameterError(f"{alpha} has (k, n) = {alpha.k, alpha.n}, but beta {beta} has {beta.k, beta.n}")
    if not avoids_window(alpha, beta, gamma, t):
        raise ParameterError(f"{alpha} does not avoid the window of ({beta}, {gamma}, t={t})")
    cof = _expression(_cofactor(beta, gamma, t, alpha.elements), beta.k, beta.n)
    cof.validate_localized(beta, gamma)
    return Certificate(
        target=alpha, pivot=delta(beta, gamma, t), cofactor=cof, beta=beta, gamma=gamma, t=t
    )


def unit_certificate(beta: KSubset, gamma: KSubset, t: int) -> Certificate:
    """When the window family is empty the pivot is a unit: certify
    Delta_beta = pivot * e and record 1/pivot = e / Delta_beta."""
    if len(p_set(beta, gamma, t)):
        raise ParameterError(f"window family of ({beta}, {gamma}, t={t}) is nonempty")
    base = principal_certificate(beta, gamma, t, beta)
    inverse = base.cofactor.times_term(1, (PluckerSymbol(beta, -1),))
    inverse.validate_localized(beta, gamma)
    return replace(base, pivot_inverse=inverse)


_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}  # one shared tuple per (position, power)


def _positional(terms, pos: dict) -> list[tuple[int, tuple]]:
    """(c, symbols) ``terms`` as (c, ((position, power), ...)), positions by ``pos``."""
    return [(c, tuple((pos[s.index.elements], s.power) for s in symbols)) for c, symbols in terms]


def _clear(sides):
    """The identity  sum of c * monomial = 0  over the positional (int c,
    ((position, power), ...)) ``sides``, times D, the product of the inverted
    coordinates, each to its largest inverse power.  Returns (inverted, terms):
    the positions inverted, and one (c, ((position, power >= 1), ...)) term per
    side, its pairs shared through ``_PAIRS``."""
    inverse: dict[int, int] = {}
    for _, mono in sides:
        for p, e in mono:
            if e < 0:
                inverse[p] = max(inverse.get(p, 0), -e)
    terms = []
    for c, mono in sides:
        powers = dict(inverse)
        for p, e in mono:
            powers[p] = powers.get(p, 0) + e
        terms.append((c, tuple(_PAIRS.setdefault(pe, pe) for pe in powers.items() if pe[1])))
    return tuple(inverse), tuple(terms)


def _identity(lhs: int | None, pivot: int, terms) -> tuple:
    """``Delta_lhs = Delta_pivot * sum_i c_i * m_i`` (``1 = ...`` when ``lhs`` is None)
    over lex positions, ``terms`` its (m_i, c_i) pairs, compiled by ``_clear``."""
    sides = [(1, () if lhs is None else ((lhs, 1),))]
    sides += [(-c, ((pivot, 1),) + mono) for mono, c in terms]
    return _clear(sides)


def _compile(cert: Certificate, lhs: KSubset | None, expr: LaurentExpression):
    """``Delta_lhs = Delta_pivot * expr`` (``1 = ...`` when ``lhs`` is None) in
    compiled form, the left side first:  D * Delta_lhs = sum_i c_i *
    Delta_pivot * m_i  with D as in ``_clear``.  Every monomial of
    ``expr`` must have degree deg(lhs) - 1, so the identity is homogeneous,
    else ParameterError.
    """
    want = -1 if lhs is None else 0
    for _, mono in expr.terms:
        degree = sum(s.power for s in mono)
        if degree != want:
            body = "*".join(map(str, mono)) or "1"
            raise ParameterError(f"monomial {body} has degree {degree}, not {want}")
    pos = _subset_positions(cert.beta.k, cert.beta.n)
    terms = [(mono, c) for c, mono in _positional(expr.terms, pos)]
    return _identity(None if lhs is None else pos[lhs.elements], pos[cert.pivot.elements], terms)


def _principal_identity(beta: KSubset, gamma: KSubset, t: int, alpha: KSubset) -> tuple:
    """``_compile`` of ``principal_certificate(beta, gamma, t, alpha)``'s identity, from
    ``_cofactor`` without building the certificate; alpha must avoid the window."""
    pos = _subset_positions(beta.k, beta.n)
    pivot = pos[beta.elements[:t] + gamma.elements[t:]]  # delta(beta, gamma, t)
    return _identity(pos[alpha.elements], pivot, _cofactor(beta, gamma, t, alpha.elements))


def _unit_identities(beta: KSubset, gamma: KSubset, t: int) -> tuple[tuple, tuple]:
    """``_compile`` of ``unit_certificate(beta, gamma, t)``'s identity and of its pivot
    inverse, from ``_cofactor`` without building the certificate; the window family
    must be empty."""
    pos = _subset_positions(beta.k, beta.n)
    b, pivot = pos[beta.elements], pos[beta.elements[:t] + gamma.elements[t:]]  # delta(beta, gamma, t)
    cofactor = _cofactor(beta, gamma, t, beta.elements)
    inverse = sorted((_times(mono, (b, -1)), c) for mono, c in cofactor)
    return _identity(b, pivot, cofactor), _identity(None, pivot, inverse)


def _ints(point: PluckerVector, k: int, n: int) -> list[int]:
    """The coordinates of ``point``, of Gr(k, n), as one int vector: over GF(q)
    its residues, over QQ its coordinates times the lcm of their denominators."""
    if (point.k, point.n) != (k, n):
        raise ParameterError(f"a point of Gr({point.k}, {point.n}), not of Gr({k}, {n})")
    values = point.values
    if point.field.characteristic:
        return [v.value for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _values(terms, columns):
    """The sums of the compiled ``terms`` at every point of ``columns``, where
    ``columns[i]`` holds the i-th coordinate of every point: an iterator over the
    points, each term one pipeline of ``map`` over whole columns."""
    size = len(columns[0])
    total = itertools.repeat(0, size)
    for c, mono in terms:
        factors = [columns[i] if e == 1 else map(pow, columns[i], itertools.repeat(e)) for i, e in mono]
        if c not in (1, -1) or not factors:  # else c is only the sign of the term
            factors.append(itertools.repeat(c, size))
            c = 1
        product = reduce(partial(map, operator.mul), factors)
        total = map(operator.add if c == 1 else operator.sub, total, product)
    return total


def _failure(terms, columns, q: int = 0) -> int | None:
    """The index of the first point of ``columns`` where the compiled ``terms`` do
    not sum to 0, compared mod q when q is nonzero; None when they vanish at every point."""
    values = _values(terms, columns)
    return next(itertools.compress(itertools.count(), map(q.__rmod__, values) if q else values), None)


def vanishes(terms, columns, q: int = 0) -> bool:
    """Whether the compiled ``terms`` sum to 0 at every point of ``columns``
    (``columns[i]`` the i-th coordinate of every point), mod q when q is nonzero."""
    return _failure(terms, columns, q) is None


def _holds(identity, groups, k: int, n: int) -> bool:
    """Whether the compiled ``identity``, an (inverted, terms) pair of Gr(k, n), holds
    at every point of ``groups``, (q, columns) pairs compared mod q when q is nonzero.
    Groups are read in order, up to the first failure; within a group, the earlier
    of its first failing point and its first point where an inverted coordinate
    vanishes decides: False, or an EvaluationError."""
    inverted, terms = identity
    for q, columns in groups:
        failing = _failure(terms, columns, q)
        zeros = [(columns[p].index(0), p) for p in inverted if 0 in columns[p]]
        if zeros and (failing is None or min(zeros)[0] <= failing):
            at, p = min(zeros)
            point = [column[at] for column in columns]
            raise EvaluationError(f"coordinate {enumerate_subsets(k, n)[p]} vanishes but is inverted at {point}")
        if failing is not None:
            return False
    return True


def holds(cert: Certificate, lhs: KSubset | None, expr: LaurentExpression, groups) -> bool:
    """Whether  Delta_lhs = Delta_pivot * expr  (``_compile``) holds at every point
    of ``groups``, (q, columns) pairs with ``columns[i]`` the i-th int coordinate of
    every point, compared mod q when q is nonzero.  Points are read in order, up
    to the first failure; an inverted coordinate that vanishes raises EvaluationError."""
    return _holds(_compile(cert, lhs, expr), groups, cert.beta.k, cert.beta.n)


def _groups(cert: Certificate, points: Iterable[PluckerVector]):
    """``points`` as ``holds`` reads them: a (q, columns) group per run of one
    characteristic, its points converted once and transposed when it is reached."""
    k, n = cert.beta.k, cert.beta.n
    for q, run in itertools.groupby(points, operator.attrgetter("field.characteristic")):
        yield q, list(zip(*(_ints(point, k, n) for point in run)))


def verify_certificate(cert: Certificate, points: Iterable[PluckerVector]) -> bool:
    """Exact check of the certificate identity at every supplied point.

    The identity is compiled to int form (see the module docstring); a
    cofactor monomial of nonzero degree raises ParameterError, and an inverted
    coordinate that vanishes at a point raises EvaluationError."""
    return holds(cert, cert.target, cert.cofactor, _groups(cert, points))


def verify_pivot_inverse(cert: Certificate, points: Iterable[PluckerVector]) -> bool:
    """Exact check of  Delta_pivot * pivot_inverse = 1  at every supplied point,
    compiled like :func:`verify_certificate`."""
    if cert.pivot_inverse is None:
        raise ParameterError("the certificate records no pivot inverse")
    return holds(cert, None, cert.pivot_inverse, _groups(cert, points))


# Serialization: header lines, then one line per cofactor term.

# A power is nonzero and at most nine digits, so int() and PluckerSymbol accept it.
_SYMBOL_RE = re.compile(r"^(\{[0-9,]+\})(?:\^(-?[1-9][0-9]{0,8}))?$")


def _format_terms(expr: LaurentExpression) -> list[str]:
    return [" ".join(map(str, (coeff, *mono))) for coeff, mono in expr.terms]


def format_certificate(cert: Certificate) -> str:
    lines = [
        "plucker-certificate",
        f"n {cert.beta.n}",
        f"k {cert.beta.k}",
        f"beta {cert.beta}",
        f"gamma {cert.gamma}",
        f"t {cert.t}",
        f"target {cert.target}",
        f"pivot {cert.pivot}",
        f"cofactor {len(cert.cofactor.terms)}",
    ]
    lines.extend(_format_terms(cert.cofactor))
    if cert.pivot_inverse is not None:
        lines.append(f"pivot-inverse {len(cert.pivot_inverse.terms)}")
        lines.extend(_format_terms(cert.pivot_inverse))
    return "\n".join(lines) + "\n"


def _at(line: int, column: int | None, parse, *args):
    """``parse(*args)``, with any failure reported as a ParseError at (line, column)."""
    try:
        return parse(*args)
    except ValueError as exc:  # ParseError and ParameterError included
        raise ParseError(str(exc), line=line, column=column) from None


def _k_subset(text: str, k: int, n: int) -> KSubset:
    subset = parse_subset(text, n)
    if str(subset) != text:  # only the spelling format_certificate writes round-trips
        raise ParseError(f"subset {text!r} is not written as {subset}")
    if subset.k != k:
        raise ParseError(f"{subset} does not have k = {k} elements")
    return subset


def _parse_terms(
    lines: list[tuple[int, str]], start: int, count: int, k: int, n: int
) -> tuple[LaurentExpression, int]:
    terms = []
    for idx in range(start, start + count):
        if idx >= len(lines):
            raise ParseError("unexpected end of certificate", line=lines[-1][0] + 1)
        ln_no, text = lines[idx]
        toks = text.split()
        coeff = _at(ln_no, 1, ascii_int, toks[0], True)
        symbols = []
        for col, tok in enumerate(toks[1:], start=2):
            m = _SYMBOL_RE.match(tok)
            if not m:
                raise ParseError(f"bad symbol {tok!r}", line=ln_no, column=col)
            index = _at(ln_no, col, _k_subset, m.group(1), k, n)
            symbols.append(PluckerSymbol(index, int(m.group(2) or 1)))
        terms.append((coeff, tuple(symbols)))
    return LaurentExpression(terms), start + count


def parse_certificate(text: str) -> Certificate:
    # (physical line number, text) of every non-blank line
    lines = [(no, ln.rstrip()) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != "plucker-certificate":
        raise ParseError("missing certificate header", line=lines[0][0] if lines else 1)

    def field(idx: int, name: str, parse, *args):
        ln_no, line = lines[idx] if idx < len(lines) else (lines[-1][0] + 1, "")
        if not line.startswith(name + " "):
            raise ParseError(f"expected {name!r} line", line=ln_no)
        return _at(ln_no, None, parse, line[len(name) + 1 :], *args)

    n = field(1, "n", ascii_int)
    k = field(2, "k", ascii_int)
    beta = field(3, "beta", _k_subset, k, n)
    gamma = field(4, "gamma", _k_subset, k, n)
    t = field(5, "t", ascii_int)
    target = field(6, "target", _k_subset, k, n)
    pivot = field(7, "pivot", _k_subset, k, n)
    _at(lines[5][0], None, _window, beta, gamma, t)  # t in 1..k-1, as p_set needs
    expected = _at(lines[5][0], None, delta, beta, gamma, t)
    if pivot != expected:
        message = f"pivot {pivot} is not delta(beta, gamma, t) = {expected}"
        raise ParseError(message, line=lines[7][0])
    cofactor, nxt = _parse_terms(lines, 9, field(8, "cofactor", ascii_int), k, n)
    pivot_inverse = None
    if nxt < len(lines):
        count = field(nxt, "pivot-inverse", ascii_int)
        pivot_inverse, nxt = _parse_terms(lines, nxt + 1, count, k, n)
    if nxt != len(lines):
        raise ParseError("trailing content", line=lines[nxt][0])
    return Certificate(
        target=target,
        pivot=pivot,
        cofactor=cofactor,
        beta=beta,
        gamma=gamma,
        t=t,
        pivot_inverse=pivot_inverse,
    )
