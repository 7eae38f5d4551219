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
recursion well-founded with the pivot as unique minimum.

Signs of the exchange relations follow the shuffle convention (parity of
sorting the modified index sequences) and are numerically validated,
once per (k, n), against minors of random matrices before any relation
is handed out; validation failure aborts the build.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import EvaluationError, ParameterError, ParseError
from .fields import QQ
from .matrices import ExactMatrix, PluckerVector, maximal_minors
from .subsets import (
    KSubset,
    delta,
    enumerate_subsets,
    p_set,
    p_set_complement,
    parse_subset,
    subset_leq,
)

_GATE_SAMPLES = 50
_GATE_SEED = 987654321


class PluckerSymbol:
    """A formal coordinate symbol with an integer power."""

    __slots__ = ("index", "power")

    def __init__(self, index: KSubset, power: int = 1):
        if power == 0:
            raise ParameterError("zero powers are dropped, not stored")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "power", int(power))

    def __setattr__(self, name, value):
        raise AttributeError("PluckerSymbol is immutable")

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


class LaurentExpression:
    """A canonical sum of rational multiples of symbol monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, Iterable[PluckerSymbol]]]):
        acc: dict[tuple, tuple[Fraction, tuple[PluckerSymbol, ...]]] = {}
        for coeff, symbols in terms:
            mono = _merge_symbols(symbols)
            key = _monomial_key(mono)
            c = Fraction(coeff)
            if key in acc:
                c = acc[key][0] + c
            if c:
                acc[key] = (c, mono)
            else:
                acc.pop(key, None)
        object.__setattr__(
            self, "terms", tuple(acc[key] for key in sorted(acc))
        )

    def __setattr__(self, name, value):
        raise AttributeError("LaurentExpression is immutable")

    @classmethod
    def zero(cls) -> "LaurentExpression":
        return cls([])

    @classmethod
    def one(cls) -> "LaurentExpression":
        return cls([(Fraction(1), ())])

    @classmethod
    def symbol(cls, index: KSubset, power: int = 1) -> "LaurentExpression":
        return cls([(Fraction(1), (PluckerSymbol(index, power),))])

    @classmethod
    def term(cls, coeff, symbols: Iterable[PluckerSymbol]) -> "LaurentExpression":
        return cls([(Fraction(coeff), tuple(symbols))])

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
        return LaurentExpression([(c * Fraction(coeff), m + extra) for c, m in self.terms])

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
        acc = field.from_fraction(coeff)
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


def _exchange_terms(
    alpha: KSubset, other: KSubset, b: int
) -> list[tuple[int, KSubset, KSubset]]:
    """Signed terms of the exchange of element b of ``other`` into ``alpha``.

    Returns (sign, alpha', other') triples over j in alpha minus other,
    where alpha' = alpha - j + b and other' = other - b + j; the signs
    make  Delta_alpha Delta_other = sum sign * Delta_alpha' Delta_other'
    an identity on maximal minors.
    """
    pos_b = other.elements.index(b)
    out = []
    for pos_j, j in enumerate(alpha.elements):
        if j in other:
            continue
        seq_a = list(alpha.elements)
        seq_a[pos_j] = b
        seq_o = list(other.elements)
        seq_o[pos_b] = j
        sign = _sort_sign(seq_a) * _sort_sign(seq_o)
        out.append((sign, alpha.replace(j, b), other.replace(b, j)))
    return out


def _relation_unchecked(alpha: KSubset, beta: KSubset, i: int) -> LaurentExpression:
    expr = LaurentExpression.term(1, (PluckerSymbol(alpha), PluckerSymbol(beta)))
    for sign, a_new, b_new in _exchange_terms(alpha, beta, i):
        expr = expr - LaurentExpression.term(sign, (PluckerSymbol(a_new), PluckerSymbol(b_new)))
    return expr


def _random_minor_vectors(k: int, n: int, count: int, seed: int) -> list[PluckerVector]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = ExactMatrix(
            [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(k)], QQ
        )
        out.append(maximal_minors(m))
    return out


@lru_cache(maxsize=None)
def _relations_validated(k: int, n: int) -> tuple[LaurentExpression, ...]:
    """Build the full relation table for (k, n) and gate it numerically.

    Every relation must vanish identically on minors of random matrices;
    any nonzero value means the sign convention is wrong and the build
    stops here.
    """
    table = []
    for alpha in enumerate_subsets(k, n):
        for beta in enumerate_subsets(k, n):
            for i in beta.elements:
                if i in alpha:
                    continue
                table.append(_relation_unchecked(alpha, beta, i))
    points = _random_minor_vectors(k, n, _GATE_SAMPLES, _GATE_SEED)
    for rel in table:
        for pt in points:
            if evaluate(rel, pt):
                raise RuntimeError(
                    f"sign convention failed validation for (k={k}, n={n}): {rel!r}"
                )
    return tuple(table)


def relation_table(k: int, n: int) -> tuple[LaurentExpression, ...]:
    """All validated exchange relations for S(k, n)."""
    return _relations_validated(k, n)


def plucker_relation(alpha: KSubset, beta: KSubset, i: int) -> LaurentExpression:
    """The signed exchange relation for (alpha, beta) at element i of beta - alpha."""
    if (alpha.k, alpha.n) != (beta.k, beta.n):
        raise ParameterError("subsets must share (k, n)")
    if i not in beta or i in alpha:
        raise ParameterError(f"{i} must lie in {beta} but not in {alpha}")
    _relations_validated(alpha.k, alpha.n)
    return _relation_unchecked(alpha, beta, i)


@dataclass(frozen=True)
class PrecedesT:
    """The mixed componentwise order on window-avoiding interval members."""

    beta: KSubset
    gamma: KSubset
    t: int

    def family(self):
        return p_set_complement(self.beta, self.gamma, self.t)

    def leq(self, a: KSubset, b: KSubset) -> bool:
        fam = self.family()
        if a not in fam or b not in fam:
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


@lru_cache(maxsize=None)
def _cofactor(beta: KSubset, gamma: KSubset, t: int, alpha: KSubset) -> LaurentExpression:
    pivot = delta(beta, gamma, t)
    if alpha == pivot:
        return LaurentExpression.one()
    k = alpha.k
    i = next((i for i in range(1, t + 1) if alpha(i) > beta(i)), None)
    if i is not None:
        anchor, exchanged = beta, beta(i)
    else:
        i = next((i for i in range(k, t, -1) if alpha(i) < gamma(i)), None)
        if i is None:
            raise RuntimeError(f"{alpha} differs from {pivot} yet matches beta and gamma")
        anchor, exchanged = gamma, gamma(i)
    order = PrecedesT(beta, gamma, t)
    inv = PluckerSymbol(anchor, -1)
    acc = LaurentExpression.zero()
    for sign, a_new, b_new in _exchange_terms(alpha, anchor, exchanged):
        if not (subset_leq(beta, a_new) and subset_leq(a_new, gamma)):
            continue
        if not (subset_leq(beta, b_new) and subset_leq(b_new, gamma)):
            continue
        if not (order.leq(a_new, alpha) and a_new != alpha):
            raise RuntimeError(f"exchange produced {a_new}, not strictly below {alpha}")
        sub = _cofactor(beta, gamma, t, a_new)
        acc = acc + sub.times_term(sign, (PluckerSymbol(b_new), inv))
    return acc


def principal_certificate(
    beta: KSubset, gamma: KSubset, t: int, alpha: KSubset
) -> Certificate:
    """Certificate that the target is a pivot multiple, built by exchange recursion."""
    complement = p_set_complement(beta, gamma, t)
    if alpha not in complement:
        raise ParameterError(f"{alpha} does not avoid the window of ({beta}, {gamma}, t={t})")
    _relations_validated(beta.k, beta.n)
    cof = _cofactor(beta, gamma, t, alpha)
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
    return Certificate(
        target=base.target,
        pivot=base.pivot,
        cofactor=base.cofactor,
        beta=beta,
        gamma=gamma,
        t=t,
        pivot_inverse=inverse,
    )


def verify_certificate(cert: Certificate, points: Iterable[PluckerVector]) -> bool:
    """Exact check of the certificate identity at every supplied point."""
    for point in points:
        try:
            lhs = point[cert.target]
            rhs = point[cert.pivot] * evaluate(cert.cofactor, point)
        except EvaluationError as exc:
            raise EvaluationError(f"{exc} at point {point!r}") from exc
        if lhs != rhs:
            return False
    return True


# Serialization: header lines, then one line per cofactor term.

# A power is nonzero and at most nine digits, so int() and PluckerSymbol accept it.
_SYMBOL_RE = re.compile(r"^(\{[0-9,]+\})(?:\^(-?[1-9][0-9]{0,8}))?$")


def _format_terms(expr: LaurentExpression) -> list[str]:
    lines = []
    for coeff, mono in expr.terms:
        parts = [str(coeff)]
        for s in mono:
            parts.append(str(s.index) if s.power == 1 else f"{s.index}^{s.power}")
        lines.append(" ".join(parts))
    return lines


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
    except (ValueError, ZeroDivisionError) as exc:  # ParseError and ParameterError included
        raise ParseError(str(exc), line=line, column=column) from None


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise ParseError(f"{text!r} is not a nonnegative integer")
    return int(text)


def _k_subset(text: str, k: int, n: int) -> KSubset:
    subset = parse_subset(text, n)
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
        coeff = _at(ln_no, 1, Fraction, toks[0])
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

    n = field(1, "n", _natural)
    k = field(2, "k", _natural)
    beta = field(3, "beta", _k_subset, k, n)
    gamma = field(4, "gamma", _k_subset, k, n)
    t = field(5, "t", _natural)
    target = field(6, "target", _k_subset, k, n)
    pivot = field(7, "pivot", _k_subset, k, n)
    expected = _at(lines[5][0], None, delta, beta, gamma, t)
    if pivot != expected:
        message = f"pivot {pivot} is not delta(beta, gamma, t) = {expected}"
        raise ParseError(message, line=lines[7][0])
    cofactor, nxt = _parse_terms(lines, 9, field(8, "cofactor", _natural), k, n)
    pivot_inverse = None
    if nxt < len(lines):
        count = field(nxt, "pivot-inverse", _natural)
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
