"""Finite-field point enumeration and set-level checks of the coordinate loci.

Points of the Grassmannian over GF(q) are enumerated as reduced row
echelon representatives, one per row space, grouped by their extreme
vanishing pattern: the componentwise minimum of the nonzero minors is
the pivot set, the maximum is the reverse-pivot set, and the pair
locates the unique open interval stratum containing the point.  A
point's support and a locus (``VarietySpec``) are lex masks of the
coordinates, so membership is two bitwise tests.  On top of that
substrate the module checks, exactly and set-theoretically: the
divisor identity of the window family, the complement description of
the banded-parameterization piece, the cyclically shifted one-row
description of the window locus, and closed point-count formulas.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import BudgetError, Immutable, ParameterError
from .fields import PrimeField
from .matrices import ExactMatrix, PluckerVector, YShape, _expansion, _minors
from .subsets import (
    KSubset,
    SubsetFamily,
    _interval_mask,
    _family,
    _lex_mask,
    _subset_positions,
    _window,
    cyclic_shift,
    delta,
    enumerate_subsets,
    epsilon,
    i_set,
    interval,
    p_set,
    sigma_sets,
    subset_leq,
    subset_rank,
)

DEFAULT_BUDGET = 10**6
_DIVISOR_PRIMES = (2, 3, 5, 7)  # tried when a divisor has no GF(q) point


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n or q < 2:
        raise ParameterError(f"need 0 <= k <= n and q >= 2, got k={k}, n={n}, q={q}")
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise RuntimeError(f"Gaussian binomial ({n} choose {k})_{q} is not an integer")
    return num // den


class VarietySpec(Immutable):
    """A locus cut out by vanishing and non-vanishing coordinate constraints, stored
    as two lex masks of S(k, n): ``_vanish`` and ``_nonvanish``.  Immutable; the
    frozensets ``must_vanish`` and ``must_not_vanish`` are built on each read."""

    __slots__ = ("k", "n", "_vanish", "_nonvanish")

    def __init__(self, k: int, n: int, must_vanish: frozenset[KSubset], must_not_vanish: frozenset[KSubset]):
        if must_vanish & must_not_vanish:
            raise ParameterError("vanishing and non-vanishing constraints overlap")
        for s in itertools.chain(must_vanish, must_not_vanish):
            if (s.k, s.n) != (k, n):
                raise ParameterError(f"{s!r} does not live in S({k},{n})")
        self._set(k, n, _lex_mask(must_vanish, k, n), _lex_mask(must_not_vanish, k, n))

    def _set(self, k: int, n: int, vanish: int, nonvanish: int) -> "VarietySpec":
        for slot, value in zip(self.__slots__, (k, n, vanish, nonvanish)):
            object.__setattr__(self, slot, value)
        return self

    must_vanish = property(lambda self: _family(self._vanish, self.k, self.n).members)
    must_not_vanish = property(lambda self: _family(self._nonvanish, self.k, self.n).members)

    def _key(self) -> tuple:
        return self.k, self.n, self._vanish, self._nonvanish

    def __eq__(self, other) -> bool:
        return isinstance(other, VarietySpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        texts = (", ".join(map(repr, _family(m, self.k, self.n))) for m in (self._vanish, self._nonvanish))
        sets = ("frozenset({%s})" % text if text else "frozenset()" for text in texts)  # members in lex order
        return "VarietySpec(k={!r}, n={!r}, must_vanish={}, must_not_vanish={})".format(self.k, self.n, *sets)

    def admits(self, support: int) -> bool:
        """Whether a point with this support lies on the locus.  Bit i of a
        support is set when the i-th subset of ``enumerate_subsets(k, n)`` is nonzero."""
        return not support & self._vanish and support & self._nonvanish == self._nonvanish


class GrPoint(Immutable):
    """A reduced echelon representative over GF(q): its rows, the residues of its
    maximal minors in lex order and its support bitmask.  Most checks read only
    the support, so ``matrix`` and ``plucker`` are built each time they are read;
    equality, hash and ``repr`` are those of the matrix."""

    __slots__ = ("rows", "residues", "support", "field")

    def __init__(self, rows: tuple[tuple, ...], residues, support: int, field: PrimeField):
        _set_rows(self, rows)  # the slots' own setters: __setattr__ refuses every write
        _set_residues(self, residues)
        _set_support(self, support)
        _set_field(self, field)

    @property
    def matrix(self) -> ExactMatrix:
        return ExactMatrix._of_rows(self.rows, self.field)

    @property
    def plucker(self) -> PluckerVector:
        field = self.field
        elem = field._elems.__getitem__ if field._elems is not None else field
        return PluckerVector(len(self.rows), len(self.rows[0]), field, map(elem, self.residues))

    def __eq__(self, other) -> bool:
        return isinstance(other, GrPoint) and self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"GrPoint({self.matrix!r})"


_set_rows, _set_residues, _set_support, _set_field = (getattr(GrPoint, a).__set__ for a in GrPoint.__slots__)
_field = lru_cache(maxsize=None)(PrimeField)
_FLAGS = bytes.maketrans(b"\x00\x01", b"01")


def _lane(q: int) -> str:
    """The struct format of one residue lane over GF(q): the smallest native
    width w with 2q <= 2^(w-1), so that a sum of two residues sets no carry out."""
    return next(f for f in "BHIQ" if 2 * q <= 1 << (8 * struct.calcsize(f) - 1))


def _fills(k: int, n: int, q: int, pivot: KSubset) -> Iterator[tuple[tuple, list, bytes, bytes]]:
    """The Schubert cell of ``pivot``, every reduced echelon matrix with those pivot
    columns, one fill of its upper rows at a time, in the order of one product over
    the free entries: yields the upper rows and the last rows, as tuples of ints, the
    points' residue vectors, packed in lanes of format ``_lane(q)``, first point first,
    and their nonzero flags, b"0" or b"1" per lane, last point and last lane first.

    Every k-minor is linear in the last row, so for each fill of the upper rows
    one int holds the minors of all q^m last rows: q^m points of N = C(n, k)
    lanes, w bits each.  A sum of two residues stays below 2q, so no carry
    crosses a lane, and adding 2^(w-1) - q sets a lane's top bit when it is q or more."""
    fmt = _lane(q)
    size, N, m = struct.calcsize(fmt), math.comb(n, k), math.comb(n, k - 1)
    w, top, order = 8 * size, 1 << (8 * size - 1), sys.byteorder  # struct's native order
    piv0 = [e - 1 for e in pivot.elements]
    # one product over the rows' fills is one over every free entry; the last row's vary fastest
    row_fills = []
    for p in piv0:
        cols = [j for j in range(p + 1, n) if j not in piv0]
        entries = (dict(zip(cols, vals)) for vals in itertools.product(range(q), repeat=len(cols)))
        row_fills.append([tuple(free.get(j, int(j == p)) for j in range(n)) for free in entries])
    last_rows = row_fills.pop()
    # out of [u, -u, 0], u the (k-1)-minors of the upper rows: the weight in each
    # k-minor of the last row's pivot column, then of its free columns, and a 0 lane
    where = [{c: i if s > 0 else m + i for s, c, i in terms} for terms in _expansion(k, n)]
    picks = [itemgetter(*(at.get(c, 2 * m) for at in where), 2 * m) for c in range(piv0[-1], n)]
    # 1 in every lane of a block of q^j points, j = 0..m
    ones = [int.from_bytes(struct.pack(fmt, 1) * (q**j * N), order) for j in range(len(picks))]
    pack = struct.Struct(f"{N + 1}{fmt}").pack
    length = len(last_rows) * N * size
    for fill in itertools.product(*row_fills):
        upper = [u % q for u in _minors(fill, n)]
        src = upper + [-u % q for u in upper] + [0]
        pivot_column, *columns = (pack(*pick(src))[: N * size] for pick in picks)
        block = int.from_bytes(pivot_column, order)
        for j, column in enumerate(reversed(columns)):
            # block holds q^j points; digit d adds the column to each of them d times
            step, high, off = int.from_bytes(column * q**j, order), top * ones[j], (top - q) * ones[j]
            pieces = [block]
            for _ in range(q - 1):
                block += step
                block -= (((block + off) & high) >> (w - 1)) * q
                pieces.append(block)
            block = int.from_bytes(b"".join(x.to_bytes(q**j * N * size, order) for x in pieces), order)
        # adding top - 1 sets a lane's top bit when it is nonzero
        nonzero = ((block + (top - 1) * ones[-1]) & top * ones[-1]) >> (w - 1)
        flags = nonzero.to_bytes(length, order)[(size - 1) * (order == "big") :: size].translate(_FLAGS)[::-1]
        yield fill, last_rows, block.to_bytes(length, order), flags


@lru_cache(maxsize=None)
def _cell(k: int, n: int, q: int, pivot: KSubset) -> tuple[GrPoint, ...]:
    """The Schubert cell of ``pivot``: its points in the order of ``_fills``."""
    field, N = _field(q), math.comb(n, k)
    unpack = struct.Struct(f"{N}{_lane(q)}").iter_unpack
    elements: dict[tuple, tuple] = {}  # each upper row's field elements, built once per cell
    points, last = [], []
    for upper_rows, last_rows, residues, flags in _fills(k, n, q, pivot):
        upper = tuple(elements.get(r) or elements.setdefault(r, tuple(map(field, r))) for r in upper_rows)
        last = last or [tuple(map(field, row)) for row in last_rows]  # the same at every fill
        for at, row, vals in zip(range(len(flags) - N, -1, -N), last, unpack(residues)):
            points.append(GrPoint(upper + (row,), vals, int(flags[at : at + N], 2), field))
    return tuple(points)


@lru_cache(maxsize=None)
def _strata(k: int, n: int, q: int, beta: KSubset) -> Mapping[KSubset, array]:
    """The open strata (beta, gamma) that the cell of ``beta`` splits into, read-only:
    each gamma mapped to one ``array`` of format ``_lane(q)``, the residue vectors of its
    points, N = C(n, k) lanes each, in the order of ``_cell``.  It builds no point."""
    fmt, N = _lane(q), math.comb(n, k)
    size = N * struct.calcsize(fmt)
    strata: dict[KSubset, array] = {}
    buffers: dict[bytes, array] = {}  # each flag slice mapped to its stratum's buffer
    for *_, residues, flags in _fills(k, n, q, beta):
        for at, start in zip(range(len(flags) - N, -1, -N), range(0, len(residues), size)):
            bits = flags[at : at + N]
            buffer = buffers.get(bits)
            if buffer is None:
                buffer = buffers[bits] = strata.setdefault(_top(beta, int(bits, 2)), array(fmt))
            buffer.frombytes(residues[start : start + size])
    return MappingProxyType(strata)


def _top(lo: KSubset, support: int) -> KSubset:
    """The componentwise max of the nonzero coordinates of a point of the cell of ``lo``
    with this support.  The min is ``lo``, and the pair is the key of the point's open stratum."""
    subsets = enumerate_subsets(lo.k, lo.n)
    members = [s.elements for i, s in enumerate(subsets) if support >> i & 1]
    if tuple(map(min, zip(*members))) != lo.elements:
        raise RuntimeError("support lost its minimum")
    hi = tuple(map(max, zip(*members)))
    if hi not in members:
        raise RuntimeError("support lost its maximum")
    return subsets[_subset_positions(lo.k, lo.n)[hi]]


@lru_cache(maxsize=None)
def _census(k: int, n: int, q: int, pivot: KSubset) -> Mapping[int, int]:
    """The support census of the cell of ``pivot``, read-only: each support mapped to
    its number of points.  It counts the flag slices of ``_fills``, each read as an int once."""
    N = math.comb(n, k)
    slices: Counter[bytes] = Counter()
    for *_, flags in _fills(k, n, q, pivot):
        slices.update(flags[at : at + N] for at in range(0, len(flags), N))
    return MappingProxyType({int(bits, 2): count for bits, count in slices.items()})


def enumerate_grassmannian(
    k: int, n: int, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[GrPoint, ...]:
    """One echelon representative per k-space of GF(q)^n, guarded by ``budget``:
    the cached Schubert cells, chained in lex order of their pivot sets."""
    _check_budget(k, n, q, budget)
    points = tuple(itertools.chain.from_iterable(_cell(k, n, q, s) for s in enumerate_subsets(k, n)))
    if len(points) != gaussian_binomial(n, k, q):
        raise RuntimeError(f"enumerated {len(points)} points of Gr({k}, {n}) over GF({q}), not their count")
    return points


def _check_budget(k: int, n: int, q: int, budget: int) -> None:
    """Raise unless Gr(k, n) over GF(q) is defined and has at most ``budget`` points."""
    if not 0 < k <= n:
        raise ParameterError(f"need 0 < k <= n, got k={k}, n={n}")
    _field(q)  # rejects q >= 2**31 by size, before any trial division
    total = gaussian_binomial(n, k, q)
    if total > budget:
        raise BudgetError(
            f"Grassmannian({k},{n}) over GF({q}) has {total} points, over the budget {budget}"
        )


def _cells(spec: VarietySpec) -> list[KSubset]:
    """The pivot sets of the cells that can meet ``spec``.  A point's pivot set
    is its lex-first nonzero coordinate, so a spec that makes alpha vanish, or
    inverts a subset before alpha in lex order, admits no point of its cell."""
    upto = (spec._nonvanish & -spec._nonvanish).bit_length() or None  # one past the first inverted
    return [s for i, s in enumerate(enumerate_subsets(spec.k, spec.n)[:upto]) if not spec._vanish >> i & 1]


def candidate_points(spec: VarietySpec, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[GrPoint]:
    """The points of every cell that can meet ``spec``, in enumeration order, once
    the whole Grassmannian passes the budget check; the caller still filters them."""
    _check_budget(spec.k, spec.n, q, budget)
    return itertools.chain.from_iterable(_cell(spec.k, spec.n, q, s) for s in _cells(spec))


def _supports(spec: VarietySpec, q: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Each support ``spec`` admits mapped to its number of GF(q) points, read from the
    census of every cell that can meet it once the whole Grassmannian passes the budget check."""
    _check_budget(spec.k, spec.n, q, budget)
    censuses = (_census(spec.k, spec.n, q, s).items() for s in _cells(spec))
    return {s: count for census in censuses for s, count in census if spec.admits(s)}


def _mismatch(lhs: set[int], rhs: set[int], beta: KSubset, q: int, case: str) -> str | None:
    """None when the two support sets are equal, else the failure text at the last
    enumerated point of the first support in only one, read from its cell: the
    support's lowest bit, as a point's pivot set is its lex-first nonzero coordinate."""
    if lhs == rhs:
        return None
    support, subsets = min(lhs ^ rhs), enumerate_subsets(beta.k, beta.n)
    cell = _cell(beta.k, beta.n, q, subsets[(support & -support).bit_length() - 1])
    return f"set mismatch at {next(p for p in reversed(cell) if p.support == support)!r} in {case}"


def richardson_buckets(
    k: int, n: int, q: int, budget: int = DEFAULT_BUDGET
) -> Mapping[tuple[KSubset, KSubset], tuple[GrPoint, ...]]:
    """Points grouped by (componentwise min, max) of their nonzero minors,
    as a read-only view of the cached grouping.

    The two extremes are always attained inside the support, so the key
    is the unique comparable pair whose open interval stratum contains
    the point.
    """
    _check_budget(k, n, q, budget)
    return _buckets(k, n, q)


@lru_cache(maxsize=None)
def _buckets(k: int, n: int, q: int) -> Mapping[tuple[KSubset, KSubset], tuple[GrPoint, ...]]:
    his: dict[int, KSubset] = {}
    buckets: dict[tuple[KSubset, KSubset], list[GrPoint]] = {}
    for lo in enumerate_subsets(k, n):  # the pivot set of a cell's points is their minimum
        for point in _cell(k, n, q, lo):
            hi = his.get(point.support)
            if hi is None:
                hi = his[point.support] = _top(lo, point.support)
            buckets.setdefault((lo, hi), []).append(point)
    return MappingProxyType({key: tuple(pts) for key, pts in buckets.items()})


def membership(point: GrPoint, spec: VarietySpec) -> bool:
    """All must-vanish coordinates zero and all must-not-vanish nonzero."""
    if (len(point.rows), len(point.rows[0])) != (spec.k, spec.n):
        raise ParameterError("point and spec live on different Grassmannians")
    return spec.admits(point.support)


def _spec(inside: int, k: int, n: int, vanish=(), nonvanish=()) -> VarietySpec:
    """The spec making every coordinate of S(k, n) outside the lex mask ``inside`` and those
    of ``vanish`` vanish and inverting those of ``nonvanish``: the one constructor from masks."""
    vanish = (~inside & (1 << len(enumerate_subsets(k, n))) - 1) | _lex_mask(vanish, k, n)
    nonvanish = _lex_mask(nonvanish, k, n)
    if vanish & nonvanish:
        raise ParameterError("vanishing and non-vanishing constraints overlap")
    return object.__new__(VarietySpec)._set(k, n, vanish, nonvanish)


def richardson_spec(beta: KSubset, gamma: KSubset, open_: bool = False) -> VarietySpec:
    """Vanishing outside [beta, gamma]; the open version also inverts the endpoints."""
    return _spec(_interval_mask(beta, gamma), beta.k, beta.n, nonvanish=(beta, gamma) if open_ else ())


def positroid_spec(family: SubsetFamily) -> VarietySpec:
    """Vanishing of every coordinate outside the family."""
    return _spec(family.mask, family.k, family.n)


def w_spec(beta: KSubset, gamma: KSubset) -> VarietySpec:
    """Open interval stratum with every mixed minor inverted."""
    deltas = [delta(beta, gamma, i) for i in range(beta.k + 1)]
    return _spec(_interval_mask(beta, gamma), beta.k, beta.n, nonvanish=deltas)


def divisor_spec(beta: KSubset, gamma: KSubset, t: int) -> VarietySpec:
    """The pivot-coordinate zero locus inside the open interval stratum."""
    _window(beta, gamma, t)  # t in 1..k-1: delta is gamma at t = 0 and beta at t = k
    return _spec(_interval_mask(beta, gamma), beta.k, beta.n, (delta(beta, gamma, t),), (beta, gamma))


def open_richardson_points(
    beta: KSubset, gamma: KSubset, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[GrPoint, ...]:
    return richardson_buckets(beta.k, beta.n, q, budget).get((beta, gamma), ())


def closed_richardson_points(
    beta: KSubset, gamma: KSubset, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[GrPoint, ...]:
    spec = richardson_spec(beta, gamma)
    return tuple(p for p in candidate_points(spec, q, budget) if spec.admits(p.support))


def count_points(spec: VarietySpec, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of GF(q) points satisfying the spec, by full enumeration."""
    pts = enumerate_grassmannian(spec.k, spec.n, q, budget)
    return sum(1 for p in pts if membership(p, spec))


def verify_positroid_divisor(
    beta: KSubset,
    gamma: KSubset,
    t: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    notes: list[str] | None = None,
) -> str | None:
    """Check: the pivot zero locus inside the open stratum equals the
    window-family variety intersected with the open stratum.  None when
    it holds, else the failure text with its case.

    Both sides are computed from independent constraint sets, over the open
    stratum's supports only.  That is exact: both specs invert beta and gamma and
    kill every coordinate outside [beta, gamma], so each support they admit has
    min beta and max gamma, the key of that stratum's bucket.  A locus with no
    GF(q) point is looked for over the primes of ``_DIVISOR_PRIMES``; if none
    has one, a "no points found" line is added to ``notes``.
    """
    family = p_set(beta, gamma, t)
    if not len(family):
        raise ParameterError("window family is empty; use the unit certificate check")
    open_spec = richardson_spec(beta, gamma, open_=True)
    pos_spec = positroid_spec(family)
    div_spec = divisor_spec(beta, gamma, t)
    # Both sides are predicates on a point's support, so the point sets are equal exactly
    # when their support sets are; unless both are empty, that settles the case.
    stratum = _supports(open_spec, q, budget)  # the census of the cell of beta
    lhs = {s for s in stratum if div_spec.admits(s)}
    rhs = {s for s in stratum if pos_spec.admits(s)}
    if lhs or rhs:
        return _mismatch(lhs, rhs, beta, q, f"({beta},{gamma},t={t},q={q})")
    for q2 in _DIVISOR_PRIMES:
        try:
            if _supports(div_spec, q2, budget):
                return None
        except BudgetError:
            continue
    if notes is not None:
        notes.append(f"no points found: {dict(beta=str(beta), gamma=str(gamma), t=t, q=q)}")
    return None


def verify_complement(
    beta: KSubset, gamma: KSubset, q: int, budget: int = DEFAULT_BUDGET
) -> str | None:
    """Check: the fully-inverted stratum equals the closed interval variety
    minus the union of the boundary and window positroid varieties.  None
    when it holds, else the failure text with its case."""
    inverted_spec = w_spec(beta, gamma)
    removed_specs = [positroid_spec(f) for f in itertools.chain(*sigma_sets(beta, gamma))]
    supports = _supports(richardson_spec(beta, gamma), q, budget)
    lhs = {s for s in supports if inverted_spec.admits(s)}
    rhs = {s for s in supports if not any(spec.admits(s) for spec in removed_specs)}
    return _mismatch(lhs, rhs, beta, q, f"({beta},{gamma},q={q})")


def verify_shifted_schubert(beta: KSubset, gamma: KSubset, t: int) -> str | None:
    """Purely combinatorial: restricting the window family over all of
    S(k, n) to [beta, gamma] recovers the interval window family; and, when
    that is nonempty, the full family is the cyclic shift, by gamma(t), of
    the up-set of the one-row subset.  None when both hold, else the
    failure text with its case."""
    full = i_set(beta, gamma, t)
    family = p_set(beta, gamma, t)
    if len(family):
        eps = epsilon(beta, gamma, t)
        upset = [a for a in enumerate_subsets(beta.k, beta.n) if subset_leq(eps, a)]
        if SubsetFamily((cyclic_shift(a, gamma(t)) for a in upset), beta.k, beta.n) != full:
            return f"shifted up-set of {eps} differs from the window family at ({beta},{gamma},t={t})"
    if family != full & interval(beta, gamma):
        return f"restriction identity failed at ({beta},{gamma},t={t})"
    return None


def verify_w_count(
    beta: KSubset, gamma: KSubset, q: int, budget: int = DEFAULT_BUDGET
) -> str | None:
    """Enumerated size of the fully-inverted stratum vs q^stars * (q-1)^units:
    None when they agree, else the failure text with its case.  It reads only
    the census of the cell of beta, the first subset that w_spec inverts: those
    before it lie outside [beta, gamma], where w_spec makes them vanish."""
    shape = YShape(beta, gamma)
    expected = q**shape.star_count * (q - 1) ** shape.unit_count
    actual = sum(_supports(w_spec(beta, gamma), q, budget).values())
    if actual != expected:
        return f"enumerated {actual}, formula {expected} at ({beta},{gamma},q={q})"
    return None


def interpolate_count_polynomial(
    spec: VarietySpec, q_list: tuple[int, ...], budget: int = DEFAULT_BUDGET
) -> dict:
    """Lagrange-interpolate q -> point count and report the degree.

    The last prime is held out and checked against the interpolant
    through the others; disagreement marks the sample as unstable.  A
    saturated sample (true degree = len(q_list) - 1) always reads as
    unstable, so certify degree d with at least d + 2 primes.  Evidence,
    not proof.
    """
    if len(q_list) < 2:
        raise ParameterError("need at least two sample primes")
    if len(set(q_list)) != len(q_list):
        raise ParameterError("sample primes must be distinct")
    counts = {q: sum(_supports(spec, q, budget).values()) for q in q_list}
    xs = [Fraction(q) for q in q_list]
    ys = [Fraction(counts[q]) for q in q_list]
    coeffs = _lagrange(xs, ys)
    head_coeffs = _lagrange(xs[:-1], ys[:-1])
    stable = _poly_eval(head_coeffs, xs[-1]) == ys[-1]
    degree = len(coeffs) - 1
    while degree > 0 and coeffs[degree] == 0:
        degree -= 1
    return {
        "counts": counts,
        "coefficients": coeffs,
        "degree": degree,
        "stable": stable,
    }


def _lagrange(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    zero = Fraction(0)
    coeffs = [zero] * len(xs)
    for i, xi in enumerate(xs):
        basis, denom = [Fraction(1)], Fraction(1)
        for xj in xs[:i] + xs[i + 1 :]:
            # basis * (x - xj), lowest degree first
            basis = [a - xj * b for a, b in zip([zero] + basis, basis + [zero])]
            denom *= xi - xj
        scale = ys[i] / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return coeffs


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def expected_open_dimension(beta: KSubset, gamma: KSubset) -> int:
    """Rank difference; equals stars plus units of the banded shape."""
    return subset_rank(gamma) - subset_rank(beta)
