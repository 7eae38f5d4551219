"""Finite-field point enumeration and set-level checks of the coordinate loci.

Points of the Grassmannian over GF(q) are enumerated as reduced row
echelon representatives, one per row space, grouped by their extreme
vanishing pattern: the componentwise minimum of the nonzero minors is
the pivot set, the maximum is the reverse-pivot set, and the pair
locates the unique open interval stratum containing the point.  On top
of that substrate the module checks, exactly and set-theoretically: the
divisor identity of the window family, the complement description of
the banded-parameterization piece, the cyclically shifted one-row
description of the window locus, and closed point-count formulas.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import reports
from .errors import BudgetError, ParameterError
from .fields import PrimeField, is_prime
from .matrices import ExactMatrix, PluckerVector, _subset_positions
from .reports import ClaimReport
from .subsets import (
    KSubset,
    SubsetFamily,
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


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class VarietySpec:
    """A locus cut out by vanishing and non-vanishing coordinate constraints."""

    k: int
    n: int
    must_vanish: frozenset[KSubset]
    must_not_vanish: frozenset[KSubset]

    def __post_init__(self):
        if self.must_vanish & self.must_not_vanish:
            raise ParameterError("vanishing and non-vanishing constraints overlap")
        for s in itertools.chain(self.must_vanish, self.must_not_vanish):
            if (s.k, s.n) != (self.k, self.n):
                raise ParameterError(f"{s!r} does not live in S({self.k},{self.n})")
        # compiled once; not dataclass fields, so equality and hash stay on the sets
        pos = _subset_positions(self.k, self.n)
        object.__setattr__(self, "_vanish", sum(1 << pos[s.elements] for s in self.must_vanish))
        object.__setattr__(self, "_nonvanish", sum(1 << pos[s.elements] for s in self.must_not_vanish))

    def admits(self, support: int) -> bool:
        """Whether a point with this support lies on the locus.  Bit i of a
        support is set when the i-th subset of ``enumerate_subsets(k, n)`` is nonzero."""
        return not support & self._vanish and support & self._nonvanish == self._nonvanish


@dataclass(frozen=True, slots=True)
class GrPoint:
    """A canonical echelon representative, its minor vector and its support bitmask."""

    matrix: ExactMatrix
    plucker: PluckerVector = dataclasses.field(compare=False)
    support: int = dataclasses.field(compare=False)

    def __repr__(self) -> str:
        return f"GrPoint({self.matrix!r})"


def _det_mod(grid, cols, q: int) -> int:
    k = len(grid)
    if k == 1:
        return grid[0][cols[0]] % q
    if k == 2:
        a, b = grid[0][cols[0]], grid[0][cols[1]]
        c, d = grid[1][cols[0]], grid[1][cols[1]]
        return (a * d - b * c) % q
    if k == 3:
        a, b, c = (grid[0][j] for j in cols)
        d, e, f = (grid[1][j] for j in cols)
        g, h, i = (grid[2][j] for j in cols)
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q
    total = 0
    sign = 1
    for r in range(k):
        sub = [[grid[row][j] for j in cols[1:]] for row in range(k) if row != r]
        minor = _det_mod(sub, tuple(range(k - 1)), q)
        total += sign * grid[r][cols[0]] * minor
        sign = -sign
    return total % q


@lru_cache(maxsize=None)
def _grassmannian_cached(k: int, n: int, q: int) -> tuple[GrPoint, ...]:
    field = PrimeField(q)
    subsets = enumerate_subsets(k, n)
    cols0 = [tuple(e - 1 for e in s.elements) for s in subsets]
    bits = [1 << i for i in range(len(subsets))]
    points = []
    for pivot in subsets:
        piv0 = [e - 1 for e in pivot.elements]
        pivset = set(piv0)
        free = [
            (i, j) for i in range(k) for j in range(n) if j > piv0[i] and j not in pivset
        ]
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(piv0):
            base[i][p] = 1
        for fill in itertools.product(range(q), repeat=len(free)):
            grid = [row[:] for row in base]
            for (i, j), v in zip(free, fill):
                grid[i][j] = v
            vals = [_det_mod(grid, cs, q) for cs in cols0]
            matrix = ExactMatrix(grid, field)
            pv = PluckerVector(k, n, field, [field(v) for v in vals])
            support = sum(itertools.compress(bits, vals))
            points.append(GrPoint(matrix, pv, support))
    assert len(points) == gaussian_binomial(n, k, q)
    return tuple(points)


def enumerate_grassmannian(
    k: int, n: int, q: int, budget: int = DEFAULT_BUDGET
) -> tuple[GrPoint, ...]:
    """One echelon representative per k-space of GF(q)^n, guarded by ``budget``."""
    if not 0 < k <= n:
        raise ParameterError(f"need 0 < k <= n, got k={k}, n={n}")
    if not is_prime(q):
        raise ParameterError(f"{q} is not prime")
    total = gaussian_binomial(n, k, q)
    if total > budget:
        raise BudgetError(
            f"Grassmannian({k},{n}) over GF({q}) has {total} points, over the budget {budget}"
        )
    return _grassmannian_cached(k, n, q)


@lru_cache(maxsize=None)
def richardson_buckets(
    k: int, n: int, q: int
) -> dict[tuple[KSubset, KSubset], tuple[GrPoint, ...]]:
    """Points grouped by (componentwise min, max) of their nonzero minors.

    The two extremes are always attained inside the support, so the key
    is the unique comparable pair whose open interval stratum contains
    the point.
    """
    subsets = enumerate_subsets(k, n)
    buckets: dict[tuple[KSubset, KSubset], list[GrPoint]] = {}
    by_elements = {s.elements: s for s in subsets}
    for point in enumerate_grassmannian(k, n, q):
        support = [s.elements for s, v in zip(subsets, point.plucker.values) if v]
        lo = tuple(min(xs) for xs in zip(*support))
        hi = tuple(max(xs) for xs in zip(*support))
        lo_s, hi_s = by_elements.get(lo), by_elements.get(hi)
        assert lo_s is not None and lo in support, "support lost its minimum"
        assert hi_s is not None and hi in support, "support lost its maximum"
        buckets.setdefault((lo_s, hi_s), []).append(point)
    return {key: tuple(pts) for key, pts in buckets.items()}


def membership(point: GrPoint, spec: VarietySpec) -> bool:
    """All must-vanish coordinates zero and all must-not-vanish nonzero."""
    pv = point.plucker
    if (pv.k, pv.n) != (spec.k, spec.n):
        raise ParameterError("point and spec live on different Grassmannians")
    return spec.admits(point.support)


def _outside(family: SubsetFamily) -> frozenset[KSubset]:
    return frozenset(s for s in enumerate_subsets(family.k, family.n) if s not in family)


def richardson_spec(beta: KSubset, gamma: KSubset, open_: bool = False) -> VarietySpec:
    """Vanishing outside [beta, gamma]; the open version also inverts the endpoints."""
    nonvanish = frozenset({beta, gamma}) if open_ else frozenset()
    return VarietySpec(beta.k, beta.n, _outside(interval(beta, gamma)), nonvanish)


def positroid_spec(family: SubsetFamily) -> VarietySpec:
    """Vanishing of every coordinate outside the family."""
    return VarietySpec(family.k, family.n, _outside(family), frozenset())


def w_spec(beta: KSubset, gamma: KSubset) -> VarietySpec:
    """Open interval stratum with every mixed minor inverted."""
    deltas = frozenset(delta(beta, gamma, i) for i in range(beta.k + 1))
    return VarietySpec(beta.k, beta.n, _outside(interval(beta, gamma)), deltas)


def divisor_spec(beta: KSubset, gamma: KSubset, t: int) -> VarietySpec:
    """The pivot-coordinate zero locus inside the open interval stratum."""
    vanish = _outside(interval(beta, gamma)) | {delta(beta, gamma, t)}
    return VarietySpec(beta.k, beta.n, vanish, frozenset({beta, gamma}))


def open_richardson_points(beta: KSubset, gamma: KSubset, q: int) -> tuple[GrPoint, ...]:
    return richardson_buckets(beta.k, beta.n, q).get((beta, gamma), ())


def closed_richardson_points(beta: KSubset, gamma: KSubset, q: int) -> tuple[GrPoint, ...]:
    out: list[GrPoint] = []
    for (lo, hi), pts in richardson_buckets(beta.k, beta.n, q).items():
        if subset_leq(beta, lo) and subset_leq(hi, gamma):
            out.extend(pts)
    return tuple(out)


def count_points(spec: VarietySpec, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of GF(q) points satisfying the spec, by full enumeration."""
    pts = enumerate_grassmannian(spec.k, spec.n, q, budget)
    return sum(1 for p in pts if membership(p, spec))


def _report(claim: str, params: dict, verdict: str, witness: str | None, started: float) -> ClaimReport:
    return ClaimReport(claim, params, verdict, witness, time.monotonic() - started)


def verify_positroid_divisor(
    beta: KSubset,
    gamma: KSubset,
    t: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    extra_primes: tuple[int, ...] = (2, 3, 5, 7),
) -> ClaimReport:
    """Check: the pivot zero locus inside the open stratum equals the
    window-family variety intersected with the open stratum.

    Both sides are computed from independent constraint sets.  If the
    locus has no points for any tried prime the report is flagged, not
    failed.
    """
    started = time.monotonic()
    params = {"beta": str(beta), "gamma": str(gamma), "t": t, "q": q}
    family = p_set(beta, gamma, t)
    if not len(family):
        raise ParameterError("window family is empty; use the unit certificate check")
    open_spec = richardson_spec(beta, gamma, open_=True)
    pos_spec = positroid_spec(family)
    div_spec = divisor_spec(beta, gamma, t)
    # Both sides are predicates on a point's support, so the two point sets
    # are equal exactly when their sets of supports are; one point stands
    # for each distinct support.
    reps = {p.support: p for p in enumerate_grassmannian(beta.k, beta.n, q, budget)}
    lhs = {s for s in reps if div_spec.admits(s)}
    rhs = {s for s in reps if open_spec.admits(s) and pos_spec.admits(s)}
    if lhs != rhs:
        witness = f"set mismatch at {reps[min(lhs ^ rhs)]!r}"
        return _report("Thm7-divisor", params, reports.FAIL, witness, started)
    if lhs:
        return _report("Thm7-divisor", params, reports.PASS, None, started)
    for q2 in extra_primes:
        try:
            pts2 = enumerate_grassmannian(beta.k, beta.n, q2, budget)
        except BudgetError:
            continue
        if any(div_spec.admits(p.support) for p in pts2):
            return _report(
                "Thm7-divisor", params, reports.PASS, f"nonempty over GF({q2})", started
            )
    return _report(
        "Thm7-divisor",
        params,
        reports.FLAG,
        f"no rational points over GF(q), q in {extra_primes}",
        started,
    )


def verify_complement(
    beta: KSubset, gamma: KSubset, q: int, budget: int = DEFAULT_BUDGET
) -> ClaimReport:
    """Check: the fully-inverted stratum equals the closed interval variety
    minus the union of the boundary and window positroid varieties."""
    started = time.monotonic()
    params = {"beta": str(beta), "gamma": str(gamma), "q": q}
    closed_spec = richardson_spec(beta, gamma)
    inverted_spec = w_spec(beta, gamma)
    removed_specs = [positroid_spec(f) for f in itertools.chain(*sigma_sets(beta, gamma))]
    reps = {p.support: p for p in enumerate_grassmannian(beta.k, beta.n, q, budget)}
    closed = [s for s in reps if closed_spec.admits(s)]
    lhs = {s for s in closed if inverted_spec.admits(s)}
    rhs = {s for s in closed if not any(spec.admits(s) for spec in removed_specs)}
    if lhs != rhs:
        witness = f"set mismatch at {reps[min(lhs ^ rhs)]!r}"
        return _report("S7-complement", params, reports.FAIL, witness, started)
    return _report("S7-complement", params, reports.PASS, None, started)


def verify_shifted_schubert(beta: KSubset, gamma: KSubset, t: int) -> ClaimReport:
    """Purely combinatorial: the window family over all of S(k, n) is the
    cyclic shift, by gamma(t), of the up-set of the one-row subset; and
    restricting to [beta, gamma] recovers the interval window family."""
    started = time.monotonic()
    params = {"beta": str(beta), "gamma": str(gamma), "t": t}
    k, n = beta.k, beta.n
    eps = epsilon(beta, gamma, t)
    upset = [a for a in enumerate_subsets(k, n) if subset_leq(eps, a)]
    shifted = SubsetFamily((cyclic_shift(a, gamma(t)) for a in upset), k, n)
    full = i_set(beta, gamma, t)
    if shifted != full:
        return _report(
            "S7-shifted-schubert",
            params,
            reports.FAIL,
            f"shifted up-set of {eps} differs from the window family",
            started,
        )
    if p_set(beta, gamma, t) != (full & interval(beta, gamma)):
        return _report(
            "S7-shifted-schubert", params, reports.FAIL, "interval restriction failed", started
        )
    return _report("S7-shifted-schubert", params, reports.PASS, None, started)


def verify_w_count(
    beta: KSubset, gamma: KSubset, q: int, budget: int = DEFAULT_BUDGET
) -> ClaimReport:
    """Enumerated size of the fully-inverted stratum vs q^stars * (q-1)^units."""
    from .matrices import YShape

    started = time.monotonic()
    params = {"beta": str(beta), "gamma": str(gamma), "q": q}
    shape = YShape(beta, gamma)
    expected = q**shape.star_count * (q - 1) ** shape.unit_count
    actual = count_points(w_spec(beta, gamma), q, budget)
    if actual != expected:
        return _report(
            "W-count", params, reports.FAIL, f"enumerated {actual}, formula {expected}", started
        )
    return _report("W-count", params, reports.PASS, None, started)


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
    counts = {q: count_points(spec, q, budget) for q in q_list}
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
    m = len(xs)
    coeffs = [Fraction(0)] * m
    for i in range(m):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(m):
            if j == i:
                continue
            basis = _poly_mul_linear(basis, -xs[j])
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return coeffs


def _poly_mul_linear(poly: list[Fraction], constant: Fraction) -> list[Fraction]:
    # poly * (x + constant)
    out = [Fraction(0)] * (len(poly) + 1)
    for d, c in enumerate(poly):
        out[d] += c * constant
        out[d + 1] += c
    return out


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def expected_open_dimension(beta: KSubset, gamma: KSubset) -> int:
    """Rank difference; equals stars plus units of the banded shape."""
    return subset_rank(gamma) - subset_rank(beta)
