"""k-element subsets of {1..n} under the componentwise partial order.

A sorted k-subset ``alpha`` is compared by ``alpha(i) <= alpha'(i)`` for
every position i.  On top of that poset this module builds intervals, the
covering relation, the mixed subsets ``delta(beta, gamma, t)``, the
families cut out by an integer window ``[beta(t+1), gamma(t)]``, cyclic
column shifts, and the boundary/divisor families used by the variety
checks.  Everything is 1-indexed to match the usual column numbering of a
k x n matrix.  A ``SubsetFamily`` is stored as one int, its lex mask: bit i
is set when the i-th subset of ``enumerate_subsets(k, n)`` is a member; the
interval and window families are bitwise expressions in cached masks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import EmptyIntervalError, Immutable, ParameterError, ParseError, as_int, ascii_int


class KSubset(Immutable):
    """An immutable, strictly increasing k-subset of {1..n}.

    ``subset(i)`` (call syntax) returns the i-th smallest element,
    1-indexed.  Comparison operators give the *lexicographic* total order,
    used only for deterministic sorting; the componentwise poset order is
    :func:`subset_leq`.
    """

    __slots__ = ("elements", "n", "_hash")

    def __init__(self, elements: Iterable[int], n: int):
        elems, n = tuple(map(as_int, elements)), as_int(n)
        if not elems:
            raise ParameterError("a k-subset must be nonempty")
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ParameterError(f"elements must be strictly increasing, got {elems}")
        if elems[0] < 1 or elems[-1] > n:
            raise ParameterError(f"elements {elems} out of range 1..{n}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", hash((elems, n)))

    @property
    def k(self) -> int:
        return len(self.elements)

    def __call__(self, i: int) -> int:
        """The i-th smallest element, for i in 1..k."""
        if not 1 <= i <= self.k:
            raise ParameterError(f"position {i} out of range 1..{self.k}")
        return self.elements[i - 1]

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KSubset)
            and self.elements == other.elements
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return self._hash

    # Lexicographic, *not* the poset order.
    def __lt__(self, other: "KSubset") -> bool:
        return self.elements < other.elements

    def __le__(self, other: "KSubset") -> bool:
        return self.elements <= other.elements

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"

    def __repr__(self) -> str:
        return f"KSubset({list(self.elements)}, n={self.n})"

    def replace(self, out_el: int, in_el: int) -> "KSubset":
        """The subset with ``out_el`` removed and ``in_el`` inserted."""
        if out_el not in self.elements:
            raise ParameterError(f"{out_el} not in {self}")
        if in_el in self.elements and in_el != out_el:
            raise ParameterError(f"{in_el} already in {self}")
        new = sorted(e for e in self.elements if e != out_el)
        new.append(in_el)
        new.sort()
        return KSubset(new, self.n)

    def complement(self) -> "KSubset":
        others = [x for x in range(1, self.n + 1) if x not in self.elements]
        return KSubset(others, self.n)


def parse_subset(text: str, n: int) -> KSubset:
    """Parse ``{1,3,4}`` (braces optional) into a KSubset of {1..n}."""
    raw = text.strip()
    if raw.startswith("{") and raw.endswith("}"):
        raw = raw[1:-1]
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ParseError(f"empty subset literal {text!r}")
    try:
        elems = sorted(map(ascii_int, parts))
    except ValueError as exc:
        raise ParseError(f"bad subset literal {text!r}: {exc}") from None
    if len(set(elems)) != len(elems):
        raise ParseError(f"repeated element in subset literal {text!r}")
    return KSubset(elems, n)


class SubsetFamily(Immutable):
    """A finite set of KSubsets sharing the same (k, n), stored as its lex mask
    ``mask``; it iterates in lex order."""

    __slots__ = ("mask", "k", "n")

    def __init__(self, members: Iterable[KSubset], k: int | None = None, n: int | None = None):
        mem = frozenset(members)
        if mem:
            first = next(iter(mem))
            k, n = first.k if k is None else k, first.n if n is None else n
            if any(m.k != k or m.n != n for m in mem):
                raise ParameterError("family members must share (k, n)")
        elif k is None or n is None:
            raise ParameterError("an empty family needs explicit (k, n)")
        self._set(_lex_mask(mem, k, n) if mem else 0, k, n)

    def _set(self, mask: int, k: int, n: int) -> "SubsetFamily":
        for slot, value in zip(self.__slots__, (mask, k, n)):
            object.__setattr__(self, slot, value)
        return self

    members = property(frozenset)  # a frozenset of the members, built on each read

    def __contains__(self, alpha: KSubset) -> bool:
        shape = isinstance(alpha, KSubset) and (alpha.k, alpha.n) == (self.k, self.n)
        return shape and bool(self.mask >> _subset_positions(self.k, self.n)[alpha.elements] & 1)

    def __iter__(self) -> Iterator[KSubset]:
        subsets = enumerate_subsets(self.k, self.n) if self.mask else ()  # an empty family may carry any (k, n)
        return itertools.compress(subsets, map(int, bin(self.mask)[:1:-1]))  # bit 0 first

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, SubsetFamily) and (self.mask, self.k, self.n) == (other.mask, other.k, other.n)

    def __hash__(self) -> int:
        return hash((self.mask, self.k, self.n))

    def __repr__(self) -> str:
        return "SubsetFamily({" + ", ".join(str(m) for m in self) + "}" + f", k={self.k}, n={self.n})"

    def _same_shape(self, other: "SubsetFamily", mask: int) -> "SubsetFamily":
        if (self.k, self.n) != (other.k, other.n):
            raise ParameterError("families must share (k, n)")
        return _family(mask, self.k, self.n)

    def __and__(self, other: "SubsetFamily") -> "SubsetFamily":
        return self._same_shape(other, self.mask & other.mask)

    def __or__(self, other: "SubsetFamily") -> "SubsetFamily":
        return self._same_shape(other, self.mask | other.mask)

    def __sub__(self, other: "SubsetFamily") -> "SubsetFamily":
        return self._same_shape(other, self.mask & ~other.mask)


def _family(mask: int, k: int, n: int) -> SubsetFamily:
    """The family with this lex mask, unchecked: the one constructor from a mask."""
    return object.__new__(SubsetFamily)._set(mask, k, n)


def _lex_mask(subsets: Iterable[KSubset], k: int, n: int) -> int:
    """The lex mask of these members of S(k, n)."""
    pos = _subset_positions(k, n)
    return sum({1 << pos[s.elements] for s in subsets})


class SubsetInterval(Immutable):
    """The interval [lo, hi] in the componentwise order."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: KSubset, hi: KSubset):
        if not subset_leq(lo, hi):
            raise EmptyIntervalError(f"{lo} is not componentwise <= {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, alpha: KSubset) -> bool:
        return subset_leq(self.lo, alpha) and subset_leq(alpha, self.hi)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubsetInterval) and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"SubsetInterval({self.lo}, {self.hi})"

    def family(self) -> SubsetFamily:
        return interval(self.lo, self.hi)


@lru_cache(maxsize=None)
def enumerate_subsets(k: int, n: int) -> tuple[KSubset, ...]:
    """All k-subsets of {1..n} in lexicographic order."""
    if k <= 0 or k > n:
        raise ParameterError(f"need 0 < k <= n, got k={k}, n={n}")
    return tuple(KSubset(c, n) for c in itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _subset_positions(k: int, n: int) -> dict[tuple[int, ...], int]:
    """Each k-subset's elements mapped to its position in ``enumerate_subsets(k, n)``."""
    return {s.elements: i for i, s in enumerate(enumerate_subsets(k, n))}


def _check_pair(a: KSubset, b: KSubset):
    if (a.k, a.n) != (b.k, b.n):
        raise ParameterError(f"mismatched parameters: {a!r} vs {b!r}")


def subset_leq(a: KSubset, b: KSubset) -> bool:
    """Componentwise order: a(i) <= b(i) for every i."""
    _check_pair(a, b)
    return all(x <= y for x, y in zip(a.elements, b.elements))


def interval(beta: KSubset, gamma: KSubset) -> SubsetFamily:
    """All alpha with beta <= alpha <= gamma; an error if beta is not <= gamma."""
    return _family(_interval_mask(beta, gamma), beta.k, beta.n)


@lru_cache(maxsize=None)
def _interval_mask(beta: KSubset, gamma: KSubset) -> int:
    """[beta, gamma] as an int: bit i is set when the i-th subset of
    ``enumerate_subsets(k, n)`` lies in it."""
    if not subset_leq(beta, gamma):
        raise EmptyIntervalError(f"{beta} is not componentwise <= {gamma}")
    subsets = enumerate_subsets(beta.k, beta.n)
    return sum(1 << i for i, a in enumerate(subsets) if subset_leq(beta, a) and subset_leq(a, gamma))


def covers(a: KSubset, b: KSubset) -> bool:
    """True iff b covers a: b equals a with a single element bumped by one."""
    _check_pair(a, b)
    bumped = 0
    for x, y in zip(a.elements, b.elements):
        if x == y:
            continue
        if y == x + 1:
            bumped += 1
        else:
            return False
    return bumped == 1


def _moves(a: KSubset, step: int) -> tuple[KSubset, ...]:
    """Every subset with one element of ``a`` moved by ``step`` to a value in
    1..n not already in ``a``, in lexicographic order; order is kept, as
    the moved value does not pass a neighbour."""
    elems = a.elements
    moved = (
        KSubset(elems[:i] + (x + step,) + elems[i + 1 :], a.n)
        for i, x in enumerate(elems)
        if 1 <= x + step <= a.n and x + step not in elems
    )
    return tuple(sorted(moved))


def upper_covers(a: KSubset) -> tuple[KSubset, ...]:
    """All b with a covered by b, in lexicographic order."""
    return _moves(a, 1)


def lower_covers(a: KSubset) -> tuple[KSubset, ...]:
    """All b covered by a, in lexicographic order."""
    return _moves(a, -1)


def delta(beta: KSubset, gamma: KSubset, t: int) -> KSubset:
    """The mixed subset {beta(1..t)} union {gamma(t+1..k)}.

    t = 0 gives gamma, t = k gives beta; strict increase is automatic from
    beta <= gamma.
    """
    if not subset_leq(beta, gamma):
        raise EmptyIntervalError(f"{beta} is not componentwise <= {gamma}")
    k = beta.k
    if not 0 <= t <= k:
        raise ParameterError(f"t={t} out of range 0..{k}")
    return KSubset(beta.elements[:t] + gamma.elements[t:], beta.n)


def _window(beta: KSubset, gamma: KSubset, t: int) -> tuple[int, int]:
    k = beta.k
    if not 1 <= t <= k - 1:
        raise ParameterError(f"t={t} out of range 1..{k - 1}")
    return beta(t + 1), gamma(t)


@lru_cache(maxsize=None)
def _window_mask(k: int, n: int, lo: int, hi: int) -> int:
    """The lex mask of the subsets of S(k, n) with an element in lo..hi."""
    return sum(1 << i for i, a in enumerate(enumerate_subsets(k, n)) if any(lo <= x <= hi for x in a.elements))


def p_set(beta: KSubset, gamma: KSubset, t: int) -> SubsetFamily:
    """Members of [beta, gamma] meeting the window [beta(t+1), gamma(t)].

    Empty exactly when the window is an empty integer interval.
    """
    lo, hi = _window(beta, gamma, t)
    return _family(_interval_mask(beta, gamma) & _window_mask(beta.k, beta.n, lo, hi), beta.k, beta.n)


def p_set_complement(beta: KSubset, gamma: KSubset, t: int) -> SubsetFamily:
    """Members of [beta, gamma] avoiding the window [beta(t+1), gamma(t)]."""
    return interval(beta, gamma) - i_set(beta, gamma, t)  # an EmptyIntervalError before the window's errors


def avoids_window(alpha: KSubset, beta: KSubset, gamma: KSubset, t: int) -> bool:
    """Whether ``alpha`` lies in ``p_set_complement(beta, gamma, t)``, with its errors."""
    return alpha in p_set_complement(beta, gamma, t)


def i_set(beta: KSubset, gamma: KSubset, t: int) -> SubsetFamily:
    """All of S(k, n) meeting the window [beta(t+1), gamma(t)]."""
    _interval_mask(beta, gamma)  # an EmptyIntervalError before the window's errors
    lo, hi = _window(beta, gamma, t)
    return _family(_window_mask(beta.k, beta.n, lo, hi), beta.k, beta.n)


def cyclic_shift(alpha: KSubset, j: int) -> KSubset:
    """Apply the long cycle j times: every element moves up by j mod n."""
    n = alpha.n
    return KSubset(sorted((x - 1 + j) % n + 1 for x in alpha.elements), n)


def epsilon(beta: KSubset, gamma: KSubset, t: int) -> KSubset:
    """The one-row subset {1, ..., k-1, n - gamma(t) + beta(t+1)}.

    Defined when the window [beta(t+1), gamma(t)] is nonempty; the last
    element then satisfies k < n - gamma(t) + beta(t+1) <= n.
    """
    lo, hi = _window(beta, gamma, t)
    if lo > hi:
        raise ParameterError(
            f"window [{lo},{hi}] is empty; the shifted one-row subset is undefined"
        )
    k, n = beta.k, beta.n
    last = n - hi + lo
    if last < k:
        # Unreachable: last >= k+1 follows from gamma(t) <= n-(k-t) and
        # beta(t+1) >= t+1.  Kept as a loud guard.
        raise ParameterError(f"degenerate last element {last} < k={k}")
    return KSubset(tuple(range(1, k)) + (last,), n)


def sigma_sets(
    beta: KSubset, gamma: KSubset
) -> tuple[frozenset[SubsetFamily], frozenset[SubsetFamily], frozenset[SubsetFamily]]:
    """The three families of boundary positroids attached to (beta, gamma).

    Returns (window families, intervals above covers of beta, intervals
    below covers under gamma); the union is the locus removed from the
    closed interval variety to cut out the banded-parameterization piece.
    """
    _interval_mask(beta, gamma)  # an EmptyIntervalError for an incomparable pair
    k = beta.k
    sigma0 = set()
    for t in range(1, k):
        fam = p_set(beta, gamma, t)
        if len(fam):
            sigma0.add(fam)
    # Far ends are non-strict: when gamma covers beta the degenerate
    # intervals [gamma, gamma] and [beta, beta] are the whole boundary.
    sigma1 = set()
    for bprime in upper_covers(beta):
        if subset_leq(bprime, gamma):
            sigma1.add(interval(bprime, gamma))
    sigma2 = set()
    for gprime in lower_covers(gamma):
        if subset_leq(beta, gprime):
            sigma2.add(interval(beta, gprime))
    return frozenset(sigma0), frozenset(sigma1), frozenset(sigma2)


def subset_rank(alpha: KSubset) -> int:
    """Sum of alpha(i) - i; 0 at {1..k}, k(n-k) at {n-k+1..n}."""
    return sum(x - i for i, x in enumerate(alpha.elements, start=1))


def iter_comparable_pairs(k: int, n: int) -> Iterator[tuple[KSubset, KSubset]]:
    """All pairs (beta, gamma) with beta componentwise <= gamma."""
    subs = enumerate_subsets(k, n)
    for beta in subs:
        for gamma in subs:
            if subset_leq(beta, gamma):
                yield beta, gamma
