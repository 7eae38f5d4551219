"""Permutations of {1..n}, Bruhat order, and positroids from Bruhat intervals.

The Bruhat order is computed straight from the sorted-prefix criterion:
u <= v iff {u(1..j)} <= {v(1..j)} componentwise for every j.  An interval
[u, v] is enumerated by a walk down Bruhat covers from v, pruned at each
element not above u, so it costs the interval's size, not the group's.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import le
from typing import Iterable

from .errors import BudgetError, Immutable, ParameterError, as_int
from .subsets import KSubset, SubsetFamily, _family, _subset_positions, p_set

_BRUTEFORCE_MAX_N = 6


class Permutation(Immutable):
    """A permutation of {1..n} stored in one-line notation: w(i) = images[i-1]."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(map(as_int, images))
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ParameterError(f"{imgs} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_hash", hash(imgs))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ParameterError(f"position {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.images, start=1):
            inv[x - 1] = i
        return Permutation(inv)


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def long_element(n: int) -> Permutation:
    """w0: i maps to n+1-i."""
    return Permutation(range(n, 0, -1))


def long_cycle(n: int) -> Permutation:
    """The n-cycle sending i to i+1 and n to 1."""
    return Permutation(tuple(range(2, n + 1)) + (1,))


def simple_transposition(t: int, n: int) -> Permutation:
    """s_t: swaps t and t+1, fixes everything else."""
    if not 1 <= t <= n - 1:
        raise ParameterError(f"t={t} out of range 1..{n - 1}")
    imgs = list(range(1, n + 1))
    imgs[t - 1], imgs[t] = imgs[t], imgs[t - 1]
    return Permutation(imgs)


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(u . v)(i) = u(v(i)); right-multiplying by s_t swaps positions t, t+1."""
    if u.n != v.n:
        raise ParameterError(f"size mismatch: {u.n} vs {v.n}")
    return Permutation(u.images[x - 1] for x in v.images)


def pi_k(w: Permutation, k: int) -> KSubset:
    """The set of the first k values of w, sorted."""
    if not 0 < k <= w.n:
        raise ParameterError(f"k={k} out of range 1..{w.n}")
    return KSubset(sorted(w.images[:k]), w.n)


@lru_cache(maxsize=None)
def _prefix_flat(images: tuple[int, ...]) -> tuple[int, ...]:
    # Concatenated sorted prefixes for j = 1..n-1 (j = n is constant).
    n = len(images)
    out: list[int] = []
    for j in range(1, n):
        out.extend(sorted(images[:j]))
    return tuple(out)


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Sorted-prefix criterion for the Bruhat order."""
    if u.n != v.n:
        raise ParameterError(f"size mismatch: {u.n} vs {v.n}")
    fu = _prefix_flat(u.images)
    fv = _prefix_flat(v.images)
    return all(a <= b for a, b in zip(fu, fv))


def _interval(u: Permutation, v: Permutation) -> set[tuple[int, ...]]:
    """The one-line images of every w with u <= w <= v; empty when u is not below v.

    A walk down Bruhat covers from v, pruned at each w that is not >= u
    (``_prefix_flat``).  A cover of w swaps positions i < j with
    w(i) > w(j) and no value between them in positions i+1..j-1.  Bruhat
    intervals are graded, so every w in [u, v] lies on a chain of covers
    down from v, and each element of that chain is >= w >= u, so the
    pruning never cuts it: the walk reaches exactly [u, v].
    """
    if u.n != v.n:
        raise ParameterError(f"size mismatch: {u.n} vs {v.n}")
    fu = _prefix_flat(u.images)

    def above_u(w: tuple[int, ...]) -> bool:
        return all(map(le, fu, _prefix_flat(w)))

    if not above_u(v.images):
        return set()
    seen = {v.images}
    stack = [v.images]
    while stack:
        w = stack.pop()
        for i, wi in enumerate(w):
            low = 0  # the largest value below wi in positions i+1..j-1
            for j in range(i + 1, len(w)):
                wj = w[j]
                if low < wj < wi:
                    low = wj
                    x = w[:i] + (wj,) + w[i + 1 : j] + (wi,) + w[j + 1 :]
                    if x not in seen and above_u(x):
                        seen.add(x)
                        stack.append(x)
    return seen


def bruhat_interval(u: Permutation, v: Permutation) -> frozenset[Permutation]:
    """All w with u <= w <= v; empty when u is not below v."""
    return frozenset(Permutation(w) for w in _interval(u, v))


def grassmannian_perm(alpha: KSubset) -> Permutation:
    """The unique permutation increasing on 1..k and on k+1..n whose first k values are alpha."""
    rest = tuple(x for x in range(1, alpha.n + 1) if x not in alpha.elements)
    return Permutation(alpha.elements + rest)


def positroid_from_interval(u: Permutation, v: Permutation, k: int) -> SubsetFamily:
    """The projected family {first-k-values(w) : u <= w <= v}."""
    if not 0 < k <= u.n:
        raise ParameterError(f"k={k} out of range 1..{u.n}")
    pos = _subset_positions(k, u.n)
    return _family(sum(1 << p for p in {pos[tuple(sorted(w[:k]))] for w in _interval(u, v)}), k, u.n)


def verify_positroidset(beta: KSubset, gamma: KSubset, t: int) -> bool:
    """Check that the window family of (beta, gamma, t) equals the Bruhat projection.

    The projection interval runs from w_beta * s_t up to w_gamma; an empty
    window family must coincide with an empty interval.
    """
    fam = p_set(beta, gamma, t)
    u = compose(grassmannian_perm(beta), simple_transposition(t, beta.n))
    v = grassmannian_perm(gamma)
    projected = positroid_from_interval(u, v, beta.k)
    if len(fam) == 0:
        return len(projected) == 0 and not bruhat_leq(u, v)
    return fam == projected


def is_positroid_bruteforce(family: SubsetFamily, k: int, n: int) -> bool:
    """Exhaustively search for a Bruhat interval projecting onto ``family``.

    Test-oracle quality only: filters the whole group by the sorted-prefix
    criterion, so it shares no code with the walk of ``_interval``.  It
    iterates over candidate pairs (u, v) with u <= v, pruned by the
    order-preservation of the projection and by the up-set of each u,
    computed once per u.  Guarded to small n.
    """
    if n > _BRUTEFORCE_MAX_N:
        raise BudgetError(f"exhaustive positroid search is guarded at n <= {_BRUTEFORCE_MAX_N}")
    if (family.k, family.n) != (k, n):
        raise ParameterError("family parameters disagree with (k, n)")
    if len(family) == 0:
        return False
    members = {m.elements for m in family}
    lo = tuple(min(m[i] for m in members) for i in range(k))
    hi = tuple(max(m[i] for m in members) for i in range(k))
    # (prefix flat, first-k-values) of every w; u projects into the family
    # and below every member, dually for v.
    perms = itertools.permutations(range(1, n + 1))
    table = [(_prefix_flat(w), tuple(sorted(w[:k]))) for w in perms]
    us = [fw for fw, s in table if s in members and all(map(le, s, lo))]
    vs = [fw for fw, s in table if s in members and all(map(le, hi, s))]
    for fu in us:
        up = [(fw, s) for fw, s in table if all(map(le, fu, fw))]
        bad = [fw for fw, s in up if s not in members]
        for fv in vs:
            if not all(map(le, fu, fv)) or any(all(map(le, fw, fv)) for fw in bad):
                continue
            if {s for fw, s in up if all(map(le, fw, fv))} == members:
                return True
    return False
