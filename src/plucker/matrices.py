"""Exact matrices over a field, maximal minors, and the banded parameterization.

The central objects: a k x n matrix yields its vector of maximal minors
(one per column k-subset); a square matrix with nonvanishing leading
minors factors uniquely as unit-lower x diagonal x unit-upper; and for a
comparable pair (beta, gamma) there is a banded matrix space whose rows
carry an invertible entry at column beta(i), free entries strictly
between, a pivot 1 at gamma(i), and zeros elsewhere.  ``phi`` moves a
banded matrix to its reverse reduced echelon form, ``psi`` inverts that
using the triangular factorization; both are exact.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DecompositionError, ParameterError, ParseError, ShapeError
from .fields import QQ, PrimeField, Rationals
from .subsets import KSubset, delta, enumerate_subsets, interval, subset_leq


class ExactMatrix:
    """An immutable matrix with entries in one exact field."""

    __slots__ = ("field", "rows", "_hash")

    def __init__(self, rows: Iterable[Iterable], field):
        rws = tuple(tuple(field(x) for x in row) for row in rows)
        if not rws or not rws[0]:
            raise ParameterError("matrix must have at least one row and column")
        width = len(rws[0])
        if any(len(r) != width for r in rws):
            raise ParameterError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rws)
        object.__setattr__(self, "_hash", hash((field, rws)))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"

    @classmethod
    def identity(cls, k: int, field) -> "ExactMatrix":
        one, zero = field.one, field.zero
        return cls([[one if i == j else zero for j in range(k)] for i in range(k)], field)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ParameterError("mixed fields")
        if self.ncols != other.nrows:
            raise ParameterError(f"inner dimensions {self.ncols} vs {other.nrows}")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [[_dot(row, col, self.field) for col in cols] for row in self.rows], self.field
        )

    def submatrix_columns(self, cols) -> "ExactMatrix":
        """Columns selected by 1-based indices (a KSubset or iterable)."""
        idx = [c - 1 for c in cols]
        if any(not 0 <= c < self.ncols for c in idx):
            raise ParameterError(f"column selection {list(cols)} out of range")
        return ExactMatrix([[row[c] for c in idx] for row in self.rows], self.field)

    def det(self):
        """Exact determinant via Gaussian elimination with row swaps."""
        if self.nrows != self.ncols:
            raise ParameterError("determinant of a non-square matrix")
        n = self.nrows
        a = [list(row) for row in self.rows]
        sign = 1
        acc = self.field.one
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                return self.field.zero
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                sign = -sign
            pivot = a[col][col]
            acc = acc * pivot
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] / pivot
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return acc if sign == 1 else -acc

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ParameterError("inverse of a non-square matrix")
        n = self.nrows
        one, zero = self.field.one, self.field.zero
        a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ParameterError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            pivot = a[col][col]
            a[col] = [x / pivot for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return ExactMatrix([row[n:] for row in a], self.field)


def _dot(row, col, field):
    acc = field.zero
    for x, y in zip(row, col):
        acc = acc + x * y
    return acc


@lru_cache(maxsize=None)
def _subset_positions(k: int, n: int) -> dict[tuple[int, ...], int]:
    return {s.elements: i for i, s in enumerate(enumerate_subsets(k, n))}


class PluckerVector:
    """The full vector of maximal minors, indexed by column k-subsets."""

    __slots__ = ("k", "n", "field", "values", "_hash")

    def __init__(self, k: int, n: int, field, values):
        vals = tuple(values)
        if len(vals) != len(enumerate_subsets(k, n)):
            raise ParameterError("value count does not match the number of k-subsets")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_hash", hash((k, n, field, vals)))

    def __setattr__(self, name, value):
        raise AttributeError("PluckerVector is immutable")

    def __getitem__(self, alpha):
        key = alpha.elements if isinstance(alpha, KSubset) else tuple(alpha)
        return self.values[_subset_positions(self.k, self.n)[key]]

    def items(self):
        return zip(enumerate_subsets(self.k, self.n), self.values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def with_value(self, alpha: KSubset, value) -> "PluckerVector":
        """A copy with one coordinate replaced (for perturbation tests)."""
        pos = _subset_positions(self.k, self.n)[alpha.elements]
        vals = list(self.values)
        vals[pos] = self.field(value)
        return PluckerVector(self.k, self.n, self.field, vals)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PluckerVector)
            and (self.k, self.n) == (other.k, other.n)
            and self.field == other.field
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{s}:{v}" for s, v in self.items())
        return f"PluckerVector({body})"


def maximal_minors(m: ExactMatrix) -> PluckerVector:
    """Every k-subset of columns mapped to the determinant of its submatrix."""
    k, n = m.shape
    if k > n:
        raise ParameterError(f"need k <= n, got {k} x {n}")
    vals = [m.submatrix_columns(s).det() for s in enumerate_subsets(k, n)]
    return PluckerVector(k, n, m.field, vals)


def verify_plucker_relations(p: PluckerVector) -> bool:
    """True iff every quadratic exchange relation vanishes at ``p``."""
    from .certificates import evaluate, relation_table

    zero = p.field.zero
    return all(evaluate(rel, p) == zero for rel in relation_table(p.k, p.n))


def ldu(s: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Factor a square matrix as unit-lower x invertible-diagonal x unit-upper.

    No row pivoting: a vanishing leading principal minor is a legitimate
    failure, reported with its 1-based index.
    """
    if s.nrows != s.ncols:
        raise ParameterError("triangular factorization needs a square matrix")
    n = s.nrows
    field = s.field
    one, zero = field.one, field.zero
    a = [list(row) for row in s.rows]
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = a[col][col]
        if not pivot:
            raise DecompositionError(col + 1)
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / pivot
                lower[r][col] = f
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    diag = [a[i][i] for i in range(n)]
    d = ExactMatrix([[diag[i] if i == j else zero for j in range(n)] for i in range(n)], field)
    u = ExactMatrix([[a[i][j] / diag[i] for j in range(n)] for i in range(n)], field)
    return ExactMatrix(lower, field), d, u


class YShape:
    """Per-row structure of the banded matrix space attached to (beta, gamma)."""

    __slots__ = ("beta", "gamma")

    def __init__(self, beta: KSubset, gamma: KSubset):
        if not subset_leq(beta, gamma):
            raise ParameterError(f"{beta} is not componentwise <= {gamma}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("YShape is immutable")

    @property
    def k(self) -> int:
        return self.beta.k

    @property
    def n(self) -> int:
        return self.beta.n

    def unit_column(self, i: int) -> int:
        return self.beta(i)

    def pivot_column(self, i: int) -> int:
        return self.gamma(i)

    def free_columns(self, i: int) -> range:
        return range(self.beta(i) + 1, self.gamma(i))

    @property
    def star_count(self) -> int:
        """Number of free entries."""
        return sum(max(self.gamma(i) - self.beta(i) - 1, 0) for i in range(1, self.k + 1))

    @property
    def unit_count(self) -> int:
        """Number of rows with a genuinely free invertible entry."""
        return sum(1 for i in range(1, self.k + 1) if self.gamma(i) > self.beta(i))


def y_shape_check(m: ExactMatrix, beta: KSubset, gamma: KSubset) -> bool:
    """True iff every row fits the banded pattern of (beta, gamma)."""
    shape = YShape(beta, gamma)
    if m.shape != (shape.k, shape.n):
        return False
    one = m.field.one
    for i in range(1, shape.k + 1):
        row = m.rows[i - 1]
        b, g = shape.unit_column(i), shape.pivot_column(i)
        if row[g - 1] != one:
            return False
        if not row[b - 1]:
            return False
        for j in range(1, shape.n + 1):
            if j < b or j > g:
                if row[j - 1]:
                    return False
    return True


def _build_y(shape: YShape, field, units, frees) -> ExactMatrix:
    zero = field.zero
    one = field.one
    rows = []
    fit = iter(frees)
    uit = iter(units)
    for i in range(1, shape.k + 1):
        row = [zero] * shape.n
        b, g = shape.unit_column(i), shape.pivot_column(i)
        row[g - 1] = one
        if g > b:
            row[b - 1] = next(uit)
        for j in shape.free_columns(i):
            row[j - 1] = next(fit)
        rows.append(row)
    return ExactMatrix(rows, field)


def sample_y(beta: KSubset, gamma: KSubset, field, seed) -> ExactMatrix:
    """A seeded random matrix in the banded space of (beta, gamma)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    shape = YShape(beta, gamma)
    units = [field.random_nonzero(rng) for _ in range(shape.unit_count)]
    frees = [field.random_element(rng) for _ in range(shape.star_count)]
    return _build_y(shape, field, units, frees)


def enumerate_y(beta: KSubset, gamma: KSubset, field: PrimeField) -> Iterator[ExactMatrix]:
    """All matrices of the banded space over a finite field."""
    shape = YShape(beta, gamma)
    nz = field.nonzero_elements()
    allv = field.elements()
    for units in itertools.product(nz, repeat=shape.unit_count):
        for frees in itertools.product(allv, repeat=shape.star_count):
            yield _build_y(shape, field, units, frees)


def phi(m: ExactMatrix, beta: KSubset, gamma: KSubset) -> ExactMatrix:
    """Reverse reduced echelon form of a banded matrix: gamma-columns become identity.

    The gamma-column submatrix of a banded matrix is lower unipotent, so
    this left-multiplication preserves every maximal minor exactly.
    """
    if not y_shape_check(m, beta, gamma):
        raise ShapeError(f"matrix does not fit the banded shape of ({beta}, {gamma})")
    return m.submatrix_columns(gamma).inverse() * m


def psi(n_mat: ExactMatrix, beta: KSubset, gamma: KSubset) -> ExactMatrix:
    """Inverse of :func:`phi` on echelon representatives with the right minors.

    Requires identity at the gamma columns; factors the beta-column
    submatrix (unit-lower x diagonal x unit-upper exists exactly when the
    mixed minors are invertible) and clears the lower factor.  A
    factorization failure signals a violated minor precondition; a result
    outside the banded shape signals garbage input.
    """
    shape = YShape(beta, gamma)
    if n_mat.shape != (shape.k, shape.n):
        raise ParameterError(f"expected a {shape.k} x {shape.n} matrix")
    if n_mat.submatrix_columns(gamma) != ExactMatrix.identity(shape.k, n_mat.field):
        raise ParameterError("gamma-column submatrix must be the identity")
    lower, _, _ = ldu(n_mat.submatrix_columns(beta))
    m = lower.inverse() * n_mat
    if not y_shape_check(m, beta, gamma):
        raise ShapeError(
            "result left the banded shape; input minors violate the vanishing preconditions"
        )
    return m


def w_membership(n_mat: ExactMatrix, beta: KSubset, gamma: KSubset) -> bool:
    """Echelon form at gamma, minors vanishing outside [beta, gamma], and
    all k+1 mixed minors invertible."""
    shape = YShape(beta, gamma)
    if n_mat.shape != (shape.k, shape.n):
        return False
    if n_mat.submatrix_columns(gamma) != ExactMatrix.identity(shape.k, n_mat.field):
        return False
    minors = maximal_minors(n_mat)
    box = interval(beta, gamma)
    for alpha, value in minors.items():
        if alpha not in box and value:
            return False
    for i in range(shape.k + 1):
        if not minors[delta(beta, gamma, i)]:
            return False
    return True


# Plain text grid format: a field line, then one row per line.

def format_matrix(m: ExactMatrix) -> str:
    if isinstance(m.field, Rationals):
        head = "field rational"
    elif isinstance(m.field, PrimeField):
        head = f"field gf {m.field.p}"
    else:
        raise ParameterError(f"unknown field {m.field!r}")
    lines = [head]
    for row in m.rows:
        lines.append(" ".join(m.field.format(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ExactMatrix:
    # (physical line number, text) of every line that is neither blank nor a comment
    numbered = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    lines = [(no, ln) for no, ln in numbered if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty matrix text", line=1)
    head_no, head_text = lines[0]
    head = head_text.split()
    if head[:2] == ["field", "rational"] and len(head) == 2:
        field = QQ
    elif head[:2] == ["field", "gf"] and len(head) == 3:
        try:
            field = PrimeField(int(head[2]))
        except (ValueError, ParameterError) as exc:
            raise ParseError(f"bad field line: {exc}", line=head_no) from None
    else:
        raise ParseError(f"bad field line {head_text!r}", line=head_no)
    rows = []
    width = None
    for ln_no, ln in lines[1:]:
        toks = ln.split()
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ParseError(f"expected {width} entries", line=ln_no)
        row = []
        for col, tok in enumerate(toks, start=1):
            try:
                row.append(field.parse(tok))
            except ParseError as exc:
                raise ParseError(str(exc), line=ln_no, column=col) from None
        rows.append(row)
    if not rows:
        raise ParseError("matrix has no rows", line=head_no + 1)
    return ExactMatrix(rows, field)
