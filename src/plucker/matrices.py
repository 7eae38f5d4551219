"""Exact matrices over a field, maximal minors, and the banded parameterization.

The central objects: a k x n matrix yields its vector of maximal minors
(one per column k-subset); a square matrix with nonvanishing leading
minors factors uniquely as unit-lower x diagonal x unit-upper; and for a
comparable pair (beta, gamma) there is a banded matrix space whose rows
carry an invertible entry at column beta(i), free entries strictly
between, a pivot 1 at gamma(i), and zeros elsewhere.  ``phi`` moves a
banded matrix to its reverse reduced echelon form and ``psi`` inverts
that.  Both, and ``ldu``, run one exact routine: unpivoted forward
elimination on a block of columns, which left-multiplies by the inverse
of that block's unit-lower factor (the gamma block for ``phi``, the beta
block for ``psi``).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Iterator

from .errors import DecompositionError, Immutable, ParameterError, ParseError, ShapeError, ascii_int
from .fields import QQ, PrimeField, Rationals
from .subsets import KSubset, _subset_positions, delta, enumerate_subsets, interval, subset_leq


class ExactMatrix(Immutable):
    """An immutable matrix with entries in one exact field."""

    __slots__ = ("field", "rows", "_hash")

    def __init__(self, rows: Iterable[Iterable], field):
        self._set(tuple(tuple(field(x) for x in row) for row in rows), field)

    @classmethod
    def _of_rows(cls, rows: tuple[tuple, ...], field) -> "ExactMatrix":
        """Internal: ``rows`` is already a tuple of tuples of elements of ``field``."""
        m = object.__new__(cls)
        m._set(rows, field)
        return m

    def _set(self, rws: tuple[tuple, ...], field) -> None:
        if not rws or not rws[0]:
            raise ParameterError("matrix must have at least one row and column")
        if len(set(map(len, rws))) > 1:
            raise ParameterError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rws)
        object.__setattr__(self, "_hash", None)

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
        if self._hash is None:  # on first use: most matrices are never hashed
            object.__setattr__(self, "_hash", hash((self.field, self.rows)))
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
        return ExactMatrix._of_rows(tuple(tuple(row[c] for c in idx) for row in self.rows), self.field)

    def det(self):
        """Exact determinant: the one maximal minor of a square matrix.

        It comes from the row-by-row Laplace kernel, which costs about
        n * 2**(n-1) multiplications and caches tables of that size per n:
        meant for the small minors this library uses, not for large n."""
        if self.nrows != self.ncols:
            raise ParameterError("determinant of a non-square matrix")
        return _field_minors(self)[0]


def _dot(row, col, field):
    acc = field.zero
    for x, y in zip(row, col):
        acc = acc + x * y
    return acc


@lru_cache(maxsize=None)
def _expansion(j: int, n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Laplace expansion along row j: for each j-subset of columns, in the lex
    order of ``enumerate_subsets(j, n)``, its terms (sign, column, index of the
    (j-1)-subset without that column), all 0-based."""
    index = {c: i for i, c in enumerate(itertools.combinations(range(n), j - 1))}
    return tuple(
        tuple(((-1) ** (j - 1 - t), c, index[cols[:t] + cols[t + 1 :]]) for t, c in enumerate(cols))
        for cols in itertools.combinations(range(n), j)
    )


def _minors(rows, n: int) -> list:
    """Every maximal minor of ``rows`` (of length n) in lex order, those of rows
    1..j from those of rows 1..j-1.  Only ``+``, ``-`` and ``*`` touch the
    entries, so this runs unchanged on int, ``Fp`` and ``Fraction``."""
    minors = [1]
    for j, row in enumerate(rows, start=1):
        prev, minors = minors, []
        for terms in _expansion(j, n):
            acc = 0
            for s, c, i in terms:
                acc += s * row[c] * prev[i]
            minors.append(acc)
    return minors


def integer_minors(rows, n: int) -> tuple[list[int], int]:
    """The maximal minors of rational (or int) ``rows`` of length n, computed over
    int: each row is scaled by the lcm of its denominators.  Returns the minors of
    the scaled rows and the product of the scales; dividing by it gives the true
    minors, and without the division they are the same point of the Grassmannian."""
    scaled, den = [], 1
    for row in rows:
        scale = math.lcm(*[x.denominator for x in row])
        scaled.append([x.numerator * scale // x.denominator for x in row])
        den *= scale
    return _minors(scaled, n), den


def _sampled_minors(layout, n: int, units: int, count: int, rng: random.Random) -> list:
    """The int maximal minors of ``count`` seeded rational matrices of width n, as
    columns: column p holds the p-th minor, in lex order, of every matrix.  A matrix
    draws ``units`` nonzero entries, then the rest, with the RNG calls of
    ``QQ.random_nonzero`` and ``QQ.random_element``; ``layout`` places them: per row,
    its pivot column (entry 1) or None, and its (column, draw index) pairs, 0-based.
    Rows are scaled by the lcm of their denominators, so each vector is exactly
    ``integer_minors`` of its matrix.  ``_minors``'s recursion runs on whole columns
    with C-level ``map``.  A zero is None and skipped.  A row without draws keeps
    the constant pivot 1, so a minor of such rows only is a constant, 1 or -1, and
    costs no product; a minor that meets a row with draws is a column."""
    width, draws = sum(len(entries) for _, entries in layout), []
    for _ in range(count):  # the units by rejection, as QQ.random_nonzero draws them
        draws += itertools.islice(filter(operator.itemgetter(0), iter(partial(QQ.random_pair, rng), None)), units)
        draws += [QQ.random_pair(rng) for _ in range(width - units)]
    rows = []
    for pivot, entries in layout:
        pairs = [tuple(zip(*draws[e::width])) for _, e in entries]  # (numerators, denominators)
        scale = list(map(math.lcm, *[den for _, den in pairs])) if pairs else 1
        row = {c: list(map(operator.floordiv, map(operator.mul, num, scale), den))
               for (c, _), (num, den) in zip(entries, pairs)}
        rows.append(row if pivot is None else {**row, pivot: scale})
    minors = [1]
    for j, row in enumerate(rows, start=1):
        prev, minors = minors, []
        for terms in _expansion(j, n):
            const, acc = 0, None
            for s, c, i in terms:
                x, y = row.get(c), prev[i]
                if x is None or y is None:
                    continue
                if isinstance(y, int):
                    x, y = y, x
                if isinstance(y, int):
                    const += s * x * y
                    continue
                s, product = (s * x, y) if isinstance(x, int) else (s, map(operator.mul, x, y))
                if acc is None:
                    acc = product if s == 1 else map(operator.neg, product)
                else:
                    acc = map(operator.add if s == 1 else operator.sub, acc, product)
            minors.append((const or None) if acc is None else list(acc))
    zero = [0] * count
    return [zero if m is None else [m] * count if isinstance(m, int) else m for m in minors]


def _field_minors(m: ExactMatrix) -> list:
    """The maximal minors of ``m`` as field elements, computed over int; for a
    rational matrix the row scales of :func:`integer_minors` are undone once at the end."""
    if isinstance(m.field, Rationals):
        minors, den = integer_minors(m.rows, m.ncols)
        return [Fraction(v, den) for v in minors]
    field = m.field
    return [field(v) for v in _minors([[x.value for x in row] for row in m.rows], m.ncols)]


class PluckerVector(Immutable):
    """The full vector of maximal minors, indexed by column k-subsets."""

    __slots__ = ("k", "n", "field", "values", "_hash")

    def __init__(self, k: int, n: int, field, values):
        vals = tuple(values)
        if not 0 < k <= n:
            raise ParameterError(f"need 0 < k <= n, got k={k}, n={n}")
        if len(vals) != math.comb(n, k):
            raise ParameterError("value count does not match the number of k-subsets")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_hash", None)

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
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.k, self.n, self.field, self.values)))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{s}:{v}" for s, v in self.items())
        return f"PluckerVector({body})"


def maximal_minors(m: ExactMatrix) -> PluckerVector:
    """Every k-subset of columns mapped to the determinant of its submatrix."""
    k, n = m.shape
    if k > n:
        raise ParameterError(f"need k <= n, got {k} x {n}")
    return PluckerVector(k, n, m.field, _field_minors(m))


def _clear_lower(m: ExactMatrix, cols) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """Unpivoted forward elimination on the column block ``cols`` (1-based, one
    per row): add multiples of earlier rows to later ones until that block is
    upper triangular.  Returns the reduced rows R and the unit-lower L of the
    multipliers, so that m = L * R and R = L^-1 * m.  A zero pivot means the
    block has a vanishing leading principal minor, reported by its 1-based size.
    """
    one, zero = m.field.one, m.field.zero
    rows = list(m.rows)
    lower = [[one if i == j else zero for j in range(len(rows))] for i in range(len(rows))]
    for i, c in enumerate(cols):
        pivot_row = rows[i]
        pivot = pivot_row[c - 1]
        if not pivot:
            raise DecompositionError(i + 1)
        for r in range(i + 1, len(rows)):
            if rows[r][c - 1]:
                f = lower[r][i] = rows[r][c - 1] / pivot
                rows[r] = tuple(x - f * y for x, y in zip(rows[r], pivot_row))
    return tuple(rows), tuple(map(tuple, lower))


def ldu(s: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Factor a square matrix as unit-lower x invertible-diagonal x unit-upper.

    No row pivoting: a vanishing leading principal minor is a legitimate
    failure, reported with its 1-based index.  :func:`_clear_lower` on every
    column gives the lower factor, and reduced rows that are D times U.
    """
    if s.nrows != s.ncols:
        raise ParameterError("triangular factorization needs a square matrix")
    zero = s.field.zero
    reduced, lower = _clear_lower(s, range(1, s.nrows + 1))
    d = tuple(tuple(x if i == j else zero for j, x in enumerate(row)) for i, row in enumerate(reduced))
    u = tuple(tuple(x / row[i] for x in row) for i, row in enumerate(reduced))
    return tuple(ExactMatrix._of_rows(rows, s.field) for rows in (lower, d, u))


class YShape(Immutable):
    """Per-row structure of the banded matrix space attached to (beta, gamma).

    ``rows`` holds each row's (unit column, pivot column, free columns),
    1-based; ``star_count`` is the number of free entries and ``unit_count``
    the number of rows with a genuinely free invertible entry.
    """

    __slots__ = ("beta", "gamma", "k", "n", "rows", "star_count", "unit_count")

    def __init__(self, beta: KSubset, gamma: KSubset):
        if not subset_leq(beta, gamma):
            raise ParameterError(f"{beta} is not componentwise <= {gamma}")
        rows = tuple((b, g, range(b + 1, g)) for b, g in zip(beta.elements, gamma.elements))
        stars, units = sum(len(free) for _, _, free in rows), sum(g > b for b, g, _ in rows)
        for name, value in zip(self.__slots__, (beta, gamma, beta.k, beta.n, rows, stars, units)):
            object.__setattr__(self, name, value)

    def unit_column(self, i: int) -> int:
        return self.beta(i)

    def pivot_column(self, i: int) -> int:
        return self.gamma(i)

    def free_columns(self, i: int) -> range:
        return range(self.beta(i) + 1, self.gamma(i))


def y_shape_check(m: ExactMatrix, beta: KSubset, gamma: KSubset) -> bool:
    """True iff every row fits the banded pattern of (beta, gamma)."""
    shape = YShape(beta, gamma)
    if m.shape != (shape.k, shape.n):
        return False
    one = m.field.one
    for row, (b, g, _) in zip(m.rows, shape.rows):
        # the pivot is 1, the unit entry nonzero, and nothing outside [b, g]
        if row[g - 1] != one or not row[b - 1] or any(row[: b - 1]) or any(row[g:]):
            return False
    return True


def _build_y(shape: YShape, zero, one, units, frees) -> tuple[tuple, ...]:
    """The rows of the banded matrix of ``shape`` with these unit and free entries."""
    rows = []
    fit = iter(frees)
    uit = iter(units)
    for b, g, free in shape.rows:
        row = [zero] * shape.n
        row[g - 1] = one
        if g > b:
            row[b - 1] = next(uit)
        for j in free:
            row[j - 1] = next(fit)
        rows.append(tuple(row))
    return tuple(rows)


def _layout(shape: YShape) -> tuple:
    """Where ``sample_y`` puts its draws, for ``_sampled_minors``: per row, its pivot
    column and its (column, draw index) pairs, 0-based, the unit entries drawn first."""
    units, frees = itertools.count(), itertools.count(shape.unit_count)
    return tuple(
        (g - 1, (((b - 1, next(units)),) if g > b else ()) + tuple((j - 1, next(frees)) for j in free))
        for b, g, free in shape.rows
    )


def _dense(k: int, n: int) -> tuple:
    """The ``_sampled_minors`` layout of a k x n matrix with every entry drawn, row by row."""
    return tuple((None, tuple((c, i * n + c) for c in range(n))) for i in range(k))


def sample_y(beta: KSubset, gamma: KSubset, field, seed) -> ExactMatrix:
    """A seeded random matrix in the banded space of (beta, gamma)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    shape = YShape(beta, gamma)
    units = [field.random_nonzero(rng) for _ in range(shape.unit_count)]
    frees = [field.random_element(rng) for _ in range(shape.star_count)]
    return ExactMatrix._of_rows(_build_y(shape, field.zero, field.one, units, frees), field)


def enumerate_y(beta: KSubset, gamma: KSubset, field: PrimeField) -> Iterator[ExactMatrix]:
    """All matrices of the banded space over a finite field."""
    shape = YShape(beta, gamma)
    nz = field.nonzero_elements()
    allv = field.elements()
    for units in itertools.product(nz, repeat=shape.unit_count):
        for frees in itertools.product(allv, repeat=shape.star_count):
            yield ExactMatrix._of_rows(_build_y(shape, field.zero, field.one, units, frees), field)


def phi(m: ExactMatrix, beta: KSubset, gamma: KSubset) -> ExactMatrix:
    """Reverse reduced echelon form of a banded matrix: gamma-columns become identity.

    The gamma-column submatrix G of a banded matrix is lower unipotent, so
    unpivoted elimination on the gamma columns meets only pivots 1, ends
    at the identity there, and returns G^-1 * m; as det G = 1, every
    maximal minor is preserved exactly.
    """
    if not y_shape_check(m, beta, gamma):
        raise ShapeError(f"matrix does not fit the banded shape of ({beta}, {gamma})")
    reduced, _ = _clear_lower(m, gamma)
    return ExactMatrix._of_rows(reduced, m.field)


def psi(n_mat: ExactMatrix, beta: KSubset, gamma: KSubset) -> ExactMatrix:
    """Inverse of :func:`phi` on echelon representatives with the right minors.

    Requires identity at the gamma columns.  The beta-column submatrix
    factors as unit-lower L x diagonal x unit-upper exactly when the mixed
    minors are invertible; the same unpivoted elimination as :func:`phi`,
    run on the beta columns, returns L^-1 * n_mat.  A zero pivot
    (:class:`DecompositionError`) signals a violated minor precondition; a
    result outside the banded shape signals garbage input.
    """
    shape = YShape(beta, gamma)
    if n_mat.shape != (shape.k, shape.n):
        raise ParameterError(f"expected a {shape.k} x {shape.n} matrix")
    if n_mat.submatrix_columns(gamma) != ExactMatrix.identity(shape.k, n_mat.field):
        raise ParameterError("gamma-column submatrix must be the identity")
    reduced, _ = _clear_lower(n_mat, beta)
    m = ExactMatrix._of_rows(reduced, n_mat.field)
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
            field = PrimeField(ascii_int(head[2]))
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
                x = field.parse(tok)
                if field.format(x) != tok:  # only the spelling format_matrix writes round-trips
                    raise ParseError(f"entry {tok!r} is not written as {field.format(x)}")
            except ValueError as exc:  # ParseError, or int() refusing a token of over 4300 digits
                raise ParseError(str(exc), line=ln_no, column=col) from None
            row.append(x)
        rows.append(row)
    if not rows:
        raise ParseError("matrix has no rows", line=head_no + 1)
    return ExactMatrix(rows, field)
