import itertools

import pytest


def leibniz_minor(rows, cols):
    """Determinant of the columns ``cols`` (0-based) of ``rows`` by the Leibniz
    formula: a sum over permutations, independent of the library's kernel."""
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = (-1) ** inversions
        for r in range(k):
            term = term * rows[r][cols[perm[r]]]
        total = total + term
    return total


def cramer_solve(m, cols):
    """G^-1 * m for the square block G of ``m`` at the 1-based columns ``cols``,
    by Cramer's rule: entry (i, j) is det of G with its i-th column replaced by
    column j of m, over det G.  Independent of the library's elimination."""
    cols = list(cols)
    det_g = m.submatrix_columns(cols).det()
    return [
        [m.submatrix_columns(cols[:i] + [j] + cols[i + 1 :]).det() / det_g for j in range(1, m.ncols + 1)]
        for i in range(len(cols))
    ]


def evaluate_verdict(cert, points):
    """Whether ``point[target] == point[pivot] * evaluate(cofactor, point)`` at
    every point, one field element at a time: the reference for the compiled
    int identity of ``verify_certificate``."""
    from plucker import evaluate

    return all(p[cert.target] == p[cert.pivot] * evaluate(cert.cofactor, p) for p in points)


def evaluate_inverse_verdict(cert, points):
    """Whether ``point[pivot] * evaluate(pivot_inverse, point) == 1`` at every point."""
    from plucker import evaluate

    return all(p[cert.pivot] * evaluate(cert.pivot_inverse, p) == p.field.one for p in points)


def compiled_value(terms, x) -> int:
    """The sum of the compiled ``terms`` at one int vector ``x`` (by position), one
    point and one term at a time: the reference for the column evaluator."""
    total = 0
    for c, mono in terms:
        for i, e in mono:
            c *= x[i] ** e
        total += c
    return total


def holds_point_by_point(identity, groups):
    """Whether the compiled (inverted, terms) ``identity`` holds at every int vector
    of ``groups``, (q, vectors) pairs compared mod q when q is nonzero, read one
    vector at a time up to the first failure: False there, or an EvaluationError
    naming the lex position where an inverted coordinate vanishes first."""
    from plucker import EvaluationError

    inverted, terms = identity
    for q, vectors in groups:
        for x in vectors:
            for p in inverted:
                if not x[p]:
                    raise EvaluationError(f"position {p} vanishes but is inverted")
            value = compiled_value(terms, x)
            if value % q if q else value:
                return False
    return True


@pytest.fixture(scope="session")
def value_oracle():
    return compiled_value


@pytest.fixture(scope="session")
def holds_oracle():
    return holds_point_by_point


@pytest.fixture(scope="session")
def oracle():
    return evaluate_verdict


@pytest.fixture(scope="session")
def inverse_oracle():
    return evaluate_inverse_verdict


@pytest.fixture(scope="session")
def leibniz():
    return leibniz_minor


@pytest.fixture(scope="session")
def cramer():
    return cramer_solve
