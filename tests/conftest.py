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
