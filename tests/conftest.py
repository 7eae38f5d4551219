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


@pytest.fixture(scope="session")
def leibniz():
    return leibniz_minor


@pytest.fixture(scope="session")
def cramer():
    return cramer_solve
