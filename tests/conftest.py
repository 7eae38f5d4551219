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


@pytest.fixture(scope="session")
def leibniz():
    return leibniz_minor
