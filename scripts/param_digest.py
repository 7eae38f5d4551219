#!/usr/bin/env python3
"""Digest the outputs and exceptions of phi, psi and ldu on a seeded corpus.

Two versions of the library that print the same digests give byte-identical
results on every input of the corpus, errors included.  The corpus, drawn
from ``--seed`` (default 0), over QQ, GF(2) and GF(5):

- ``phi/psi``: banded samples for random comparable pairs, k <= 4, n <= 8,
  sent through phi and the result back through psi;
- ``garbage``: psi on matrices that are the identity at gamma and sparse
  random elsewhere, or that have a perturbed entry; phi on a perturbed
  banded sample;
- ``ldu``: sparse random square matrices of size 1 to 5.

Run: ``PYTHONPATH=src python scripts/param_digest.py [--seed N] [--count N]``.
"""

import argparse
import hashlib
import random

from plucker import QQ, ExactMatrix, PrimeField, format_matrix, iter_comparable_pairs, ldu, phi, psi, sample_y

FIELDS = (QQ, PrimeField(2), PrimeField(5))


def outcome(fn, *args) -> str:
    """The formatted result of ``fn(*args)``, or the type, message and index of its error."""
    try:
        out = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}({getattr(exc, 'index', None)}): {exc}"
    return "|".join(format_matrix(m) for m in (out if isinstance(out, tuple) else (out,)))


def sparse(field, rng):
    return field.zero if rng.random() < 0.5 else field.random_element(rng)


def perturbed(m: ExactMatrix, field, rng) -> ExactMatrix:
    rows = [list(row) for row in m.rows]
    rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] = sparse(field, rng)
    return ExactMatrix(rows, field)


def random_pair(rng, pairs):
    k = rng.randint(1, 4)
    n = rng.randint(k, 8)
    if (k, n) not in pairs:
        pairs[k, n] = list(iter_comparable_pairs(k, n))
    return k, n, rng.choice(pairs[k, n])


def corpus(seed: int, count: int):
    """Yield (section, record) for every input, in a fixed order."""
    rng = random.Random(seed)
    pairs: dict = {}
    for field in FIELDS:
        for _ in range(count):
            k, n, (beta, gamma) = random_pair(rng, pairs)
            n_mat = phi(sample_y(beta, gamma, field, rng), beta, gamma)
            yield "phi/psi", format_matrix(n_mat) + outcome(psi, n_mat, beta, gamma)
        for _ in range(count // 3):
            k, n, (beta, gamma) = random_pair(rng, pairs)
            rows = [[sparse(field, rng) for _ in range(n)] for _ in range(k)]
            for i, g in enumerate(gamma):
                for r in range(k):
                    rows[r][g - 1] = field.one if r == i else field.zero
            echelon = ExactMatrix(rows, field)
            yield "garbage", outcome(psi, echelon, beta, gamma)
            yield "garbage", outcome(psi, perturbed(echelon, field, rng), beta, gamma)
            banded = perturbed(sample_y(beta, gamma, field, rng), field, rng)
            yield "garbage", outcome(phi, banded, beta, gamma)
        for _ in range(2 * count // 3):
            size = rng.randint(1, 5)
            square = ExactMatrix([[sparse(field, rng) for _ in range(size)] for _ in range(size)], field)
            yield "ldu", outcome(ldu, square)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1500, help="banded samples per field")
    args = parser.parse_args()
    digests, sizes, errors = {}, {}, {}
    total = hashlib.sha256()
    for section, record in corpus(args.seed, args.count):
        digests.setdefault(section, hashlib.sha256()).update(record.encode() + b"\n")
        sizes[section] = sizes.get(section, 0) + 1
        errors[section] = errors.get(section, 0) + ("Error(" in record)
        total.update(record.encode() + b"\n")
    for section, digest in digests.items():
        print(f"{section:8} {sizes[section]:5} inputs {errors[section]:5} errors  {digest.hexdigest()[:16]}")
    print(f"{'all':8} {sum(sizes.values()):5} inputs {sum(errors.values()):5} errors  {total.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
