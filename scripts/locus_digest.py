#!/usr/bin/env python3
"""Digest the ``count`` and ``enumerate`` output of every locus of small Grassmannians.

Two versions of the library that print the same digests answer every query
of the corpus identically: the same counts, and the same points listed in
the same order.  The corpus, for Gr(2,4) over GF(3) and Gr(3,5) over GF(2):
the whole Grassmannian, and for every comparable pair (beta, gamma) the
``richardson``, ``open-richardson`` and ``w`` specs and the ``divisor``
spec at every cut t in 1..k-1.  The loci are generated here, not by the
library, so the corpus does not change with it.

Each query runs in process through ``plucker.cli.main``.  Its record is the
argument list, the exit code, stdout and stderr, so an error counts as an
output.

Run: ``PYTHONPATH=src python scripts/locus_digest.py``.
"""

import contextlib
import hashlib
import io
import itertools

from plucker.cli import main

GRASSMANNIANS = ((2, 4, 3), (3, 5, 2))


def braces(subset) -> str:
    return "{" + ",".join(map(str, subset)) + "}"


def loci(k: int, n: int, q: int):
    """Yield the argument list after the command of every locus, in a fixed order."""
    head = ["--k", str(k), "--n", str(n), "--q", str(q)]
    yield head
    subsets = list(itertools.combinations(range(1, n + 1), k))
    for beta, gamma in itertools.product(subsets, repeat=2):
        if not all(b <= g for b, g in zip(beta, gamma)):
            continue
        pair = ["--beta", braces(beta), "--gamma", braces(gamma)]
        for spec in ("richardson", "open-richardson", "w"):
            yield head + ["--spec", spec] + pair
        for t in range(1, k):
            yield head + ["--spec", "divisor"] + pair + ["--t", str(t)]


def record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{' '.join(argv)}\nexit {code}\n{out.getvalue()}{err.getvalue()}"


def main_digest():
    digests = {cmd: hashlib.sha256() for cmd in ("count", "enumerate")}
    total = hashlib.sha256()
    size = 0
    for k, n, q in GRASSMANNIANS:
        for args in loci(k, n, q):
            size += 1
            for cmd, digest in digests.items():
                text = record([cmd] + args).encode()
                digest.update(text)
                total.update(text)
    for cmd, digest in digests.items():
        print(f"{cmd:9} {size:5} loci  {digest.hexdigest()[:16]}")
    print(f"{'all':9} {2 * size:5} queries  {total.hexdigest()[:16]}")


if __name__ == "__main__":
    main_digest()
