#!/usr/bin/env python3
"""Digest every exchange relation and every certificate for small (k, n).

Two versions of the library that print the same digests produce the same
relation tables, in the same order, and byte-identical certificates.  For
every k <= ``--max-k`` and k <= n <= ``--max-n`` (defaults 3 and 6):

- ``relations``: the ``repr`` of each relation of ``relation_table(k, n)``,
  in table order;
- ``principal``: ``format_certificate`` of the principal certificate of
  every window-avoiding member alpha, for every comparable pair and cut t;
- ``unit``: ``format_certificate`` of the unit certificate of every
  comparable pair and cut t with an empty window family.

An error is digested as its type and message, so it counts as an output.

Run: ``PYTHONPATH=src python scripts/certificate_digest.py [--max-k K] [--max-n N]``.
"""

import argparse
import hashlib

from plucker import (
    format_certificate,
    iter_comparable_pairs,
    p_set,
    p_set_complement,
    principal_certificate,
    relation_table,
    unit_certificate,
)


def outcome(fn, *args) -> str:
    """The formatted certificate ``fn(*args)``, or the type and message of its error."""
    try:
        return format_certificate(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}\n"


def corpus(max_k: int, max_n: int):
    """Yield (section, record) for every relation and certificate, in a fixed order."""
    for k in range(1, max_k + 1):
        for n in range(k, max_n + 1):
            for rel in relation_table(k, n):
                yield "relations", f"S({k},{n}) {rel!r}\n"
            for beta, gamma in iter_comparable_pairs(k, n):
                for t in range(1, k):
                    for alpha in p_set_complement(beta, gamma, t):
                        yield "principal", outcome(principal_certificate, beta, gamma, t, alpha)
                    if not len(p_set(beta, gamma, t)):
                        yield "unit", outcome(unit_certificate, beta, gamma, t)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=6)
    args = parser.parse_args()
    digests, sizes = {}, {}
    total = hashlib.sha256()
    for section, record in corpus(args.max_k, args.max_n):
        digests.setdefault(section, hashlib.sha256()).update(record.encode())
        sizes[section] = sizes.get(section, 0) + 1
        total.update(record.encode())
    for section, digest in digests.items():
        print(f"{section:9} {sizes[section]:5} records  {digest.hexdigest()[:16]}")
    print(f"{'all':9} {sum(sizes.values()):5} records  {total.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
