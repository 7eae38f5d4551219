#!/usr/bin/env python3
"""Digest the ``verify-all`` JSON report, without its timings, at three configs.

Two versions of the library that print the same digests give the same
verdicts, witnesses, check counts and notes for every claim.  The configs are
the default, ``--budget 1 --seed 7`` and ``--q 5 --budget 200``.  Each report
is built in process, as ``plucker verify-all`` builds it, from the built-in
defaults and these overrides only: no config file and no ``PLUCKER_*``
variable is read.  Each claim's ``seconds`` is dropped before the report's
JSON text is digested with sha256.

Run: ``PYTHONPATH=src python scripts/report_digest.py``.
"""

import hashlib
import json

from plucker.claims import run_all
from plucker.config import load_config

CONFIGS = (
    ("default", {}),
    ("budget-1-seed-7", {"budget": "1", "seed": "7"}),
    ("q-5-budget-200", {"primes": "5", "budget": "200"}),
)


def digest(overrides: dict) -> str:
    """The sha256 of the report's JSON at ``overrides``, every ``seconds`` removed."""
    doc = json.loads(run_all(load_config(env={}, overrides=overrides)).to_json())
    for claim in doc["claims"]:
        del claim["seconds"]
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def main():
    for name, overrides in CONFIGS:
        print(f"{name:16} {digest(overrides)}")


if __name__ == "__main__":
    main()
