"""Smoke tests: the example scripts run and report what they claim."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_parameterization_demo():
    out = run_script("parameterization_demo.py")
    assert "minors preserved: True" in out
    assert "round trip exact: True" in out


def test_divisor_degree_table_is_stable():
    lines = run_script("divisor_degree_table.py").splitlines()
    header, rows = lines[0], lines[2:]
    assert header.split()[-1] == "stable"
    assert rows and all(row.split()[-1] == "True" for row in rows)


def test_param_digest_is_reproducible():
    # the full-corpus digests recorded for phi, psi and ldu
    lines = [line.split() for line in run_script("param_digest.py").splitlines()]
    assert [(line[0], line[-1]) for line in lines] == [
        ("phi/psi", "d77b3327f4c3dc90"),
        ("garbage", "2e10088d6eb53149"),
        ("ldu", "9020da26fc82842e"),
        ("all", "a1ba74326983c7ad"),
    ]


def test_certificate_digest_is_reproducible():
    # the recorded digests of every relation and certificate for k <= 3, n <= 6
    lines = [line.split() for line in run_script("certificate_digest.py").splitlines()]
    assert [(line[0], line[1], line[-1]) for line in lines] == [
        ("relations", "1264", "997f2dc7a1c42bad"),
        ("principal", "1794", "e84f8a06fd6db0a7"),
        ("unit", "438", "fdd3f5d2d0e89d46"),
        ("all", "3496", "b6c38d4d9d61b05e"),
    ]


def test_locus_digest_is_reproducible():
    # the digests of every count and enumerate query of Gr(2,4)/GF(3) and
    # Gr(3,5)/GF(2), recorded before enumeration was read one cell at a time
    lines = [line.split() for line in run_script("locus_digest.py").splitlines()]
    assert [(line[0], line[1], line[-1]) for line in lines] == [
        ("count", "332", "49ac948305c67aa5"),
        ("enumerate", "332", "8cd115f93c9b834d"),
        ("all", "664", "4c37aa80bdba2832"),
    ]
