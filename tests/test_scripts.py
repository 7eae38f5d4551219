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
    out = run_script("param_digest.py", "--count", "30")
    assert [line.split()[0] for line in out.splitlines()] == ["phi/psi", "garbage", "ldu", "all"]
    assert out == run_script("param_digest.py", "--count", "30")


def test_certificate_digest_is_reproducible():
    out = run_script("certificate_digest.py", "--max-k", "2", "--max-n", "4")
    assert [line.split()[0] for line in out.splitlines()] == ["relations", "principal", "unit", "all"]
    assert out == run_script("certificate_digest.py", "--max-k", "2", "--max-n", "4")
