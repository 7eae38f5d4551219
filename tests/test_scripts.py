"""Smoke tests: the example scripts run and report what they claim; the benchmark
comparison script counts wins and gaps in each metric's direction."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_report_digest_is_reproducible():
    # the verify-all report without seconds at the default, --budget 1 --seed 7 and --q 5 --budget 200
    lines = [line.split() for line in run_script("report_digest.py").splitlines()]
    assert lines == [
        ["default", "3c5b6473febd0e459a8be6efa55f14f2fd4a77c740f2452304427c3500badc34"],
        ["budget-1-seed-7", "6f068224eb875f2d4fb94a7775578e9fbf034d6a7a5d5d46a5ef1fd9390227ec"],
        ["q-5-budget-200", "d9ca98620690659d6d2472066cb8cf4afb685c143f0a74591476a6dbc96ac64d"],
    ]


def load_script(name):
    """The script as a module, imported by path: scripts/ is not a package."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_compares_in_each_metrics_direction():
    bench = load_script("bench_pairs.py")
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "rate", "unit": "1/s", "better": "higher"},
        {"name": "errors", "unit": "count", "better": "lower"},
    ]
    columns = {
        "parent": {"wall_s": [1.0, 1.2, 1.4, 1.6, 1.8], "rate": [10] * 5, "errors": [0] * 5},
        "change": {"wall_s": [0.5, 1.3, 0.7, 0.8, 0.9], "rate": [12, 9, 11, 10, 13], "errors": [0, 1, 0, 0, 0]},
    }
    runs = {
        side: [{"metrics": {m: {"value": values[i]} for m, values in cols.items()}} for i in range(5)]
        for side, cols in columns.items()
    }
    out = bench.compare(runs, metrics)
    wall, rate, errors = out["wall_s"], out["rate"], out["errors"]
    # a win is strictly better in the metric's direction: ties and losses do not count
    assert (wall["change_wins"], rate["change_wins"], errors["change_wins"]) == (4, 3, 0)
    # median_gap is positive when the change is better, whichever the direction
    assert wall["parent"]["median"] == 1.4 and wall["change"]["median"] == 0.8
    assert wall["median_gap"] == pytest.approx(0.6) and rate["median_gap"] == 1
    # relative_change is signed as the medians move, and undefined from a zero median
    assert wall["relative_change"] == pytest.approx(-0.6 / 1.4) and rate["relative_change"] == pytest.approx(0.1)
    assert errors["relative_change"] is None and errors["median_gap"] == 0
    # quartiles as statistics.quantiles(n=4) takes them
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((1.1, 1.7))
    assert wall["parent_iqr"] == pytest.approx(0.6)
    assert (wall["unit"], rate["better"]) == ("s", "higher")
    assert bench.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "values": [2.5]}
