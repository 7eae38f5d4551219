#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N --pr P

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` (T is BENCHMARK.json's ``run_seconds``, the same for both
checkouts) once in each checkout, one process at a time; the pairs alternate
which checkout goes first, so that a machine whose speed drifts favours
neither.  For every end-to-end metric of CHANGE_DIR's BENCHMARK.json it
records each side's values, median and quartiles (``statistics.quantiles``
with n=4, as ``perfbench/spread.py`` does), and how many pairs the change
won, in the metric's ``better`` direction.

The result goes into ``BENCH_<P>.json`` under the key "W seed S"; entries
for other workloads and seeds already in the file are kept, so one file
collects every comparison of a change.  Only the
standard library is used, and nothing under ``perfbench/`` is written
except the scratch directory that ``run.py`` makes and removes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``--trace 0`` run in ``checkout``: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        why = proc.stderr.strip()[-500:]
        raise SystemExit(f"run in {checkout.name} exited with {proc.returncode}: {why}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p, c = summary(parent), summary(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": p,
            "change": c,
            "change_wins": wins,
            "median_gap": p["median"] - c["median"] if lower else c["median"] - p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "relative_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pr", required=True, help="names the output BENCH_<PR>.json")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, seconds)
            runs[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"pair {i + 1} {side:6} wall_s {wall:.3f} correct {result['correct']}", flush=True)
    out_path = Path(f"BENCH_{args.pr}.json")
    doc = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
    doc.setdefault("about", "scripts/bench_pairs.py: alternating parent/change pairs of "
                   "perfbench/run.py --trace 0; medians, quartiles and change wins per metric.")
    doc.setdefault("comparisons", {})[f"{args.workload} seed {args.seed}"] = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": compare(runs, spec["end_to_end"]),
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in doc["comparisons"][f"{args.workload} seed {args.seed}"]["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
              f"{m['unit']}, change wins {m['change_wins']}/{args.pairs}, "
              f"gap {m['median_gap']:.4g} vs parent IQR {m['parent_iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
