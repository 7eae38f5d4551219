"""Benchmark of the plucker verifier.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is taken from ``src/``.
Workloads (closed loop, one client, one process at a time):

  sweep-certify  claims Eq1-relations, Lem4-certificates, Cor5-unit in one
                 fresh interpreter; dominated by ``matrices`` and
                 ``certificates``.
  sweep-strata   claims Thm3-roundtrip, Thm6-positroidset, Thm7-divisor,
                 S7-complement, S7-shifted-schubert, W-count in one fresh
                 interpreter; dominated by ``varieties`` and ``subsets``.
  cli-queries    a seeded batch of one-shot ``python -m plucker.cli``
                 queries, one fresh process each; dominated by cold
                 enumeration.

With ``--trace 0`` a run repeats the workload's unit while the next one
fits in ``--seconds`` (at least once) and reports the end-to-end metrics:
setup_s, wall_s, peak_rss_mb and query_p50_s.  With ``--trace 1`` it runs
the unit untraced, then traced, then untraced on a held-out seed, and
reports the per-layer metrics of the traced unit; trace.overhead_s is its
wall time minus the mean of the two untraced ones.  Every operation (a
claim, or a query) is checked; failures are counted, never dropped.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  All measurement is process-local: perf_counter and getrusage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import queries  # noqa: E402
from tracer import COUNTERS, TARGETS  # noqa: E402

SWEEPS = {
    "sweep-certify": {
        "claims": ["Eq1-relations", "Lem4-certificates", "Cor5-unit"],
        # The default is 100; 25 keeps one unit near 25 s on two cores.
        # The checks counts do not depend on it.
        "overrides": {"rational_samples": "25"},
    },
    "sweep-strata": {
        "claims": [
            "Thm3-roundtrip",
            "Thm6-positroidset",
            "Thm7-divisor",
            "S7-complement",
            "S7-shifted-schubert",
            "W-count",
        ],
        "overrides": {},
    },
}
WORKLOADS = (*SWEEPS, "cli-queries")

# Checks per claim at the configs above; the same on every seed.  A
# sweep that does less work fails here instead of looking faster.
REFERENCE_CHECKS = {
    "Eq1-relations": 1264,
    "Thm3-roundtrip": 329,
    "Thm6-positroidset": 654,
    "Lem4-certificates": 1794,
    "Cor5-unit": 876,
    "Thm7-divisor": 432,
    "S7-complement": 364,
    "S7-shifted-schubert": 654,
    "W-count": 145,
}

SETUP_PROBES = 7
HELDOUT_OFFSET = 7919
RUN_BUDGET_S = 170.0


def end_to_end_names() -> list[tuple[str, str]]:
    return [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("query_p50_s", "s")]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for layer, fnames in TARGETS.items():
        for fname in fnames:
            out += [(f"{layer}.{fname}.calls", "count"), (f"{layer}.{fname}.self_s", "s")]
            out += [(c, "count") for c in COUNTERS if c.startswith(f"{layer}.{fname}.")]
        out.append((f"{layer}.self_s", "s"))
    out += [(f"claims.{c}.s", "s") for c in REFERENCE_CHECKS]
    out.append(("claims.self_s", "s"))
    out += [(f"cli.{c}.s", "s") for c in ("count", "enumerate", "certificate", "param")]
    out += [("cli.output_lines", "count"), ("cli.self_s", "s")]
    out += [("trace.overhead_s", "s"), ("trace.absent_targets", "count")]
    return out


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None


@dataclass
class Unit:
    """One unit of work: its operations (claims or queries) and the
    program invocations that ran them (the sweep process, or one process
    per query), whose latencies are what query_p50_s summarises."""

    wall_s: float
    ops: list[Op]
    invocations: list[Op]
    trace: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)
    output_lines: int = 0


class Runner:
    """Starts the measured processes, each from a fresh interpreter."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str], signal_ready: bool = False):
        """Run one process; returns (returncode, stdout, stderr, seconds, ready seconds).

        A process still running at the run's deadline is killed and
        reported with returncode None.
        """
        start = time.perf_counter()
        rfd = wfd = None
        if signal_ready:
            rfd, wfd = os.pipe()
            argv = argv + [str(wfd)]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT,
            pass_fds=() if wfd is None else (wfd,), text=True,
        )
        ready_s = None
        try:
            if rfd is not None:
                os.close(wfd)
                wait = max(self.deadline - time.perf_counter(), 1.0)
                if select.select([rfd], [], [], wait)[0] and os.read(rfd, 1):
                    ready_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=max(self.deadline - time.perf_counter(), 1.0))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        finally:
            if rfd is not None:
                os.close(rfd)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return code, out, err, time.perf_counter() - start, ready_s

    def setup_probe(self, workload: str) -> float:
        imports = "cli" if workload == "cli-queries" else "claims"
        overrides = json.dumps(SWEEPS.get(workload, {}).get("overrides", {}))
        code, _, err, _, ready_s = self.spawn(
            [sys.executable, str(HERE / "child.py"), "setup", imports, overrides], signal_ready=True
        )
        if code != 0 or ready_s is None:
            raise SystemExit(f"set-up failed: cannot import plucker from {SRC}\n{err}")
        return ready_s

    def sweep(self, workload: str, seed: int, trace: bool) -> Unit:
        spec = dict(SWEEPS[workload])
        spec["overrides"] = dict(spec["overrides"], seed=str(seed))
        spec["trace"] = trace
        code, out, err, seconds, _ = self.spawn(
            [sys.executable, str(HERE / "child.py"), "sweep", json.dumps(spec)]
        )
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if code == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            why = f"sweep process exited with {code}: {err.strip()[-300:]}"
            return Unit(seconds, [Op(c, seconds, why) for c in spec["claims"]], [Op(workload, seconds, why)])
        ops = check_claims(spec["claims"], result["claims"])
        error = next((op.error for op in ops if op.error is not None), None)
        return Unit(seconds, ops, [Op(workload, seconds, error)],
                    result.get("trace", {}), set(result.get("absent", ())))

    def queries(self, seed: int, trace: bool, ref: queries.Reference) -> Unit:
        batch = queries.make_batch(seed, ref)
        ops: list[Op] = []
        wall = 0.0
        unit = Unit(0.0, ops, ops)
        previous = ""
        for i, query in enumerate(batch):
            matrix_file = self.workdir / f"matrix-{i}.txt"
            if query.kind == "param":
                matrix_file.write_text(previous if query.chained else query.matrix_text, encoding="utf-8")
                argv = query.argv + ["--matrix-file", str(matrix_file)]
            else:
                argv = query.argv
            stats = self.workdir / f"trace-{i}.json"
            if trace:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", str(stats), *argv]
            else:
                cmd = [sys.executable, "-m", "plucker.cli", *argv]
            code, out, err, seconds, _ = self.spawn(cmd)
            wall += seconds
            error = queries.check(query, code, out)
            if error is not None and err.strip():
                error += f" ({err.strip().splitlines()[-1]})"
            ops.append(Op(query.kind, seconds, error))
            unit.output_lines += len(out.splitlines())
            previous = out
            if trace and stats.exists():
                merge_trace(unit, json.loads(stats.read_text(encoding="utf-8")))
                stats.unlink()
        unit.wall_s = wall
        return unit

    def unit(self, workload: str, seed: int, trace: bool, ref) -> Unit:
        if workload == "cli-queries":
            return self.queries(seed, trace, ref)
        return self.sweep(workload, seed, trace)


def check_claims(expected: list[str], results: list[dict]) -> list[Op]:
    """One operation per expected claim: pass with the reference checks count."""
    by_claim = {r["claim"]: r for r in results}
    ops = []
    for claim in expected:
        r = by_claim.get(claim)
        if r is None:
            ops.append(Op(claim, 0.0, "no result"))
            continue
        error = None
        if r["verdict"] != "pass":
            error = f"verdict {r['verdict']}"
        elif r["checks"] != REFERENCE_CHECKS[claim]:
            error = f"{r['checks']} checks, expected {REFERENCE_CHECKS[claim]}"
        ops.append(Op(claim, r["seconds"], error))
    return ops


def merge_trace(unit: Unit, part: dict) -> None:
    for kind, values in part["trace"].items():
        into = unit.trace.setdefault(kind, {})
        for name, value in values.items():
            into[name] = into.get(name, 0) + value
    unit.absent.update(part.get("absent", ()))


def layer_metrics(unit: Unit, overhead_s: float) -> dict[str, float]:
    calls = unit.trace.get("calls", {})
    self_s = unit.trace.get("self_s", {})
    total_s = unit.trace.get("total_s", {})
    counters = unit.trace.get("counters", {})
    values: dict[str, float] = {}
    for name, _ in per_layer_names():
        base, _, stat = name.rpartition(".")
        if name == "cli.output_lines":
            values[name] = unit.output_lines
        elif name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "trace.absent_targets":
            values[name] = len(unit.absent)
        elif name in COUNTERS:
            values[name] = counters.get(name, 0)
        elif stat == "calls":
            values[name] = calls.get(base, 0)
        elif stat == "s":
            values[name] = total_s.get(base, 0.0)
        elif "." in base:  # <layer>.<function>.self_s
            values[name] = self_s.get(base, 0.0)
        else:  # <layer>.self_s: every span of the layer
            values[name] = sum((v for k, v in self_s.items() if k.startswith(base + ".")), 0.0)
    return values


def end_to_end_metrics(setup: list[float], units: list[Unit]) -> dict[str, float]:
    calls = [op for u in units for op in u.invocations]
    timed = [op.seconds for op in calls if op.error is None] or [op.seconds for op in calls]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(u.wall_s for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "query_p50_s": statistics.median(timed),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "plucker" / "__init__.py").is_file():
        raise SystemExit(f"no plucker package under {SRC}")
    ref = queries.load_reference() if workload == "cli-queries" else None
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        runner.setup_probe(workload)  # warm-up, so that a bytecode cache is written first
        if trace:
            plain = runner.unit(workload, seed, False, ref)
            traced = runner.unit(workload, seed, True, ref)
            heldout = runner.unit(workload, seed + HELDOUT_OFFSET, False, ref)
            units = [plain, traced, heldout]
            # The untraced units bracket the traced one in time.
            overhead_s = traced.wall_s - (plain.wall_s + heldout.wall_s) / 2
            values = layer_metrics(traced, overhead_s)
            names = per_layer_names()
        else:
            setup = [runner.setup_probe(workload) for _ in range(SETUP_PROBES)]
            units = []
            started = time.perf_counter()
            while True:
                units.append(runner.unit(workload, seed, False, ref))
                elapsed = time.perf_counter() - started
                if elapsed + units[-1].wall_s > seconds:
                    break
            values = end_to_end_metrics(setup, units)
            names = end_to_end_names()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    ops = [op for u in units for op in u.ops]
    failed = [op for op in ops if op.error is not None]
    print(f"workload {workload} seed {seed} units {len(units)} trace {int(trace)} "
          f"python {platform.python_version()} nproc {os.cpu_count()}")
    for op in failed:
        print(f"FAILED {op.name}: {op.error}")
    if trace and traced.absent:
        print("absent targets: " + ", ".join(sorted(traced.absent)))
    for name, unit in names:
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"error_rate {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations failed)")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
