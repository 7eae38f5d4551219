"""The processes the benchmark measures; started by run.py, one per unit.

    child.py setup <imports> <config-json> <ready-fd>
        import plucker (and build the sweep config), signal ready, exit.
    child.py sweep <spec-json>
        import plucker, build the config, run the claims in order and
        print one JSON line with each claim's verdict, checks and seconds
        (plus the trace, when the spec asks for one).
    child.py cli <stats-path> <cli-argv...>
        run one traced ``plucker.cli`` query; its stdout is the query's
        output, and the trace goes to <stats-path>.

Ready is one byte on <ready-fd>, so the parent can time set-up from the
moment it spawned the interpreter to the moment the child is ready.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _ready(fd: str) -> None:
    os.write(int(fd), b"r")
    os.close(int(fd))


def _config(overrides: dict):
    from plucker.config import load_config

    return load_config(env={}, overrides=overrides)


def setup(imports: str, overrides: str, fd: str) -> int:
    if imports == "cli":
        import plucker.cli  # noqa: F401
    else:
        import plucker.claims  # noqa: F401

        _config(json.loads(overrides))
    _ready(fd)
    return 0


def sweep(spec_json: str) -> int:
    from plucker.claims import run_claim

    spec = json.loads(spec_json)
    cfg = _config(spec["overrides"])
    tracer = installation = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
    results = []
    try:
        for claim in spec["claims"]:
            if tracer is not None:
                tracer.enter(f"claims.{claim}")
            started = time.perf_counter()
            try:
                report = run_claim(claim, cfg)
                verdict, checks = report.verdict, report.params.get("checks")
            except Exception as exc:  # a crashed claim is a failed operation, not a crashed run
                verdict, checks = f"error: {exc!r}", None
            finally:
                if tracer is not None:
                    tracer.exit()
            results.append(
                {"claim": claim, "verdict": verdict, "checks": checks,
                 "seconds": time.perf_counter() - started}
            )
    finally:
        if installation is not None:
            tracing.uninstall(installation)
    out = {"claims": results}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["absent"] = installation.absent
    print(json.dumps(out))
    return 0


def cli(stats_path: str, argv: list[str]) -> int:
    import plucker.cli
    import tracer as tracing

    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    tracer.enter(f"cli.{argv[0]}")
    try:
        code = plucker.cli.main(argv)
    finally:
        tracer.exit()
        tracing.uninstall(installation)
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.snapshot(), "absent": installation.absent}, fh)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "sweep":
        sys.exit(sweep(*rest))
    sys.exit(cli(rest[0], rest[1:]))
