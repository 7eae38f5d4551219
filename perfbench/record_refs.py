"""Record the reference outputs the cli-queries checks compare against.

Runs every query the batch generator can draw, in process, through
``plucker.cli.main`` and writes ``reference.txt``: for each locus its
point count and the digest of its sorted ``enumerate`` lines, for each
certificate query the digest of its output.  Counts that have a closed
form are checked against it while recording.

Run from the repository root, once per deliberate change of the
expected outputs:

    PYTHONPATH=src python3 perfbench/record_refs.py
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

import queries


def _run(argv: list[str]) -> str:
    from plucker.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    lines = [
        f"# Reference outputs recorded by record_refs.py at commit {_commit()}.",
        "# locus <k> <n> <q> <spec> <beta> <gamma> <t> <count> <digest of sorted enumerate lines>",
        "# cert <n> <k> <beta> <gamma> <t> <alpha> - <digest of certificate text>",
    ]
    for k, n, q in queries.GRASSMANNIANS:
        for spec in queries.SPECS:
            for locus in queries.loci(k, n, q, spec):
                count = int(_run(locus.argv("count")))
                listing = _run(locus.argv("enumerate"))
                if len(listing.splitlines()) != count:
                    raise SystemExit(f"{locus.key}: count {count} but enumerate lists fewer or more")
                closed = locus.closed_form()
                if closed is not None and closed != count:
                    raise SystemExit(f"{locus.key}: count {count}, closed form {closed}")
                lines.append(f"{locus.key} {count} {queries.lines_digest(listing)}")
            print(f"recorded {k} {n} {q} {spec}", file=sys.stderr, flush=True)
    for n, k in queries.CERT_CASES:
        for cert in queries.certs(n, k):
            lines.append(f"{cert.key} - {queries.text_digest(_run(cert.argv()))}")
        print(f"recorded certificates n={n} k={k}", file=sys.stderr, flush=True)
    queries.REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
