"""Command line driver.

Subcommands: ``verify-all`` (run every claim, or those named by
``--only``, and write a JSON report),
``certificate`` (print one ideal-membership certificate), ``param``
(apply the banded/echelon maps to a matrix file), ``enumerate`` (list
finite-field points of a locus), ``count`` (count them).

Exit codes: 0 all claims pass, 1 at least one claim fails, 2 bad
configuration or input.

Each command imports only the modules it reads: ``verify-all`` loads
the claims and their config, ``certificate`` the certificates, and the
other commands neither.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import BudgetError, ConfigError, DecompositionError, ParameterError, ParseError, ascii_int
from .matrices import format_matrix, parse_matrix, phi, psi
from .subsets import p_set, parse_subset
from .varieties import (
    DEFAULT_BUDGET,
    VarietySpec,
    _supports,
    candidate_points,
    divisor_spec,
    enumerate_grassmannian,
    membership,
    richardson_spec,
    w_spec,
)

_SPEC_CHOICES = ("grassmannian", "richardson", "open-richardson", "w", "divisor")


def _integer(text: str, signed: bool = False) -> int:
    """An option's ASCII digits, after a ``-`` only if ``signed`` (``errors.ascii_int``);
    argparse reports any other text and exits 2."""
    try:
        return ascii_int(text, signed)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plucker",
        description="Exact verification of Plucker-coordinate loci at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"plucker {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    va = sub.add_parser("verify-all", help="run every verification claim")
    va.add_argument("--config", help="flat key=value configuration file")
    va.add_argument("--seed", type=lambda text: _integer(text, signed=True), help="override the master seed")
    va.add_argument("--q", help="comma-separated primes, overrides the configured list")
    va.add_argument("--budget", type=_integer, help="enumeration budget override")
    va.add_argument("--report", default="plucker_report.json", help="JSON report path")
    va.add_argument(
        "--only", metavar="CLAIM[,CLAIM]", help="run only these claims, reported in the usual order"
    )

    cert = sub.add_parser("certificate", help="print one membership certificate")
    cert.add_argument("--n", type=_integer, required=True)
    cert.add_argument("--beta", required=True)
    cert.add_argument("--gamma", required=True)
    cert.add_argument("--t", type=_integer, required=True)
    cert.add_argument("--alpha", help="target subset; defaults to the unit certificate target")

    par = sub.add_parser("param", help="apply the banded/echelon map to a matrix file")
    par.add_argument("--beta", required=True)
    par.add_argument("--gamma", required=True)
    par.add_argument("--direction", choices=("phi", "psi"), required=True)
    par.add_argument("--matrix-file", required=True)

    for name, helptext in (
        ("enumerate", "list the GF(q) points of a locus"),
        ("count", "count the GF(q) points of a locus"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--k", type=_integer, required=True)
        cmd.add_argument("--n", type=_integer, required=True)
        cmd.add_argument("--q", type=_integer, required=True)
        cmd.add_argument("--spec", choices=_SPEC_CHOICES, default="grassmannian")
        cmd.add_argument("--beta")
        cmd.add_argument("--gamma")
        cmd.add_argument("--t", type=_integer)
        cmd.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    return parser


def _locus_spec(args):
    if args.spec == "grassmannian":
        return None
    if args.beta is None or args.gamma is None:
        raise ParameterError(f"--spec {args.spec} needs --beta and --gamma")
    beta = parse_subset(args.beta, args.n)
    gamma = parse_subset(args.gamma, args.n)
    if beta.k != args.k or gamma.k != args.k:
        raise ParameterError(f"--beta {beta} and --gamma {gamma} must have --k {args.k} elements")
    if args.spec == "richardson":
        return richardson_spec(beta, gamma, open_=False)
    if args.spec == "open-richardson":
        return richardson_spec(beta, gamma, open_=True)
    if args.spec == "w":
        return w_spec(beta, gamma)
    if args.t is None:
        raise ParameterError("--spec divisor needs --t")
    return divisor_spec(beta, gamma, args.t)


def _claim_selection(text: str) -> tuple[str, ...]:
    """The claim ids named in ``text``, in ``CLAIM_IDS`` order."""
    from .claims import CLAIM_IDS

    named = {c.strip() for c in text.split(",") if c.strip()}
    unknown = sorted(named - set(CLAIM_IDS))
    if unknown or not named:
        what = f"unknown claim id(s) {', '.join(unknown)}" if unknown else "--only names no claim"
        raise ConfigError(f"{what}; valid ids: {', '.join(CLAIM_IDS)}")
    return tuple(c for c in CLAIM_IDS if c in named)


def _cmd_verify_all(args) -> int:
    from .claims import CLAIM_IDS, run_all
    from .config import load_config

    only = None if args.only is None else _claim_selection(args.only)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.q is not None:
        overrides["primes"] = args.q
    if args.budget is not None:
        overrides["budget"] = str(args.budget)
    cfg = load_config(path=args.config, overrides=overrides)
    report = run_all(cfg) if only is None else run_all(cfg, only)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    width = max(len(c) for c in CLAIM_IDS)
    for claim in report.claims:
        line = f"{claim.claim:<{width}}  {claim.verdict.upper():<4}  {claim.seconds:7.2f}s"
        if claim.witness:
            line += f"  {claim.witness}"
        print(line)
    print(f"overall: {report.overall.upper()}  (report written to {args.report})")
    return 0 if report.overall == "pass" else 1


def _cmd_certificate(args) -> int:
    from .certificates import format_certificate, principal_certificate, unit_certificate

    beta = parse_subset(args.beta, args.n)
    gamma = parse_subset(args.gamma, args.n)
    if args.alpha is None:
        if len(p_set(beta, gamma, args.t)):
            raise ParameterError("window family is nonempty; pass --alpha for a target")
        cert = unit_certificate(beta, gamma, args.t)
    else:
        alpha = parse_subset(args.alpha, args.n)
        cert = principal_certificate(beta, gamma, args.t, alpha)
    sys.stdout.write(format_certificate(cert))
    return 0


def _cmd_param(args) -> int:
    try:
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read matrix file {args.matrix_file}: {exc}") from None
    matrix = parse_matrix(text)
    beta = parse_subset(args.beta, matrix.ncols)
    gamma = parse_subset(args.gamma, matrix.ncols)
    out = phi(matrix, beta, gamma) if args.direction == "phi" else psi(matrix, beta, gamma)
    sys.stdout.write(format_matrix(out))
    return 0


def _locus_points(args):
    """The points of the locus in enumeration order, read from the cells it allows."""
    spec = _locus_spec(args)
    if spec is None:
        return enumerate_grassmannian(args.k, args.n, args.q, args.budget)
    return [p for p in candidate_points(spec, args.q, args.budget) if membership(p, spec)]


def _cmd_enumerate(args) -> int:
    text = {}  # by id: points share rows (upper ones within a fill, the last within a cell), kept alive
    for point in _locus_points(args):
        print("  ".join([text.get(id(r)) or text.setdefault(id(r), " ".join(map(str, r))) for r in point.rows]))
    return 0


def _cmd_count(args) -> int:
    spec = _locus_spec(args) or VarietySpec(args.k, args.n, frozenset(), frozenset())  # no constraint
    print(sum(_supports(spec, args.q, args.budget).values()))
    return 0


_COMMANDS = {
    "verify-all": _cmd_verify_all,
    "certificate": _cmd_certificate,
    "param": _cmd_param,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, ParameterError, BudgetError, DecompositionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
