"""Sweep implementations for every verification claim.

Each function runs one claim over the configured ranges and returns a
single aggregated report; ``run_all`` executes them in a fixed order.
Randomized samples derive their seeds from the configured master seed
and the claim identifier, so verdicts are reproducible and witnesses
change only with the seed.
"""

from __future__ import annotations

import random
import time

from . import __version__, reports
from .certificates import (
    evaluate,
    principal_certificate,
    relation_table,
    unit_certificate,
    verify_certificate,
)
from .config import SweepConfig
from .errors import BudgetError, ParameterError
from .fields import QQ
from .matrices import ExactMatrix, enumerate_y, maximal_minors, phi, psi, sample_y, w_membership
from .permutations import verify_positroidset
from .reports import ClaimReport, RunReport
from .subsets import (
    enumerate_subsets,
    iter_comparable_pairs,
    p_set,
    p_set_complement,
)
from .varieties import (
    divisor_spec,
    enumerate_grassmannian,
    expected_open_dimension,
    interpolate_count_polynomial,
    open_richardson_points,
    verify_complement,
    verify_positroid_divisor,
    verify_shifted_schubert,
    verify_w_count,
)

CLAIM_IDS = (
    "Eq1-relations",
    "Thm3-roundtrip",
    "Thm6-positroidset",
    "Lem4-certificates",
    "Cor5-unit",
    "Thm7-divisor",
    "S7-complement",
    "S7-shifted-schubert",
    "W-count",
)


def _rng(cfg: SweepConfig, claim: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{claim}")


def _finish(claim: str, started: float, checks: int, failures: list[str], notes: list[str]) -> ClaimReport:
    params: dict = {"checks": checks}
    if notes:
        params["notes"] = notes
    if failures:
        verdict = reports.FAIL
    elif checks:
        verdict = reports.PASS
    else:
        verdict = reports.SKIP
    witness = failures[0] if failures else None
    return ClaimReport(claim, params, verdict, witness, time.monotonic() - started)


def claim_relations(cfg: SweepConfig) -> ClaimReport:
    """Every generated exchange relation vanishes on minors of random
    rational matrices; the classical three-term relation shows up."""
    claim = "Eq1-relations"
    started = time.monotonic()
    rng = _rng(cfg, claim)
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    for k, n in cfg.grassmannians():
        try:
            table = relation_table(k, n)
        except RuntimeError as exc:
            failures.append(f"(k={k},n={n}): {exc}")
            continue
        samples = [
            maximal_minors(
                ExactMatrix([[QQ.random_element(rng) for _ in range(n)] for _ in range(k)], QQ)
            )
            for _ in range(cfg.matrix_samples)
        ]
        for rel in table:
            for pt in samples:
                if evaluate(rel, pt):
                    failures.append(f"(k={k},n={n}): relation {rel!r} nonzero")
                    break
            else:
                checks += 1
                continue
            break
        if (k, n) == (2, 4):
            if not any(len(rel.terms) == 3 for rel in table):
                failures.append("no three-term relation found in S(2,4)")
            else:
                notes.append("three-term relation present in S(2,4)")
    return _finish(claim, started, checks, failures, notes)


def claim_thm3_roundtrip(cfg: SweepConfig) -> ClaimReport:
    """Banded-to-echelon and back is the identity, exhaustively over small
    finite fields in S(2,4) and on seeded rational samples in S(2,5), S(3,6)."""
    claim = "Thm3-roundtrip"
    started = time.monotonic()
    rng = _rng(cfg, claim)
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    grs = set(cfg.grassmannians())

    if (2, 4) in grs:
        from .fields import PrimeField

        for q in (2, 3):
            if q not in cfg.primes:
                continue
            field = PrimeField(q)
            for beta, gamma in iter_comparable_pairs(2, 4):
                for m in enumerate_y(beta, gamma, field):
                    nm = phi(m, beta, gamma)
                    if psi(nm, beta, gamma) != m or not w_membership(nm, beta, gamma):
                        failures.append(f"GF({q}) round trip failed at ({beta},{gamma})")
                        break
                    checks += 1
    else:
        notes.append("S(2,4) outside configured ranges")

    for k, n in ((2, 5), (3, 6)):
        if (k, n) not in grs:
            notes.append(f"S({k},{n}) outside configured ranges")
            continue
        pairs = list(iter_comparable_pairs(k, n))
        for _ in range(cfg.rational_samples):
            beta, gamma = pairs[rng.randrange(len(pairs))]
            m = sample_y(beta, gamma, QQ, rng)
            nm = phi(m, beta, gamma)
            if psi(nm, beta, gamma) != m:
                failures.append(f"rational round trip failed at ({beta},{gamma})")
                break
            if phi(psi(nm, beta, gamma), beta, gamma) != nm:
                failures.append(f"echelon round trip failed at ({beta},{gamma})")
                break
            checks += 1
    return _finish(claim, started, checks, failures, notes)


def claim_thm6_positroidset(cfg: SweepConfig) -> ClaimReport:
    """The window family equals the Bruhat-interval projection, for every
    comparable pair and every cut position."""
    claim = "Thm6-positroidset"
    started = time.monotonic()
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        try:
            for beta, gamma in iter_comparable_pairs(k, n):
                for t in range(1, k):
                    if verify_positroidset(beta, gamma, t):
                        checks += 1
                    else:
                        failures.append(f"mismatch at ({beta},{gamma},t={t})")
        except BudgetError as exc:
            notes.append(f"(k={k},n={n}) skipped: {exc}")
    return _finish(claim, started, checks, failures, notes)


def _rational_w_points(beta, gamma, rng, count):
    pts = []
    for _ in range(count):
        m = sample_y(beta, gamma, QQ, rng)
        pts.append(maximal_minors(phi(m, beta, gamma)))
    return pts


def claim_lem4_certificates(cfg: SweepConfig) -> ClaimReport:
    """Window-avoiding interval members all admit certificates, and every
    certificate holds at every enumerated finite-field point of the open
    stratum and at seeded rational points of the inverted piece."""
    claim = "Lem4-certificates"
    started = time.monotonic()
    rng = _rng(cfg, claim)
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            field_points = []
            for q in cfg.primes:
                try:
                    enumerate_grassmannian(k, n, q, cfg.budget)
                except BudgetError as exc:
                    note = f"(k={k},n={n},q={q}) skipped: {exc}"
                    if note not in notes:
                        notes.append(note)
                    continue
                field_points.extend(p.plucker for p in open_richardson_points(beta, gamma, q))
            rational_points = _rational_w_points(beta, gamma, rng, cfg.rational_samples)
            points = field_points + rational_points
            for t in range(1, k):
                for alpha in p_set_complement(beta, gamma, t):
                    try:
                        cert = principal_certificate(beta, gamma, t, alpha)
                    except (ParameterError, RuntimeError) as exc:
                        failures.append(f"no certificate for {alpha} at ({beta},{gamma},t={t}): {exc}")
                        continue
                    if verify_certificate(cert, points):
                        checks += 1
                    else:
                        failures.append(f"certificate failed for {alpha} at ({beta},{gamma},t={t})")
    return _finish(claim, started, checks, failures, notes)


def claim_cor5_unit(cfg: SweepConfig) -> ClaimReport:
    """Whenever the window family is empty, the pivot coordinate vanishes
    nowhere on the open stratum and the recorded inverse is exact."""
    claim = "Cor5-unit"
    started = time.monotonic()
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            for t in range(1, k):
                if len(p_set(beta, gamma, t)):
                    continue
                cert = unit_certificate(beta, gamma, t)
                pivot = cert.pivot
                for q in cfg.primes:
                    try:
                        enumerate_grassmannian(k, n, q, cfg.budget)
                    except BudgetError as exc:
                        note = f"(k={k},n={n},q={q}) skipped: {exc}"
                        if note not in notes:
                            notes.append(note)
                        continue
                    for point in open_richardson_points(beta, gamma, q):
                        pv = point.plucker
                        value = pv[pivot]
                        if not value:
                            failures.append(
                                f"pivot {pivot} vanishes on the open stratum at ({beta},{gamma},q={q})"
                            )
                            break
                        if not verify_certificate(cert, [pv]):
                            failures.append(f"unit certificate failed at ({beta},{gamma},t={t},q={q})")
                            break
                        if value * evaluate(cert.pivot_inverse, pv) != pv.field.one:
                            failures.append(f"pivot inverse wrong at ({beta},{gamma},t={t},q={q})")
                            break
                    else:
                        checks += 1
    return _finish(claim, started, checks, failures, notes)


def claim_thm7_divisor(cfg: SweepConfig) -> ClaimReport:
    """Set equality of the pivot zero locus and the window positroid locus
    inside each open stratum, for every nonempty window family."""
    claim = "Thm7-divisor"
    started = time.monotonic()
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    flagged = 0
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            for t in range(1, k):
                if not len(p_set(beta, gamma, t)):
                    continue
                for q in cfg.primes:
                    try:
                        rep = verify_positroid_divisor(
                            beta, gamma, t, q, cfg.budget, cfg.extra_primes
                        )
                    except BudgetError as exc:
                        note = f"(k={k},n={n},q={q}) skipped: {exc}"
                        if note not in notes:
                            notes.append(note)
                        continue
                    if rep.verdict == reports.FAIL:
                        failures.append(f"{rep.params}: {rep.witness}")
                    else:
                        checks += 1
                        if rep.verdict == reports.FLAG:
                            flagged += 1
                            notes.append(f"no points found: {rep.params}")
    if flagged:
        notes.append(f"{flagged} case(s) flagged for emptiness over all tried primes")
    return _finish(claim, started, checks, failures, notes)


def _spot_pairs(k: int, n: int, rng: random.Random, count: int = 4):
    pairs = list(iter_comparable_pairs(k, n))
    subs = enumerate_subsets(k, n)
    chosen = {(subs[0], subs[-1]), (subs[0], subs[0])}
    while len(chosen) < min(count + 2, len(pairs)):
        chosen.add(pairs[rng.randrange(len(pairs))])
    return sorted(chosen)


def claim_s7_complement(cfg: SweepConfig) -> ClaimReport:
    """The fully-inverted stratum is the closed interval variety minus the
    union of the boundary and window positroid varieties; exhaustive for
    n <= 5, spot-checked over GF(2) at n = 6."""
    claim = "S7-complement"
    started = time.monotonic()
    rng = _rng(cfg, claim)
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    for k, n in cfg.grassmannians():
        if n <= 5:
            qs = cfg.primes
            pair_iter = list(iter_comparable_pairs(k, n))
        else:
            qs = (2,) if 2 in cfg.primes else cfg.primes[:1]
            pair_iter = _spot_pairs(k, n, rng)
            notes.append(f"(k={k},n={n}) spot-checked on {len(pair_iter)} pairs over q={qs}")
        for q in qs:
            try:
                enumerate_grassmannian(k, n, q, cfg.budget)
            except BudgetError as exc:
                notes.append(f"(k={k},n={n},q={q}) skipped: {exc}")
                continue
            for beta, gamma in pair_iter:
                rep = verify_complement(beta, gamma, q, cfg.budget)
                if rep.verdict == reports.FAIL:
                    failures.append(f"{rep.params}: {rep.witness}")
                else:
                    checks += 1
    return _finish(claim, started, checks, failures, notes)


def claim_s7_shifted_schubert(cfg: SweepConfig) -> ClaimReport:
    """The cyclic-shift description of the window locus, plus the interval
    restriction identity, across all applicable parameters."""
    claim = "S7-shifted-schubert"
    started = time.monotonic()
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    from .subsets import i_set, interval

    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            for t in range(1, k):
                if len(p_set(beta, gamma, t)):
                    rep = verify_shifted_schubert(beta, gamma, t)
                    if rep.verdict == reports.FAIL:
                        failures.append(f"{rep.params}: {rep.witness}")
                        continue
                else:
                    if p_set(beta, gamma, t) != (i_set(beta, gamma, t) & interval(beta, gamma)):
                        failures.append(f"restriction identity failed at ({beta},{gamma},t={t})")
                        continue
                checks += 1
    return _finish(claim, started, checks, failures, notes)


def claim_w_count(cfg: SweepConfig) -> ClaimReport:
    """Point counts of the fully-inverted stratum match the closed formula
    in S(2,4) and S(2,5); interpolated divisor counts over the
    interpolation primes have degree one below the stratum dimension."""
    claim = "W-count"
    started = time.monotonic()
    checks = 0
    failures: list[str] = []
    notes: list[str] = []
    grs = set(cfg.grassmannians())
    for k, n in ((2, 4), (2, 5)):
        if (k, n) not in grs:
            notes.append(f"S({k},{n}) outside configured ranges")
            continue
        for q in cfg.primes:
            try:
                enumerate_grassmannian(k, n, q, cfg.budget)
            except BudgetError as exc:
                notes.append(f"(k={k},n={n},q={q}) skipped: {exc}")
                continue
            for beta, gamma in iter_comparable_pairs(k, n):
                rep = verify_w_count(beta, gamma, q, cfg.budget)
                if rep.verdict == reports.FAIL:
                    failures.append(f"{rep.params}: {rep.witness}")
                else:
                    checks += 1
    if (2, 4) in grs:
        for beta, gamma in iter_comparable_pairs(2, 4):
            for t in (1,):
                if not len(p_set(beta, gamma, t)):
                    continue
                result = interpolate_count_polynomial(
                    divisor_spec(beta, gamma, t), cfg.interpolation_primes, cfg.budget
                )
                want = expected_open_dimension(beta, gamma) - 1
                if result["degree"] != want or not result["stable"]:
                    failures.append(
                        f"divisor count degree {result['degree']} (stable={result['stable']}) "
                        f"at ({beta},{gamma},t={t}), expected {want}"
                    )
                else:
                    checks += 1
    else:
        notes.append("S(2,4) outside configured ranges; interpolation skipped")
    return _finish(claim, started, checks, failures, notes)


_CLAIM_FUNCTIONS = {
    "Eq1-relations": claim_relations,
    "Thm3-roundtrip": claim_thm3_roundtrip,
    "Thm6-positroidset": claim_thm6_positroidset,
    "Lem4-certificates": claim_lem4_certificates,
    "Cor5-unit": claim_cor5_unit,
    "Thm7-divisor": claim_thm7_divisor,
    "S7-complement": claim_s7_complement,
    "S7-shifted-schubert": claim_s7_shifted_schubert,
    "W-count": claim_w_count,
}


def run_claim(claim: str, cfg: SweepConfig) -> ClaimReport:
    return _CLAIM_FUNCTIONS[claim](cfg)


def run_all(cfg: SweepConfig) -> RunReport:
    """Run every claim in a fixed order; budget problems degrade to notes."""
    report = RunReport(config=cfg.to_dict(), version=__version__)
    for claim in CLAIM_IDS:
        try:
            report.claims.append(run_claim(claim, cfg))
        except Exception as exc:  # a crashed claim is a failed claim
            report.claims.append(
                ClaimReport(claim, {}, reports.FAIL, f"unhandled error: {exc!r}")
            )
    return report
