"""Sweep implementations for every verification claim.

Each claim is a sweep ``(cfg, rng, notes)`` that yields one outcome per
check: ``None`` when the check held, or the failure text when it did not.
One runner, ``_claim``, registers a sweep under its claim id and turns it
into ``(cfg) -> ClaimReport``; ``run_all`` executes the claims in the
order they register.  The runner seeds each sweep's RNG from the
configured master seed and the claim id, so verdicts are reproducible and
witnesses change only with the seed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from operator import itemgetter

from . import __version__
from .certificates import (
    _holds,
    _principal_identity,
    _unit_identities,
    compiled_relations,
    relation_table,
    vanishes,
    verify_certificate,  # noqa: F401  (perfbench's tracer test reads it here)
)
from .config import SweepConfig
from .errors import BudgetError, ParameterError
from .fields import QQ, PrimeField
from .matrices import YShape, _dense, _layout, _sampled_minors, enumerate_y, phi, psi, sample_y, w_membership
from .permutations import verify_positroidset
from .reports import FAIL, PASS, SKIP, ClaimReport, RunReport
from .subsets import _subset_positions, delta, enumerate_subsets, iter_comparable_pairs, p_set, p_set_complement
from .varieties import (
    _check_budget,
    _strata,
    divisor_spec,
    expected_open_dimension,
    interpolate_count_polynomial,
    verify_complement,
    verify_positroid_divisor,
    verify_shifted_schubert,
    verify_w_count,
)

_INTERPOLATION_PRIMES = (2, 3, 5, 7, 11)  # W-count: degree d <= 3 in Gr(2,4) takes d + 2

_CLAIMS: dict = {}  # claim id -> (cfg) -> ClaimReport, in registration order


def _claim(claim: str):
    """Register a sweep as claim ``claim`` and return it as ``(cfg) -> ClaimReport``.

    The claim fails on any failure, with the first one as its witness;
    it passes when at least one check held, and is skipped otherwise."""

    def register(sweep):
        def run(cfg: SweepConfig) -> ClaimReport:
            started = time.monotonic()
            notes: list[str] = []
            outcomes = list(sweep(cfg, random.Random(f"{cfg.seed}:{claim}"), notes))
            failures = [o for o in outcomes if o is not None]
            params: dict = {"checks": len(outcomes) - len(failures)}
            if notes:
                params["notes"] = notes
            if failures:
                verdict = FAIL
            elif params["checks"]:
                verdict = PASS
            else:
                verdict = SKIP
            witness = failures[0] if failures else None
            return ClaimReport(claim, params, verdict, witness, time.monotonic() - started)

        run.__name__, run.__doc__ = sweep.__name__, sweep.__doc__
        _CLAIMS[claim] = run
        return run

    return register


def _fitting_primes(k: int, n: int, primes, budget: int, notes: list[str]):
    """Yield each q in ``primes`` whose Grassmannian Gr(k, n) over GF(q) fits
    ``budget``; for each one that does not, add a "skipped" note once."""
    for q in primes:
        try:
            _check_budget(k, n, q, budget)
        except BudgetError as exc:
            note = f"(k={k},n={n},q={q}) skipped: {exc}"
            if note not in notes:
                notes.append(note)
            continue
        yield q


def _open_strata(k: int, n: int, beta, cfg, notes: list[str]):
    """(q, strata) per fitting q: the open strata of the cell of ``beta``, each gamma
    mapped to its packed buffer."""
    return [(q, _strata(k, n, q, beta)) for q in _fitting_primes(k, n, cfg.primes, cfg.budget, notes)]


def _columns(strata, gamma, N: int) -> list:
    """The open stratum (beta, gamma) of ``strata`` sliced once into its N columns: column
    p holds lane p, the p-th coordinate, of every point; no point gives empty columns."""
    buffer = strata.get(gamma, b"")
    return [buffer[p::N] for p in range(N)]


@_claim("Eq1-relations")
def claim_relations(cfg, rng, notes):
    """Every generated exchange relation vanishes on minors of random
    rational matrices; the classical three-term relation shows up.  Each
    relation is evaluated in compiled form on the int minors of the
    row-scaled matrices, the same points of the Grassmannian, as columns."""
    for k, n in cfg.grassmannians():
        try:
            relations = compiled_relations(k, n)
        except RuntimeError as exc:
            yield f"(k={k},n={n}): {exc}"
            continue
        samples = _sampled_minors(_dense(k, n), n, 0, cfg.matrix_samples, rng)
        for at, terms in enumerate(relations):
            if not vanishes(terms, samples):
                yield f"(k={k},n={n}): relation {relation_table(k, n)[at]!r} nonzero"
                break
            yield None
        if (k, n) == (2, 4):
            if not any(len(terms) == 3 for terms in relations):
                yield "no three-term relation found in S(2,4)"
            else:
                notes.append("three-term relation present in S(2,4)")


@_claim("Thm3-roundtrip")
def claim_thm3_roundtrip(cfg, rng, notes):
    """Banded-to-echelon and back is the identity, exhaustively over small
    finite fields in S(2,4) and on seeded rational samples in S(2,5), S(3,6)."""
    grs = set(cfg.grassmannians())
    if (2, 4) in grs:
        for q in (2, 3):
            if q not in cfg.primes:
                notes.append(f"S(2,4) over GF({q}) skipped: {q} not in primes")
                continue
            field = PrimeField(q)
            for beta, gamma in iter_comparable_pairs(2, 4):
                for m in enumerate_y(beta, gamma, field):
                    nm = phi(m, beta, gamma)
                    if psi(nm, beta, gamma) != m or not w_membership(nm, beta, gamma):
                        yield f"GF({q}) round trip failed at ({beta},{gamma})"
                        break
                    yield None
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
                yield f"rational round trip failed at ({beta},{gamma})"
                break
            yield None


@_claim("Thm6-positroidset")
def claim_thm6_positroidset(cfg, rng, notes):
    """The window family equals the Bruhat-interval projection, for every
    comparable pair and every cut position."""
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            for t in range(1, k):
                if verify_positroidset(beta, gamma, t):
                    yield None
                else:
                    yield f"mismatch at ({beta},{gamma},t={t})"


@_claim("Lem4-certificates")
def claim_lem4_certificates(cfg, rng, notes):
    """Window-avoiding interval members all admit certificates, and every
    certificate holds at every enumerated finite-field point of the open
    stratum and at seeded rational points of the inverted piece.  Each
    certificate is checked in compiled form, built on lex positions."""
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        N = math.comb(n, k)
        for beta, pairs in itertools.groupby(iter_comparable_pairs(k, n), itemgetter(0)):
            cells = _open_strata(k, n, beta, cfg, notes)
            for _, gamma in pairs:
                # int minors of banded matrices, which phi would not change (see certificates)
                shape = YShape(beta, gamma)
                rational = _sampled_minors(_layout(shape), n, shape.unit_count, cfg.rational_samples, rng)
                groups = [(q, _columns(strata, gamma, N)) for q, strata in cells] + [(0, rational)]
                for t in range(1, k):
                    for alpha in p_set_complement(beta, gamma, t):
                        try:
                            identity = _principal_identity(beta, gamma, t, alpha)
                        except (ParameterError, RuntimeError) as exc:
                            yield f"no certificate for {alpha} at ({beta},{gamma},t={t}): {exc}"
                            continue
                        if _holds(identity, groups, k, n):
                            yield None
                        else:
                            yield f"certificate failed for {alpha} at ({beta},{gamma},t={t})"


@_claim("Cor5-unit")
def claim_cor5_unit(cfg, rng, notes):
    """Whenever the window family is empty, the pivot coordinate vanishes
    nowhere on the open stratum and the recorded inverse is exact."""
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        positions = _subset_positions(k, n)
        for beta, pairs in itertools.groupby(iter_comparable_pairs(k, n), itemgetter(0)):
            # every beta reads its cells: the window of (beta, beta) is empty at every t
            cells = _open_strata(k, n, beta, cfg, notes)
            for _, gamma in pairs:
                units = [t for t in range(1, k) if not len(p_set(beta, gamma, t))]
                stratum = [(q, _columns(strata, gamma, len(positions))) for q, strata in cells] if units else []
                for t in units:
                    pivot = delta(beta, gamma, t)
                    unit, inverse = _unit_identities(beta, gamma, t)
                    for q, columns in stratum:
                        if 0 in columns[positions[pivot.elements]]:  # the pivot's lane of every point
                            yield f"pivot {pivot} vanishes on the open stratum at ({beta},{gamma},q={q})"
                        elif not _holds(unit, [(q, columns)], k, n):
                            yield f"unit certificate failed at ({beta},{gamma},t={t},q={q})"
                        elif not _holds(inverse, [(q, columns)], k, n):
                            yield f"pivot inverse wrong at ({beta},{gamma},t={t},q={q})"
                        else:
                            yield None


@_claim("Thm7-divisor")
def claim_thm7_divisor(cfg, rng, notes):
    """Set equality of the pivot zero locus and the window positroid locus
    inside each open stratum, for every nonempty window family."""
    flagged = 0
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            for t in range(1, k):
                if not len(p_set(beta, gamma, t)):
                    continue
                for q in _fitting_primes(k, n, cfg.primes, cfg.budget, notes):
                    before = len(notes)
                    yield verify_positroid_divisor(beta, gamma, t, q, cfg.budget, notes)
                    flagged += len(notes) - before
    if flagged:
        notes.append(f"{flagged} case(s) flagged for emptiness over all tried primes")


def _spot_pairs(k: int, n: int, rng):
    """The widest and a trivial comparable pair, and four seeded others."""
    pairs = list(iter_comparable_pairs(k, n))
    subs = enumerate_subsets(k, n)
    chosen = {(subs[0], subs[-1]), (subs[0], subs[0])}
    while len(chosen) < min(6, len(pairs)):
        chosen.add(pairs[rng.randrange(len(pairs))])
    return sorted(chosen)


@_claim("S7-complement")
def claim_s7_complement(cfg, rng, notes):
    """The fully-inverted stratum is the closed interval variety minus the
    union of the boundary and window positroid varieties; exhaustive for
    n <= 5, spot-checked over GF(2) at n = 6."""
    for k, n in cfg.grassmannians():
        if n <= 5:
            qs = cfg.primes
            pair_iter = list(iter_comparable_pairs(k, n))
        else:
            qs = (2,) if 2 in cfg.primes else cfg.primes[:1]
            pair_iter = _spot_pairs(k, n, rng)
            notes.append(f"(k={k},n={n}) spot-checked on {len(pair_iter)} pairs over q={qs}")
        for q in _fitting_primes(k, n, qs, cfg.budget, notes):
            for beta, gamma in pair_iter:
                yield verify_complement(beta, gamma, q, cfg.budget)


@_claim("S7-shifted-schubert")
def claim_s7_shifted_schubert(cfg, rng, notes):
    """The cyclic-shift description of the window locus, plus the interval
    restriction identity, across all applicable parameters."""
    for k, n in cfg.grassmannians():
        if k < 2:
            continue
        for beta, gamma in iter_comparable_pairs(k, n):
            for t in range(1, k):
                yield verify_shifted_schubert(beta, gamma, t)


@_claim("W-count")
def claim_w_count(cfg, rng, notes):
    """Point counts of the fully-inverted stratum match the closed formula
    in S(2,4) and S(2,5); interpolated divisor counts over the
    interpolation primes have degree one below the stratum dimension."""
    grs = set(cfg.grassmannians())
    for k, n in ((2, 4), (2, 5)):
        if (k, n) not in grs:
            notes.append(f"S({k},{n}) outside configured ranges")
            continue
        for q in _fitting_primes(k, n, cfg.primes, cfg.budget, notes):
            for beta, gamma in iter_comparable_pairs(k, n):
                yield verify_w_count(beta, gamma, q, cfg.budget)
    primes = _INTERPOLATION_PRIMES
    if (2, 4) not in grs:
        notes.append("S(2,4) outside configured ranges; interpolation skipped")
    elif len(tuple(_fitting_primes(2, 4, primes, cfg.budget, notes))) < len(primes):
        notes.append("interpolation skipped: a degree certificate needs every interpolation prime")
    else:
        for beta, gamma in iter_comparable_pairs(2, 4):
            if not len(p_set(beta, gamma, 1)):
                continue
            result = interpolate_count_polynomial(divisor_spec(beta, gamma, 1), primes, cfg.budget)
            want = expected_open_dimension(beta, gamma) - 1
            if result["degree"] != want or not result["stable"]:
                yield (
                    f"divisor count degree {result['degree']} (stable={result['stable']}) "
                    f"at ({beta},{gamma},t=1), expected {want}"
                )
            else:
                yield None


CLAIM_IDS = tuple(_CLAIMS)


def run_claim(claim: str, cfg: SweepConfig) -> ClaimReport:
    return _CLAIMS[claim](cfg)


def run_all(cfg: SweepConfig, claims: tuple[str, ...] = CLAIM_IDS) -> RunReport:
    """Run ``claims`` (every claim by default) in the given order; budget
    problems degrade to notes."""
    report = RunReport(config=cfg.to_dict(), version=__version__)
    for claim in claims:
        try:
            report.claims.append(run_claim(claim, cfg))
        except Exception as exc:  # a crashed claim is a failed claim
            report.claims.append(
                ClaimReport(claim, {}, FAIL, f"unhandled error: {exc!r}")
            )
    return report
