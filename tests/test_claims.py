"""Claim-level checks: a corrupted certificate must fail ``Lem4-certificates``
or ``Cor5-unit``, those claims read int vectors, not ``PluckerVector``s, and
the runner's reports and seeded draws repeat, its claims keep their order and
it applies the skip rule, and ``Thm6-positroidset`` runs past n = 7."""

import dataclasses

import pytest

import plucker.claims as claims
import plucker.varieties as varieties
from plucker import SweepConfig, VarietySpec, enumerate_subsets, reports
from plucker.varieties import GrPoint

CFG = SweepConfig(k_range=(2, 3), n_range=(4, 5), rational_samples=5).validate()


def test_lem4_fails_on_a_flipped_cofactor_coefficient(monkeypatch):
    checks = claims.claim_lem4_certificates(CFG).params["checks"]
    build, corrupted = claims._principal_identity, []

    def flipped(beta, gamma, t, alpha):
        inverted, terms = build(beta, gamma, t, alpha)
        if corrupted:
            return inverted, terms
        corrupted.append(f"certificate failed for {alpha} at ({beta},{gamma},t={t})")
        # terms[0] is the target's side, terms[1] the first cofactor term's
        lhs, (c, mono), *rest = terms
        return inverted, (lhs, (-c, mono), *rest)

    monkeypatch.setattr(claims, "_principal_identity", flipped)
    report = claims.claim_lem4_certificates(CFG)
    assert report.verdict == reports.FAIL
    assert report.witness == corrupted[0]
    assert report.params["checks"] == checks - 1


def test_cor5_fails_on_a_wrong_pivot_inverse(monkeypatch):
    checks = claims.claim_cor5_unit(CFG).params["checks"]
    build, corrupted = claims._unit_identities, []

    def doubled(beta, gamma, t):
        unit, (inverted, terms) = build(beta, gamma, t)
        if corrupted:
            return unit, (inverted, terms)
        corrupted.append(f"({beta},{gamma},t={t},q=")
        # 2 / pivot is wrong over GF(2), GF(3) and QQ alike: double every term of its side
        lhs, *rest = terms
        return unit, (inverted, (lhs, *((2 * c, mono) for c, mono in rest)))

    monkeypatch.setattr(claims, "_unit_identities", doubled)
    report = claims.claim_cor5_unit(CFG)
    assert report.verdict == reports.FAIL
    assert report.witness == f"pivot inverse wrong at {corrupted[0]}2)"
    assert report.params["checks"] == checks - len(CFG.primes)


@pytest.mark.parametrize("claim", ["Lem4-certificates", "Cor5-unit"])
def test_claims_read_int_vectors_only(claim, monkeypatch):
    def refuse(*args):
        raise AssertionError("a PluckerVector was built")

    monkeypatch.setattr(GrPoint, "plucker", property(refuse))
    monkeypatch.setattr(claims, "maximal_minors", refuse, raising=False)
    monkeypatch.setattr("plucker.matrices.maximal_minors", refuse)
    report = claims.run_claim(claim, CFG)
    assert report.verdict == reports.PASS and report.params["checks"] > 0


def test_reports_repeat_apart_from_timings():
    def drop_seconds(report):
        return [{**c.to_dict(), "seconds": None} for c in report.claims]

    assert drop_seconds(claims.run_all(CFG)) == drop_seconds(claims.run_all(CFG))


def test_claim_ids_are_the_nine_claims_in_order():
    assert claims.CLAIM_IDS == (
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


def test_seeded_draws_repeat_and_follow_the_seed(monkeypatch):
    # a passing report does not depend on the drawn points, so record them:
    # Thm3's banded matrices and Lem4's int minor columns
    build, build_minors = claims.sample_y, claims._sampled_minors

    def draws(seed):
        drawn = []

        def recorded(beta, gamma, field, rng):
            m = build(beta, gamma, field, rng)
            drawn.append(("Thm3", beta, gamma, m.rows))
            return m

        def recorded_minors(layout, n, units, count, rng):
            columns = build_minors(layout, n, units, count, rng)
            drawn.append(("Lem4", layout, columns))
            return columns

        monkeypatch.setattr(claims, "sample_y", recorded)
        monkeypatch.setattr(claims, "_sampled_minors", recorded_minors)
        report = claims.run_all(dataclasses.replace(CFG, seed=seed), ("Thm3-roundtrip", "Lem4-certificates"))
        assert report.overall == reports.PASS
        return drawn

    first = draws(1)
    assert {claim for claim, *_ in first} == {"Thm3", "Lem4"}
    assert first == draws(1)
    assert first != draws(2)


def test_thm7_notes_each_empty_divisor_and_counts_them(monkeypatch):
    # a locus that admits no point: every divisor is empty over every prime tried
    nowhere = VarietySpec(2, 4, frozenset(enumerate_subsets(2, 4)), frozenset())
    monkeypatch.setattr(varieties, "divisor_spec", lambda *args: nowhere)
    monkeypatch.setattr(varieties, "positroid_spec", lambda family: nowhere)
    report = claims.claim_thm7_divisor(SweepConfig(k_range=(2, 2), n_range=(4, 4), primes=(3,)).validate())
    *cases, summary = report.params["notes"]
    assert report.verdict == reports.PASS and report.params["checks"] == len(cases) > 0
    assert cases[0] == "no points found: {'beta': '{1,2}', 'gamma': '{2,3}', 't': 1, 'q': 3}"
    assert summary == f"{len(cases)} case(s) flagged for emptiness over all tried primes"


@pytest.mark.parametrize("claim", ["Thm7-divisor", "W-count"])
def test_a_claim_with_no_check_is_skipped(claim):
    report = claims.run_claim(claim, SweepConfig(budget=1).validate())
    assert report.verdict == reports.SKIP and report.params["checks"] == 0
    assert report.witness is None and report.params["notes"]


def test_thm6_runs_past_n_7():
    report = claims.run_claim("Thm6-positroidset", SweepConfig(k_range=(2, 2), n_range=(8, 8)).validate())
    assert report.verdict == reports.PASS and report.params["checks"] == 336
    assert "notes" not in report.params


def test_roundtrip_notes_each_small_field_left_out_of_primes():
    report = claims.claim_thm3_roundtrip(dataclasses.replace(CFG, primes=(3, 5)).validate())
    assert report.verdict == reports.PASS
    assert [n for n in report.params["notes"] if "GF(" in n] == ["S(2,4) over GF(2) skipped: 2 not in primes"]
