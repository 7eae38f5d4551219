"""Claim-level checks of ``Lem4-certificates`` and ``Cor5-unit``: a corrupted
certificate must fail the claim, and the claims read int vectors, not
``PluckerVector``s."""

import dataclasses

import pytest

import plucker.claims as claims
from plucker import LaurentExpression, SweepConfig, reports
from plucker.varieties import GrPoint

CFG = SweepConfig(k_range=(2, 3), n_range=(4, 5), rational_samples=5).validate()


def test_lem4_fails_on_a_flipped_cofactor_coefficient(monkeypatch):
    checks = claims.claim_lem4_certificates(CFG).params["checks"]
    build, corrupted = claims.principal_certificate, []

    def flipped(beta, gamma, t, alpha):
        cert = build(beta, gamma, t, alpha)
        if corrupted:
            return cert
        corrupted.append(f"certificate failed for {alpha} at ({beta},{gamma},t={t})")
        (c, mono), *rest = cert.cofactor.terms
        return dataclasses.replace(cert, cofactor=LaurentExpression([(-c, mono), *rest]))

    monkeypatch.setattr(claims, "principal_certificate", flipped)
    report = claims.claim_lem4_certificates(CFG)
    assert report.verdict == reports.FAIL
    assert report.witness == corrupted[0]
    assert report.params["checks"] == checks - 1


def test_cor5_fails_on_a_wrong_pivot_inverse(monkeypatch):
    checks = claims.claim_cor5_unit(CFG).params["checks"]
    build, corrupted = claims.unit_certificate, []

    def doubled(beta, gamma, t):
        cert = build(beta, gamma, t)
        if corrupted:
            return cert
        corrupted.append(f"({beta},{gamma},t={t},q=")
        # 2 / pivot is wrong over GF(2), GF(3) and QQ alike
        return dataclasses.replace(cert, pivot_inverse=cert.pivot_inverse.times_term(2, ()))

    monkeypatch.setattr(claims, "unit_certificate", doubled)
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
