"""Structured verification reports, serialized as JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class ClaimReport:
    """Outcome of one verification claim."""

    claim: str
    params: dict
    verdict: str
    witness: str | None = None
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class RunReport:
    """Aggregate of all configured claims plus the configuration echo."""

    claims: list[ClaimReport] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    version: str = ""

    @property
    def overall(self) -> str:
        return FAIL if any(c.verdict == FAIL for c in self.claims) else PASS

    def to_json(self) -> str:
        doc = {
            "tool": "plucker",
            "version": self.version,
            "config": self.config,
            "claims": [c.to_dict() for c in self.claims],
            "overall": self.overall,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        doc = json.loads(text)
        claims = [
            ClaimReport(
                claim=c["claim"],
                params=c["params"],
                verdict=c["verdict"],
                witness=c.get("witness"),
                seconds=c.get("seconds", 0.0),
            )
            for c in doc.get("claims", [])
        ]
        return cls(claims=claims, config=doc.get("config", {}), version=doc.get("version", ""))
