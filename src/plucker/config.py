"""Sweep configuration: defaults, flat key/value files, environment, flags.

Precedence, lowest to highest: built-in defaults, config file, PLUCKER_*
environment variables, explicit flag overrides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ascii_int
from .fields import _MAX_PRIME, is_prime
from .varieties import DEFAULT_BUDGET

ENV_PREFIX = "PLUCKER_"


@dataclass(frozen=True)
class SweepConfig:
    k_range: tuple[int, int] = (1, 3)
    n_range: tuple[int, int] = (1, 6)
    primes: tuple[int, ...] = (2, 3)
    rational_samples: int = 100
    matrix_samples: int = 50
    seed: int = 1729
    budget: int = DEFAULT_BUDGET

    def validate(self) -> "SweepConfig":
        for name in ("k_range", "n_range"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 1:
                raise ConfigError(f"{name} {lo}:{hi} is empty or invalid")
        if not self.primes or len(set(self.primes)) < len(self.primes):
            raise ConfigError(f"primes must be nonempty and distinct, got {self.primes}")
        for p in self.primes:
            if p >= _MAX_PRIME:  # by size first: trial division would take minutes
                raise ConfigError(f"primes contains {p}, not below 2**31")
            if not is_prime(p):
                raise ConfigError(f"primes contains non-prime {p}")
        for name in ("rational_samples", "matrix_samples", "budget"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        return self

    def grassmannians(self):
        """All (k, n) with k in k_range, n in n_range, k <= n."""
        for k in range(self.k_range[0], self.k_range[1] + 1):
            for n in range(max(k, self.n_range[0]), self.n_range[1] + 1):
                yield k, n

    def to_dict(self) -> dict:
        return {
            "k_range": f"{self.k_range[0]}:{self.k_range[1]}",
            "n_range": f"{self.n_range[0]}:{self.n_range[1]}",
            "primes": ",".join(map(str, self.primes)),
            "rational_samples": self.rational_samples,
            "matrix_samples": self.matrix_samples,
            "seed": self.seed,
            "budget": self.budget,
        }


def _int(text: str, signed: bool = False) -> int:
    """``errors.ascii_int`` of ``text`` stripped of surrounding whitespace; a
    ParseError, which ``_apply`` reports as a ConfigError."""
    return ascii_int(text.strip(), signed)


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.replace("..", ":").split(":")
    try:
        if len(parts) == 1:
            v = _int(parts[0])
            return (v, v)
        if len(parts) == 2:
            return (_int(parts[0]), _int(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"bad range {text!r}, expected lo:hi")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"bad integer list {text!r}") from None


_PARSERS = {  # only the seed may be negative
    "k_range": _parse_range,
    "n_range": _parse_range,
    "primes": _parse_int_list,
    "rational_samples": _int,
    "matrix_samples": _int,
    "seed": lambda text: _int(text, signed=True),
    "budget": _int,
}


def _apply(cfg: SweepConfig, key: str, raw: str) -> SweepConfig:
    if key not in _PARSERS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        value = _PARSERS[key](raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {key}") from None
    return replace(cfg, **{key: value})


def parse_config_file(text: str, base: SweepConfig | None = None) -> SweepConfig:
    cfg = base or SweepConfig()
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg = _apply(cfg, key, value)
    return cfg


def load_config(
    path: str | None = None,
    env: dict | None = None,
    overrides: dict[str, str] | None = None,
) -> SweepConfig:
    cfg = SweepConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = parse_config_file(fh.read(), cfg)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
    env = os.environ if env is None else env
    for f in fields(SweepConfig):
        env_key = ENV_PREFIX + f.name.upper()
        if env_key in env:
            cfg = _apply(cfg, f.name, env[env_key])
    for key, raw in (overrides or {}).items():
        cfg = _apply(cfg, key, raw)
    return cfg.validate()
