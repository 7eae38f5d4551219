"""Seeded inputs and output checks for the cli-queries workload.

Everything here is computed by the benchmark itself, never by importing
``plucker``: the query universe, the closed-form counts, and the banded
matrix files.  The same seed therefore gives the same queries on every
version of the program, and a change to the library cannot change what
it is asked.

Outputs without a closed form are checked against ``reference.txt``,
recorded from the program by ``record_refs.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.txt")

# (k, n, q) of the Grassmannians the count and enumerate queries run on.
GRASSMANNIANS = ((3, 6, 3), (2, 6, 3), (2, 5, 5), (3, 6, 2))
# Those that get a count per spec; the others get one seeded count.
EVERY_SPEC = ((2, 6, 3), (2, 5, 5))
SPECS = ("grassmannian", "richardson", "open-richardson", "w", "divisor")
# Seeded picks avoid "grassmannian": its count skips the membership pass
# and its listing is the whole Grassmannian, so it would make the cost
# of a batch depend on the seed.
PICKED_SPECS = SPECS[1:]
# (n, k) of the certificate universes; the batch draws k at n = 4.
CERT_CASES = ((4, 2), (4, 3), (6, 2), (6, 3))
# (k, n, p) of the banded matrix files; p None means rational entries.
PARAM_CASES = ((4, 14, None), (3, 7, 5))
_NUM_BOUND, _DEN_BOUND = 9, 9


def k_subsets(k: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), k))


def leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def comparable_pairs(k: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    subs = k_subsets(k, n)
    return [(b, g) for b in subs for g in subs if leq(b, g)]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def w_count(beta, gamma, q: int) -> int:
    """q^stars (q-1)^units: points of the fully inverted stratum."""
    stars = sum(max(g - b - 1, 0) for b, g in zip(beta, gamma))
    units = sum(1 for b, g in zip(beta, gamma) if g > b)
    return q**stars * (q - 1) ** units


def braces(s) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def _code(s) -> str:
    return "-" if s is None else "".join(map(str, s))


def lines_digest(text: str) -> str:
    """Digest of the sorted output lines, so output order does not matter."""
    return hashlib.sha256("\n".join(sorted(text.splitlines())).encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Locus:
    """One ``--spec`` choice on one Grassmannian over GF(q)."""

    k: int
    n: int
    q: int
    spec: str
    beta: tuple[int, ...] | None = None
    gamma: tuple[int, ...] | None = None
    t: int | None = None

    @property
    def key(self) -> str:
        t = "-" if self.t is None else str(self.t)
        return f"locus {self.k} {self.n} {self.q} {self.spec} {_code(self.beta)} {_code(self.gamma)} {t}"

    def argv(self, command: str) -> list[str]:
        out = [command, "--k", str(self.k), "--n", str(self.n), "--q", str(self.q), "--spec", self.spec]
        if self.beta is not None:
            out += ["--beta", braces(self.beta), "--gamma", braces(self.gamma)]
        if self.t is not None:
            out += ["--t", str(self.t)]
        return out

    def closed_form(self) -> int | None:
        if self.spec == "grassmannian":
            return gaussian_binomial(self.n, self.k, self.q)
        if self.spec == "w":
            return w_count(self.beta, self.gamma, self.q)
        return None


@dataclass(frozen=True)
class Cert:
    """One ``certificate`` query; alpha None asks for the unit certificate."""

    n: int
    k: int
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    t: int
    alpha: tuple[int, ...] | None

    @property
    def key(self) -> str:
        return f"cert {self.n} {self.k} {_code(self.beta)} {_code(self.gamma)} {self.t} {_code(self.alpha)}"

    def argv(self) -> list[str]:
        out = ["certificate", "--n", str(self.n), "--beta", braces(self.beta),
               "--gamma", braces(self.gamma), "--t", str(self.t)]
        if self.alpha is not None:
            out += ["--alpha", braces(self.alpha)]
        return out


def loci(k: int, n: int, q: int, spec: str) -> list[Locus]:
    """Every locus of one spec: all comparable pairs, and for divisors every
    cut t whose window [beta(t+1), gamma(t)] is nonempty (the Thm7 domain;
    otherwise the pivot is beta or gamma and the spec is contradictory)."""
    if spec == "grassmannian":
        return [Locus(k, n, q, spec)]
    out = []
    for beta, gamma in comparable_pairs(k, n):
        if spec == "divisor":
            ts = [t for t in range(1, k) if beta[t] <= gamma[t - 1]]
        else:
            ts = [None]
        out.extend(Locus(k, n, q, spec, beta, gamma, t) for t in ts)
    return out


def certs(n: int, k: int) -> list[Cert]:
    """Every certificate query: each interval member avoiding the window
    [beta(t+1), gamma(t)], plus the unit certificate when the window is empty."""
    out = []
    for beta, gamma in comparable_pairs(k, n):
        members = [a for a in k_subsets(k, n) if leq(beta, a) and leq(a, gamma)]
        for t in range(1, k):
            lo, hi = beta[t], gamma[t - 1]
            if lo > hi:
                out.append(Cert(n, k, beta, gamma, t, None))
            out.extend(
                Cert(n, k, beta, gamma, t, a) for a in members if not any(lo <= x <= hi for x in a)
            )
    return out


@dataclass(frozen=True)
class Reference:
    counts: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def load_reference(path: Path = REFERENCE_FILE) -> Reference:
    """Parse ``reference.txt``: ``<key> <count|-> <digest>`` per line."""
    ref = Reference()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        *key, count, digest = line.split()
        key = " ".join(key)
        if count != "-":
            ref.counts[key] = int(count)
        ref.digests[key] = digest
    return ref


# -- the seeded batch ---------------------------------------------------------

@dataclass
class Query:
    """One CLI invocation, with what its output must be.

    ``chained`` marks the psi half of a param round trip: its matrix file
    is the output of the phi half before it.
    """

    argv: list[str]
    kind: str  # "count", "enumerate", "certificate" or "param"
    expect_count: int | None = None
    expect_digest: str | None = None
    expect_text: str | None = None
    matrix_text: str | None = None
    chained: bool = False


def _random_entry(rng: random.Random, p: int | None, nonzero: bool):
    while True:
        if p is None:
            x = Fraction(rng.randint(-_NUM_BOUND, _NUM_BOUND), rng.randint(1, _DEN_BOUND))
        else:
            x = rng.randrange(p)
        if x or not nonzero:
            return x


def banded_matrix(rng: random.Random, k: int, n: int, p: int | None):
    """A random (beta, gamma) and a matrix of its banded space, as file text.

    Row i carries a nonzero entry at beta(i), free entries strictly
    between, a 1 at gamma(i), and zeros elsewhere; entries print as the
    library's format does, so a round trip can be compared byte for byte.
    """
    while True:
        gamma = tuple(sorted(rng.sample(range(1, n + 1), k)))
        beta = tuple(sorted(rng.sample(range(1, n + 1), k)))
        if leq(beta, gamma):
            break
    rows = []
    for b, g in zip(beta, gamma):
        row = [0] * n
        row[g - 1] = 1
        if g > b:
            row[b - 1] = _random_entry(rng, p, nonzero=True)
        for j in range(b + 1, g):
            row[j - 1] = _random_entry(rng, p, nonzero=False)
        rows.append(row)
    head = "field rational" if p is None else f"field gf {p}"
    text = "\n".join([head] + [" ".join(str(x) for x in row) for row in rows]) + "\n"
    return beta, gamma, text


def _locus_query(command: str, locus: Locus, ref: Reference) -> Query:
    count = locus.closed_form()
    if count is None:
        count = ref.counts[locus.key]
    digest = ref.digests[locus.key] if command == "enumerate" else None
    return Query(locus.argv(command), command, expect_count=count, expect_digest=digest)


def make_batch(seed: int, ref: Reference) -> list[Query]:
    """The cli-queries batch for one seed: 24 queries.

    The mix is fixed and the seed picks within it, so every seed costs
    about the same.  Each Grassmannian gets one ``enumerate``; the two in
    EVERY_SPEC get a ``count`` per spec, the others one seeded ``count``.
    Then four certificates and two param round trips.  The sizes put
    nine queries below and nine above the six Gr(2,6)/GF(3) queries, so
    the median latency falls inside one group of alike queries and does
    not jump between groups from seed to seed.
    """
    rng = random.Random(seed)
    jobs: list[list[Query]] = []
    for k, n, q in GRASSMANNIANS:
        specs = SPECS if (k, n, q) in EVERY_SPEC else [rng.choice(PICKED_SPECS)]
        for spec in specs:
            jobs.append([_locus_query("count", rng.choice(loci(k, n, q, spec)), ref)])
        locus = rng.choice(loci(k, n, q, rng.choice(PICKED_SPECS)))
        jobs.append([_locus_query("enumerate", locus, ref)])
    for n, k in ((4, rng.choice((2, 3))), (4, rng.choice((2, 3))), (6, 2), (6, 3)):
        cert = rng.choice(certs(n, k))
        jobs.append([Query(cert.argv(), "certificate", expect_digest=ref.digests[cert.key])])
    for k, n, p in PARAM_CASES:
        beta, gamma, text = banded_matrix(rng, k, n, p)
        base = ["param", "--beta", braces(beta), "--gamma", braces(gamma), "--direction"]
        jobs.append([
            Query(base + ["phi"], "param", matrix_text=text),
            Query(base + ["psi"], "param", expect_text=text, chained=True),
        ])
    # Spread each group over the batch, so that no group's latencies come
    # from one stretch of a machine whose speed drifts.
    rng.shuffle(jobs)
    return [query for job in jobs for query in job]


def check(query: Query, returncode: int, stdout: str) -> str | None:
    """None when the query answered correctly, else what was wrong."""
    if returncode != 0:
        return f"exit code {returncode}"
    if query.kind == "count":
        if stdout.strip() != str(query.expect_count):
            return f"count {stdout.strip()!r}, expected {query.expect_count}"
    elif query.kind == "enumerate":
        lines = len(stdout.splitlines())
        if lines != query.expect_count:
            return f"{lines} points, expected {query.expect_count}"
        if lines_digest(stdout) != query.expect_digest:
            return "enumerated points differ from the reference"
    elif query.kind == "certificate":
        if text_digest(stdout) != query.expect_digest:
            return "certificate differs from the reference"
    elif query.expect_text is not None and stdout != query.expect_text:
        return "phi then psi did not reproduce the matrix file"
    return None
