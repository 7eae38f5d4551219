"""Per-layer tracing of ``plucker`` from outside the library.

``install`` rebinds each target function, in every ``plucker.*`` module
namespace that holds it, to a wrapper that opens a span around the call.
Rebinding every holder matters: ``claims`` and ``cli`` import functions
by name, and modules call their own functions as module globals, so
patching only the defining module would miss most calls.  ``uninstall``
puts every original binding back.

Spans are aggregated in memory per name (calls, total and self time)
and handed out by ``snapshot`` when the run ends.  Self time is a span's
duration minus the time covered by its child spans, so the cost of
unwrapped helpers (``fields`` arithmetic, ``ExactMatrix`` methods) lands
in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> public functions wrapped in the traced run.  ``claims`` and
# ``cli`` are timed by the benchmark's own spans around run_claim / main.
TARGETS = {
    "subsets": ("interval", "p_set", "enumerate_subsets"),
    "permutations": ("verify_positroidset",),
    "matrices": ("maximal_minors", "phi", "psi", "sample_y"),
    "certificates": ("relation_table", "principal_certificate", "verify_certificate", "evaluate"),
    "varieties": (
        "enumerate_grassmannian",
        "richardson_buckets",
        "membership",
        "verify_positroid_divisor",
        "verify_complement",
        "verify_w_count",
        "count_points",
    ),
}


# Counters gathered by the hooks below, at the same boundaries as the spans.
COUNTERS = (
    "varieties.enumerate_grassmannian.distinct",
    "varieties.enumerate_grassmannian.points",
    "certificates.verify_certificate.points",
)


class Tracer:
    """A span stack with per-name totals; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        if self.stack:
            self.stack[-1][2] += duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _counter_hooks(tracer: Tracer) -> dict:
    """The hooks that gather COUNTERS, by the span they follow."""
    seen: set = set()

    def grassmannian(args, kwargs, result):
        key = args[:3]  # (k, n, q); the result is cached per key
        if key not in seen:
            seen.add(key)
            tracer.count(COUNTERS[0])
            tracer.count(COUNTERS[1], len(result))

    def certificate_points(args, kwargs, result):
        points = args[1] if len(args) > 1 else kwargs.get("points")
        if hasattr(points, "__len__"):
            tracer.count(COUNTERS[2], len(points))

    return {
        "varieties.enumerate_grassmannian": grassmannian,
        "certificates.verify_certificate": certificate_points,
    }


def _plucker_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if m is not None and name.split(".")[0] == "plucker"]


def bindings() -> dict:
    """Every name bound in a ``plucker`` module, by identity of its value."""
    return {(m.__name__, attr): id(value) for m in _plucker_modules() for attr, value in vars(m).items()}


class Installation:
    """The rebindings one ``install`` made, and the targets it did not find."""

    def __init__(self):
        self.rebound: list[tuple[object, str, object]] = []
        self.absent: list[str] = []


def install(tracer: Tracer, targets: dict = TARGETS) -> Installation:
    """Wrap every target that exists; record the missing ones as absent."""
    done = Installation()
    hooks = _counter_hooks(tracer)
    modules = _plucker_modules()
    for layer, names in targets.items():
        home = sys.modules.get(f"plucker.{layer}")
        for fname in names:
            name = f"{layer}.{fname}"
            original = getattr(home, fname, None) if home is not None else None
            if not callable(original):
                done.absent.append(name)
                continue
            wrapper = _span(tracer, name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        done.rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)
    return done


def uninstall(done: Installation) -> None:
    for module, attr, original in reversed(done.rebound):
        setattr(module, attr, original)
    done.rebound.clear()
