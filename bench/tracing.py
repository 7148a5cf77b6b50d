"""Spans and counts recorded from the benchmark's side of each module boundary.

``Tracer.install`` replaces, for the duration of a ``with`` block, each name
one losmimo module looks up in another (``losmimo.cli.run_ber``,
``losmimo.montecarlo.uniform_rotation``, ``losmimo.orientation.minimize``,
``numpy.histogram2d`` as ``montecarlo`` reaches it, ...) with a wrapper
that records a span (name, start, end, parent span) or bumps a counter. The
program itself is not edited. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class _Proxy:
    """A module stand-in that overrides some attributes and delegates the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return traced

    def counted(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def install(self):
        """Wrap the module boundaries the workloads cross; restore on exit."""
        import numpy
        from losmimo import cli, montecarlo, orientation

        def eta_points(curve):
            self.counts["orientation.eta_points"] += len(curve.etas)

        patches = [
            (cli, name, self.wrap(getattr(cli, name), f"{module}.{name}"))
            for module, name in [("montecarlo", "run_ber"), ("montecarlo", "joint_density"),
                                 ("montecarlo", "SimConfig"), ("montecarlo", "build_codebook"),
                                 ("geometry", "make_layout"), ("design", "DesignSpec"),
                                 ("design", "design_link")]
        ] + [
            (cli, "compute_mu_star_curve",
             self.wrap(cli.compute_mu_star_curve, "orientation.compute_mu_star_curve", eta_points)),
            (montecarlo, "uniform_rotation",
             self.wrap(montecarlo.uniform_rotation, "geometry.uniform_rotation")),
            (montecarlo, "np",
             _Proxy(numpy, histogram2d=self.wrap(numpy.histogram2d, "numpy.histogram2d"))),
            (orientation, "icosphere_vertices",
             self.wrap(orientation.icosphere_vertices, "orientation.icosphere_vertices")),
            (orientation, "minimize", self.wrap(orientation.minimize, "orientation.refine")),
            (orientation, "mu_of_direction",
             self.counted(orientation.mu_of_direction, "orientation.mu_of_direction.calls")),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        for mod, name, value in patches:
            setattr(mod, name, value)
        try:
            yield self
        finally:
            for mod, name, value in saved:
                setattr(mod, name, value)

    def record(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counts": dict(self.counts)}
