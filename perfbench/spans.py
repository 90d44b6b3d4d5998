"""Span tracing of harmsect layers from outside the package.

`Tracer.install()` replaces each traced public function at every binding
site in the loaded harmsect modules (for example both `radius.tail_weighted`
and `tails.tail_weighted`), plus the entries of the claim registry, with a
wrapper that records one span per call: parent span, layer name, start,
end, points evaluated and whether the call raised.  `uninstall()` puts the
originals back, so untraced passes run the unmodified program.

Spans stay in memory until `take()` hands them over; nesting is strict
(one thread), so a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np


def _size_of(position: int):
    """Points of a call whose evaluation points are its `position`-th argument."""
    return lambda args: int(np.size(args[position])) if len(args) > position else 0


def _grid_points(args) -> int:
    grid = args[1]
    return grid.radial_points * grid.angular_points * grid.t_points


def _no_points(args) -> int:
    return 0


# (module, function, layer name, points evaluated by one call)
TRACED = (
    ("tails", "tail_weighted", "tails.tail_weighted", _size_of(2)),
    ("radius", "margin_general", "radius.margin", _size_of(2)),
    ("radius", "margin_convex", "radius.margin", _size_of(2)),
    ("radius", "solve_radius", "radius.solve_radius", _no_points),
    ("radius", "threshold_order", "radius.threshold_order", _no_points),
    ("claims", "verify_claim", "claims.verify_claim", _no_points),
    ("polyroots", "isolate_real_roots", "polyroots.isolate_real_roots", _no_points),
    ("harmonic", "empirical_scan", "harmonic.empirical_scan", _grid_points),
    ("harmonic", "kernel_min_modulus", "harmonic.kernel_min_modulus", _grid_points),
    ("harmonic", "jacobian", "harmonic.jacobian", _size_of(1)),
    ("harmonic", "kernel", "harmonic.kernel", _size_of(1)),
    ("harmonic", "divided_difference", "harmonic.divided_difference", _size_of(2)),
    ("harmonic", "evaluate", "harmonic.evaluate", _size_of(1)),
    ("svg", "write_curve_plot", "svg.write", _size_of(1)),
    ("svg", "write_boundary_plot", "svg.write", _size_of(1)),
    ("cli", "main", "cli.main", _no_points),
)


@dataclass(frozen=True)
class Span:
    parent: int  # index of the enclosing span, -1 at the top
    request: int  # index of the request that caused it
    name: str
    start: float
    end: float
    points: int
    failed: bool
    iterations: int  # bisection steps of a solve_radius call, else 0


class Tracer:
    """Records spans of the traced harmsect layers while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn, points):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            failed = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(parent, self.request, name, start, end, points(args),
                                  failed, getattr(result, "iterations", 0))

        return traced

    def install(self) -> None:
        """Wrap every traced function at each place a harmsect module binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [vars(mod) for key, mod in sorted(sys.modules.items())
                      if key == "harmsect" or key.startswith("harmsect.")]
        for module, attr, name, points in TRACED:
            original = getattr(sys.modules[f"harmsect.{module}"], attr)
            wrapped = self._wrap(name, original, points)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        ns[key] = wrapped
        registry = sys.modules["harmsect.claims"].CLAIMS
        for claim_id, checker in list(registry.items()):
            self._restore.append((registry, claim_id, checker))
            registry[claim_id] = self._wrap(f"claims.{claim_id}", checker, _no_points)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            ns[key] = original
        self._restore.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]
