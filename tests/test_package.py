"""The package's public surface: the names `harmsect` exports, and the
functions the benchmark traces by name."""

import ast
import importlib
from pathlib import Path

import harmsect

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

PUBLIC_NAMES = [
    "CLAIMS",
    "ClaimReport",
    "EmpiricalScan",
    "ExtremalCoefficients",
    "FamilyClass",
    "HarmonicPolynomial",
    "KernelScan",
    "ProbeGrid",
    "RadiusResult",
    "RealPolynomial",
    "TailClass",
    "UnknownClaimError",
    "close_to_convex_radius",
    "distortion_floor_convex",
    "distortion_floor_general",
    "divided_difference",
    "empirical_scan",
    "evaluate",
    "isolate_real_roots",
    "jacobian",
    "kernel",
    "kernel_min_modulus",
    "log_offset_convex",
    "log_offset_general",
    "lower_bound_convex",
    "lower_bound_general",
    "margin_convex",
    "margin_general",
    "section",
    "slope_bracket_general",
    "slope_bracket_scaled",
    "slope_prefactor_general",
    "solve_radius",
    "tail_ratio_convex",
    "tail_ratio_general",
    "tail_weighted",
    "threshold_order",
    "verify_all",
    "verify_claim",
]


class TestPublicSurface:
    def test_exported_names_are_pinned(self):
        # one name per quantity; the cross-check forms live in tests/oracles.py
        assert len(PUBLIC_NAMES) == 39
        assert sorted(harmsect.__all__) == PUBLIC_NAMES

    def test_every_exported_name_resolves(self):
        for name in harmsect.__all__:
            assert getattr(harmsect, name) is not None, name


def traced_bindings():
    """The (module, function) pairs of `TRACED` in perfbench/spans.py.

    Read from the source without importing the file, so the benchmark
    stays untouched.
    """
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TRACED table in {SPANS}")


class TestBenchmarkBindings:
    def test_every_traced_function_resolves(self):
        # the benchmark wraps these by name; a renamed or removed one would
        # otherwise show only in its own, much slower, test suite
        bindings = traced_bindings()
        assert bindings
        for module, function in bindings:
            target = getattr(importlib.import_module(f"harmsect.{module}"), function, None)
            assert callable(target), (module, function)
