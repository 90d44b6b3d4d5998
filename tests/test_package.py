"""The package's public surface: the names `harmsect` exports, and the
names the benchmark traces and reads."""

import ast
import contextlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harmsect

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"
TEST_BENCH = PERFBENCH / "test_bench.py"
WORKLOADS = PERFBENCH / "workloads.py"

PUBLIC_NAMES = [
    "CLAIMS",
    "ClaimReport",
    "EmpiricalScan",
    "FamilyClass",
    "HarmonicPolynomial",
    "KernelScan",
    "ProbeGrid",
    "RadiusResult",
    "UnknownClaimError",
    "close_to_convex_radius",
    "distortion_floor",
    "divided_difference",
    "empirical_scan",
    "evaluate",
    "extremal_map",
    "isolate_real_roots",
    "jacobian",
    "kernel",
    "kernel_min_modulus",
    "log_offset",
    "lower_bound",
    "margin_convex",
    "margin_general",
    "section",
    "solve_radius",
    "tail_ratio",
    "threshold_order",
    "verify_all",
    "verify_claim",
]


class TestPublicSurface:
    def test_exported_names_are_pinned(self):
        # one name per quantity; the cross-check forms live in tests/oracles.py
        assert len(PUBLIC_NAMES) == 29
        assert sorted(harmsect.__all__) == PUBLIC_NAMES
        # the claims' float internals stay in harmsect.claims only
        for name in ("slope_bracket_general", "slope_bracket_scaled", "slope_prefactor_general"):
            assert callable(getattr(harmsect.claims, name))
            assert not hasattr(harmsect, name)

    def test_every_exported_name_resolves(self):
        for name in harmsect.__all__:
            assert getattr(harmsect, name) is not None, name

    def test_no_general_convex_pairs(self):
        # a quantity both families have takes the family as an argument; only
        # a pair the benchmark traces by name keeps its two suffixed names
        traced = {function for _, function in traced_bindings()}
        names = set(harmsect.__all__)
        pairs = {(name, name.removesuffix("_general") + "_convex")
                 for name in names if name.endswith("_general")}
        untraced = [pair for pair in pairs if pair[1] in names and not set(pair) <= traced]
        assert untraced == []


def traced_bindings():
    """The (module, function) pairs of `TRACED` in perfbench/spans.py.

    Read from the source without importing the file, so the benchmark
    stays untouched.
    """
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TRACED table in {SPANS}")


def function_node(path, name):
    """The top-level function `name` in the file at `path`, parsed, not imported."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name} in {path}")


def wrong_answer_lines():
    """The lines perfbench/test_bench.py's wrong-answer test asserts are in harmonic.py.

    Each string constant in a `<constant> in source` test of
    test_wrong_answer_fails_the_run, read from the source as
    `traced_bindings` reads spans.py.
    """
    test = function_node(TEST_BENCH, "test_wrong_answer_fails_the_run")
    return [node.left.value for node in ast.walk(test)
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.comparators[0], ast.Name) and node.comparators[0].id == "source"]


def grid_fields():
    """The attributes of `grid` that perfbench/spans.py's _grid_points reads."""
    return {node.attr for node in ast.walk(function_node(SPANS, "_grid_points"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "grid"}


def workload_reads():
    """The dotted harmsect names perfbench/workloads.py reads, such as harmsect.cli.main.

    Each attribute chain on a name the file binds to a harmsect module
    (`harmsect`, `hs_radius`), read from the source as `traced_bindings`
    reads spans.py.
    """
    tree = ast.parse(WORKLOADS.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` binds c to a.b
                top = alias.name.split(".")[0]
                roots[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and roots.get(node.id, "").split(".")[0] == "harmsect":
            reads.add(".".join([roots[node.id], *reversed(chain)]))
    return sorted(reads)


def resolve(dotted):
    """The object a dotted harmsect name reads, or None; each prefix that is a submodule is imported."""
    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        with contextlib.suppress(ImportError):
            importlib.import_module(".".join(parts[:i]))
        target = getattr(target, part, None)
    return target


class TestBenchmarkBindings:
    def test_every_traced_function_resolves(self):
        # the benchmark wraps these by name; a renamed or removed one would
        # otherwise show only in its own, much slower, test suite
        bindings = traced_bindings()
        assert bindings
        for module, function in bindings:
            target = getattr(importlib.import_module(f"harmsect.{module}"), function, None)
            assert callable(target), (module, function)

    def test_every_workload_read_resolves(self):
        # the benchmark's requests call these; a renamed one, such as the
        # margin_fn the solver calls the margins through, would otherwise
        # show only when the benchmark runs
        reads = workload_reads()
        assert "harmsect.radius.margin_fn" in reads
        assert "harmsect.cli.main" in reads
        for dotted in reads:
            assert resolve(dotted) is not None, dotted

    def test_the_wrong_answer_test_finds_its_line(self):
        # the benchmark's wrong-answer test flips the sign of this line of
        # evaluate; a reworded line would fail only the benchmark's own suite
        lines = wrong_answer_lines()
        assert lines
        source = (ROOT / "src" / "harmsect" / "harmonic.py").read_text()
        for line in lines:
            assert line in source, line

    def test_every_grid_field_the_spans_read_exists(self):
        # the scan layers' point counts read these fields of the probe grid
        fields = grid_fields()
        assert "radial_points" in fields
        grid = harmsect.ProbeGrid()
        for field in fields:
            assert isinstance(getattr(grid, field, None), int), field


def imported_packages(path):
    """The top-level package of every absolute import in the file at `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def declared_dependencies():
    """The distribution names in pyproject.toml's [project] dependencies."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in project.get("dependencies", [])}


class TestImports:
    def test_every_import_is_stdlib_harmsect_or_declared(self):
        # a module the package imports must come with Python or with the
        # package's declared dependencies, or an install would lack it
        allowed = set(sys.stdlib_module_names) | {"harmsect"} | declared_dependencies()
        sources = sorted((ROOT / "src" / "harmsect").glob("*.py"))
        assert sources
        for path in sources:
            for package in imported_packages(path):
                assert package in allowed, (path.name, package)

    def test_import_does_not_load_numpy_polynomial(self):
        # the float polynomials are coefficient tuples under one Horner core;
        # numpy.polynomial, which `import numpy` skips, would add to every cold start
        code = "import sys, harmsect; print('numpy.polynomial' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout == "False\n"
