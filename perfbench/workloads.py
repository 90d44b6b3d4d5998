"""Request lists of the benchmark workloads and the checks on their answers.

Each workload is a sequence of requests built from a seed.  A request runs
one call into harmsect (a `harmsect.cli.main` command line, or a library
call for inputs the CLI cannot express) and returns its answer; its check
raises `WrongAnswer` when the answer contradicts a pinned value or an
independent cross-check.  Functions are looked up on their modules at call
time, so a tracer that rebinds them sees every call.  `pointwise` makes its
15000 requests on demand from seeded arrays, so neither building the list
nor holding it weighs on the set-up time or the peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import harmsect
import harmsect.cli
from harmsect import radius as hs_radius

# Equal-order general radii pinned by the paper's table, to +-5e-7.
PINNED_TABLE = {2: 0.108193, 3: 0.147197, 4: 0.182263, 5: 0.214025,
                10: 0.337088, 50: 0.675001, 100: 0.788521, 287: 0.900122}
PINNED_THRESHOLDS = {0.25: 7, 0.5: 22, 0.75: 78}
TARGETS = (0.25, 0.5, 0.75)
CLAIM_IDS = ("t-decreasing", "t-at-n-positive", "t-gamma-lt-1", "q2-positive",
             "q1-negative", "Q-roots", "Q-identity", "T-decreasing", "T-beta-lt-1",
             "T-limit-half", "t-limit-64-2401", "abc-bounds", "distortion-min-rule")
# The two limit spot checks fail at their registered order (logarithmic convergence).
FAILING_CLAIMS = frozenset({"T-limit-half", "t-limit-64-2401"})
CRITERION_8 = (("general", 2), ("general", 5), ("general", 10),
               ("convex", 5), ("convex", 10), ("convex", 17))
BRACKET_WIDTH = 1e-12


class WrongAnswer(Exception):
    """An answer contradicts a pinned value or a cross-check."""


class RequestFailed(Exception):
    """The CLI answered with a usage/domain (2) or I/O (3) exit code."""


@dataclass(frozen=True)
class Request:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    pinned: bool = True  # a pinned request that fails makes the run wrong


class LazyRequests(Sequence):
    """Requests made when indexed: item i is `make(order[i])`."""

    def __init__(self, order, make: Callable[[int], Request]) -> None:
        self.order = order
        self.make = make

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: int) -> Request:
        return self.make(int(self.order[index]))


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def _family(name: str):
    return harmsect.FamilyClass(name)


def _margin(family: str, n: int, m: int, r: float) -> float:
    return float(hs_radius.margin_fn(_family(family))(n, m, r))


def _solve(family: str, n: int, m: int) -> float:
    return harmsect.solve_radius(_family(family), n, m).radius


def cli_request(kind: str, argv: list[str], check, *, env: dict | None = None,
                pinned: bool = True) -> Request:
    """A request answered by `harmsect.cli.main(argv)`; the answer is (exit code, stdout)."""

    def run():
        saved = {key: os.environ.get(key) for key in env or {}}
        os.environ.update(env or {})
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = harmsect.cli.main(argv)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        if code not in (0, 1):
            raise RequestFailed(f"exit code {code}")
        return code, buf.getvalue()

    return Request(kind, " ".join(argv), run, check, pinned)


def _json_answer(answer, want_code: int = 0):
    code, text = answer
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    return json.loads(text)


# --------------------------------------------------------------------------
# certify: certified radii, tables and thresholds through the CLI
# --------------------------------------------------------------------------


def _radius_request(family: str, n: int, m: int, *, pinned: bool = True) -> Request:
    def check(answer):
        row = _json_answer(answer)
        expect((row["family"], row["n"], row["m"]) == (family, n, m), f"echoed {row}")
        lo, hi, r = row["bracket_lo"], row["bracket_hi"], row["radius"]
        expect(lo < hi and hi - lo <= BRACKET_WIDTH, f"bracket [{lo}, {hi}] wider than 1e-12")
        expect(lo <= r <= hi, f"radius {r} outside its bracket")
        expect(_margin(family, n, m, lo) > 0.0, f"margin at bracket_lo={lo} is not positive")
        expect(_margin(family, n, m, hi) <= 0.0, f"margin at bracket_hi={hi} is positive")
        if row["lower_bound"] is not None:
            expect(r > row["lower_bound"], f"radius {r} below lower bound {row['lower_bound']}")

    argv = ["radius", "--class", family, "--n", str(n), "--m", str(m), "--format", "json"]
    return cli_request("radius", argv, check, pinned=pinned)


def _table_request(family: str, orders: list[int]) -> Request:
    def check(answer):
        rows = _json_answer(answer)
        expect([row["n"] for row in rows] == orders, f"orders {rows}")
        for row in rows:
            n, r = row["n"], row["radius"]
            if family == "general" and n in PINNED_TABLE:
                expect(abs(r - PINNED_TABLE[n]) <= 5e-7, f"r({n}) = {r}, pinned {PINNED_TABLE[n]}")
            expect(abs(r - _solve(family, n, n)) <= BRACKET_WIDTH, f"table r({n}) = {r} != radius")

    argv = ["table", "--class", family, "--n", ",".join(map(str, orders)), "--format", "json"]
    return cli_request("table", argv, check)


def _threshold_request(family: str, target: float) -> Request:
    def check(answer):
        (row,) = _json_answer(answer)
        n = row["n"]
        expect(row["target"] == target, f"target {row['target']}")
        if family == "general":
            expect(n == PINNED_THRESHOLDS[target], f"threshold({target}) = {n}, pinned "
                                                   f"{PINNED_THRESHOLDS[target]}")
        expect(_solve(family, n, n) >= target, f"r({n}) below target {target}")
        if n > 2:
            expect(_solve(family, n - 1, n - 1) < target, f"r({n - 1}) already reaches {target}")

    argv = ["thresholds", "--class", family, "--targets", f"{target:g}", "--format", "json"]
    return cli_request("thresholds", argv, check)


def certify(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for family in ("general", "convex"):
        requests += [_radius_request(family, n, n) for n in range(2, 301)]
        requests += [_radius_request(family, n, n) for n in (1_000, 10_000)]
        # NoBracketError today: may fail (counted as failed) or answer correctly
        requests.append(_radius_request(family, 100_000, 100_000, pinned=False))
        requests += [_threshold_request(family, target) for target in TARGETS]
    for i in range(90):
        n, m = rng.sample(range(2, 301), 2)
        requests.append(_radius_request(("general", "convex")[i % 2], n, m))
    pinned = sorted(PINNED_TABLE)
    requests.append(_table_request("general", pinned[:4]))
    requests.append(_table_request("general", pinned[4:]))
    for _ in range(2):
        requests.append(_table_request("convex", sorted(rng.sample(range(2, 301), 4))))
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------------------
# claims: the registered inequality checks through `verify <id>`
# --------------------------------------------------------------------------


def _verify_request(claim_id: str) -> Request:
    expected = "Fail" if claim_id in FAILING_CLAIMS else "Pass"

    def check(answer):
        (row,) = _json_answer(answer, want_code=1 if expected == "Fail" else 0)
        expect(row["claim_id"] == claim_id, f"answered for {row['claim_id']}")
        expect(row["verdict"] == expected, f"verdict {row['verdict']}, expected {expected}")

    return cli_request("verify", ["verify", claim_id, "--format", "json"], check)


def claims(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = [_verify_request(claim_id) for claim_id in CLAIM_IDS * 2]
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------------------
# scan: empirical kernel/Jacobian scans
# --------------------------------------------------------------------------


def _scan_request(family: str, n: int, scale: int = 1) -> Request:
    def check(answer):
        row = _json_answer(answer)
        cert, emp = row["certified_radius"], row["empirical_radius"]
        expect(abs(cert - _solve(family, n, n)) <= BRACKET_WIDTH, f"certified radius {cert}")
        expect(emp >= cert - 1e-3, f"empirical radius {emp} below certified {cert} - 1e-3")
        expect(row["binding"] in ("jacobian", "kernel", "none"), f"binding {row['binding']}")

    argv = ["scan", "--class", family, "--n", str(n), "--m", str(n), "--format", "json"]
    env = {"HS_GRID_SCALE": str(scale)}
    return cli_request("scan" if scale == 1 else f"scan-x{scale}", argv, check, env=env)


def _random_polynomial(rng: np.random.Generator, n: int, m: int):
    a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / 2.0
    b = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / 2.0
    a[0], b[0] = 1.0, 0.0
    return harmsect.HarmonicPolynomial(a=a, b=b)


def _random_scan_request(poly, label: str) -> Request:
    def run():
        return harmsect.empirical_scan(poly, harmsect.ProbeGrid())

    def check(scan):
        expect(0.0 < scan.radius <= 1.0, f"empirical radius {scan.radius}")
        expect(scan.witness.min_modulus > 0.0, f"kernel minimum {scan.witness.min_modulus}")
        expect(scan.min_jacobian > 0.0, f"jacobian minimum {scan.min_jacobian}")
        expect(scan.binding in ("jacobian", "kernel", None), f"binding {scan.binding}")

    return Request("scan-random", label, run, check)


def scan(seed: int) -> list[Request]:
    rng = np.random.default_rng(seed)
    requests = [_scan_request(family, n) for family, n in CRITERION_8]
    # degree 10, like two of the extremal sections, so the costs of most
    # scans, and hence the tail percentile, sit in one homogeneous group
    requests += [_random_scan_request(_random_polynomial(rng, 10, 10), f"random scan {i}")
                 for i in range(6)]
    requests.append(_scan_request("general", 10, scale=2))
    random.Random(seed).shuffle(requests)
    return requests


# --------------------------------------------------------------------------
# pointwise: scalar library calls and the three plots
# --------------------------------------------------------------------------


def _identity_request(poly, r: float, psi: float, t: float) -> Request:
    eta = psi + 2.0 * t
    z = r * complex(math.cos(psi + t), math.sin(psi + t))

    def run():
        return harmsect.kernel(poly, z, t), harmsect.divided_difference(poly, r, eta, psi)

    def check(answer):
        kv, dd = answer
        err = abs(kv - z * dd) / (1.0 + abs(kv))
        expect(err < 1e-10, f"kernel identity off by {err:.3e} at z={z}, t={t}")

    return Request("kernel-identity", f"kernel identity r={r:.4f} t={t:.4f}", run, check)


def _margin_request(family: str, n: int, m: int, r: float, roots: dict) -> Request:
    fn = "margin_general" if family == "general" else "margin_convex"

    def run():
        return getattr(harmsect, fn)(n, m, r)

    def check(value):
        key = (family, n, m)
        if key not in roots:
            roots[key] = _solve(family, n, m)
        root = roots[key]
        if abs(r - root) > 1e-9:
            expect((value > 0.0) == (r < root), f"{fn}({n}, {m}, {r}) = {value}, root {root}")

    return Request("margin", f"{fn}({n}, {m}, {r:.6f})", run, check)


def _point_request(poly, z: complex) -> Request:
    def run():
        return harmsect.evaluate(poly, z), harmsect.jacobian(poly, z)

    def check(answer):
        value, jac = answer
        h = np.polynomial.Polynomial(np.concatenate([[0.0], poly.a]))
        g = np.polynomial.Polynomial(np.concatenate([[0.0], poly.b]))
        want = h(z) + np.conj(g(z))
        want_jac = abs(h.deriv()(z)) ** 2 - abs(g.deriv()(z)) ** 2
        expect(abs(value - want) <= 1e-12 * (1.0 + abs(want)), f"f({z}) = {value}, want {want}")
        expect(abs(jac - want_jac) <= 1e-12 * (1.0 + abs(want_jac)), f"J({z}) = {jac}, want {want_jac}")

    return Request("evaluate-jacobian", f"evaluate/jacobian at {z:.4f}", run, check)


def _read_desc(path: Path) -> dict:
    import xml.etree.ElementTree as ET

    desc = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}desc")
    expect(desc is not None and bool(desc.text), f"{path} has no <desc>")
    return dict(item.split("=", 1) for item in desc.text.split(";"))


def _curve_plot_request(kind: str, n: int, out: Path, target: float | None) -> Request:
    family = "general" if kind == "psi-curve" else "convex"
    argv = ["plot", kind, "--n", str(n), "--out", str(out)]
    if target is not None:
        argv += ["--target", f"{target:g}"]

    def check(answer):
        _expect_written(answer)
        desc = _read_desc(out)
        root = f"{_solve(family, n, n):.9g}"
        expect(desc["root"] == root, f"<desc> root {desc['root']} != solve_radius {root}")

    return cli_request("plot", argv, check)


def _boundary_plot_request(family: str, n: int, m: int, r: float, out: Path) -> Request:
    argv = ["plot", "boundary-image", "--class", family, "--n", str(n), "--m", str(m),
            "--r", f"{r:.6f}", "--out", str(out)]

    def check(answer):
        _expect_written(answer)
        desc = _read_desc(out)
        expect(desc["kind"] == "boundary" and desc["points"] == "1000", f"<desc> {desc}")
        expect(desc["radius"] == f"{float(f'{r:.6f}'):.9g}", f"<desc> radius {desc['radius']}")

    return cli_request("plot", argv, check)


def _expect_written(answer) -> None:
    code, text = answer
    expect(code == 0 and text.startswith("wrote "), f"exit {code}: {text!r}")


def pointwise(seed: int, out_dir: Path) -> LazyRequests:
    # 15000 calls: enough that the tail percentile lands among the three plots
    rng = np.random.default_rng(seed)
    polys = [_random_polynomial(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)))
             for _ in range(8)]
    pairs = [(("general", "convex")[i % 2], int(rng.integers(2, 60)), int(rng.integers(2, 60)))
             for i in range(8)]
    roots: dict = {}
    radii, psis, ts, margin_rs = (rng.uniform(0.05, 0.95, 5000), rng.uniform(0.0, 2.0 * math.pi, 5000),
                                  rng.uniform(1e-6, math.pi / 2, 5000), rng.uniform(0.02, 0.98, 5000))
    points = rng.uniform(0.05, 0.95, 4997) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4997))
    plots = [
        _curve_plot_request("psi-curve", int(rng.integers(2, 100)), out_dir / "psi.svg", None),
        _curve_plot_request("mu-curve", int(rng.integers(2, 100)), out_dir / "mu.svg", 0.5),
        _boundary_plot_request(("general", "convex")[int(rng.integers(2))],
                               int(rng.integers(2, 12)), int(rng.integers(2, 12)),
                               float(rng.uniform(0.1, 0.9)), out_dir / "boundary.svg"),
    ]

    def make(i: int) -> Request:
        # 0..9999: identity and margin calls in turn; then 4997 points; then the plots
        if i < 10_000:
            k = i // 2
            if i % 2 == 0:
                return _identity_request(polys[k % 8], float(radii[k]), float(psis[k]), float(ts[k]))
            family, n, m = pairs[k % 8]
            return _margin_request(family, n, m, float(margin_rs[k]), roots)
        if i < 14_997:
            j = i - 10_000
            return _point_request(polys[j % 8], complex(points[j]))
        return plots[i - 14_997]

    return LazyRequests(rng.permutation(15_000), make)


def build(workload: str, seed: int, out_dir: Path) -> Sequence[Request]:
    """The seeded request list of one workload; plots go to the existing `out_dir`."""
    if workload == "pointwise":
        return pointwise(seed, Path(out_dir))
    return {"certify": certify, "claims": claims, "scan": scan}[workload](seed)
