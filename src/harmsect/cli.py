"""Command-line surface: radii, tables, thresholds, claim checks, scans, plots.

Exit codes are a stable contract: 0 success, 1 at least one claim failed,
2 usage or domain error (including an order whose margin root lies within
one double of 1, and a section order above 1000), 3 I/O error.  Output
formats: text (default), csv (header row, comma separated, LF line endings,
numbers at 12 significant digits), json (snake_case keys).  SVG is produced
only by the plot subcommand.  The environment variable HS_GRID_SCALE
(an integer from 1 to 8) scales the default probe grid of the scan
subcommand; any other value is a usage error, reported before any grid is
built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .claims import UnknownClaimError, verify_all, verify_claim
from .harmonic import (
    ExtremalCoefficients,
    HarmonicPolynomial,
    ProbeGrid,
    empirical_scan,
    evaluate,
    section,
)
from .radius import (
    FamilyClass,
    margin_fn,
    solve_radius,
    threshold_order,
)
from .svg import curve_window, write_boundary_plot, write_curve_plot

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _emit_csv(rows: list[dict], header: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(key)) for key in header])
    return buf.getvalue()


def _print_report(rows: list[dict], header: list[str], fmt: str, text_lines: list[str],
                  *, always_list: bool = False) -> None:
    if fmt == "json":
        payload = rows if (always_list or len(rows) != 1) else rows[0]
        print(json.dumps(payload))
    elif fmt == "csv":
        sys.stdout.write(_emit_csv(rows, header))
    else:
        for line in text_lines:
            print(line)


def _parse_list(text: str, kind) -> list:
    """Comma-separated values converted by `kind`; empty items are skipped."""
    return [kind(part) for part in text.split(",") if part.strip()]


def cmd_radius(args) -> int:
    family = FamilyClass(args.family)
    result = solve_radius(family, args.n, args.m)
    row = {
        "family": family.value,
        "n": args.n,
        "m": args.m,
        "radius": result.radius,
        "bracket_lo": result.bracket_lo,
        "bracket_hi": result.bracket_hi,
        "residual": result.residual,
        "iterations": result.iterations,
        "lower_bound": result.lower_bound,
    }
    header = list(row.keys())
    text = [
        f"family={family.value} n={args.n} m={args.m}",
        f"radius = {result.radius:.6f} (full {result.radius:.15g})",
        f"bracket = [{result.bracket_lo:.15f}, {result.bracket_hi:.15f}]",
        f"residual = {result.residual:.3e} after {result.iterations} bisections",
        f"lower_bound = {_fmt(result.lower_bound) or 'n/a'}",
    ]
    _print_report([row], header, args.format, text)
    return EXIT_OK


def cmd_table(args) -> int:
    family = FamilyClass(args.family)
    rows = []
    text = []
    for n in _parse_list(args.n_list, int):
        result = solve_radius(family, n, n)
        rows.append({"n": n, "radius": result.radius, "lower_bound": result.lower_bound})
        text.append(
            f"n={n:5d}  radius={result.radius:.6f}  "
            f"lower_bound={_fmt(result.lower_bound) or 'n/a'}"
        )
    _print_report(rows, ["n", "radius", "lower_bound"], args.format, text, always_list=True)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    family = FamilyClass(args.family)
    rows = []
    text = []
    for target in _parse_list(args.targets, float):
        n = threshold_order(family, target)
        rows.append({"target": target, "n": n})
        text.append(f"target={target:g}  smallest n={n}")
    _print_report(rows, ["target", "n"], args.format, text, always_list=True)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify_all() if args.claim == "all" else [verify_claim(args.claim)]
    text = [
        f"[{rep.verdict:4s}] {rep.claim_id:18s} worst_margin={rep.worst_margin:.6g} "
        f"witness={rep.witness}  checked: {rep.parameter_range}"
        for rep in reports
    ]
    _print_report([rep.as_dict() for rep in reports],
                  ["claim_id", "verdict", "worst_margin", "parameter_range", "witness"],
                  args.format, text, always_list=True)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_CLAIM_FAILED


# both passes run on the circle, whose 4 x 256 angles grow with the scale:
# at 8 the kernel's e^(ik theta) table at the largest section order holds
# 1000 x 8192 complex values, 131 MB
_MAX_GRID_SCALE = 8


def _grid_scale_from_env() -> int:
    raw = os.environ.get("HS_GRID_SCALE", "")
    if not raw:
        return 1
    try:
        scale = int(raw)
    except ValueError as exc:
        raise ValueError(f"HS_GRID_SCALE must be an integer, got {raw!r}") from exc
    if not 1 <= scale <= _MAX_GRID_SCALE:
        raise ValueError(f"HS_GRID_SCALE must lie in 1..{_MAX_GRID_SCALE}, got {scale}")
    return scale


def _model_section(args, family: FamilyClass):
    """The (n, m) section of the identity map (--identity) or of the family's extremal map."""
    source = HarmonicPolynomial(a=[1.0], b=[0.0]) if args.identity else ExtremalCoefficients(family)
    return section(source, args.n, args.m)


def cmd_scan(args) -> int:
    family = FamilyClass(args.family)
    certified = solve_radius(family, args.n, args.m).radius
    poly = _model_section(args, family)
    grid = ProbeGrid().scaled(_grid_scale_from_env())
    scan = empirical_scan(poly, grid)
    row = {
        "family": family.value,
        "n": args.n,
        "m": args.m,
        "model": "identity" if args.identity else "extremal",
        "certified_radius": certified,
        "empirical_radius": scan.radius,
        "binding": scan.binding or "none",
        "min_kernel_modulus": scan.witness.min_modulus,
        "witness_z_re": scan.witness.argmin_z.real,
        "witness_z_im": scan.witness.argmin_z.imag,
        "witness_t": scan.witness.argmin_t,
        "min_jacobian": scan.min_jacobian,
    }
    text = [
        f"family={family.value} n={args.n} m={args.m} model={row['model']}",
        f"certified radius = {certified:.9f}",
        f"empirical radius = {scan.radius:.4f} (circle "
        f"{4 * grid.angular_points}x{grid.t_points}, one-sided)",
        f"binding predicate = {row['binding']}",
        f"kernel minimum at empirical radius = {scan.witness.min_modulus:.6g} at "
        f"z={scan.witness.argmin_z:.6f}, t={scan.witness.argmin_t:.6f}",
        f"jacobian minimum at empirical radius = {scan.min_jacobian:.6g}",
    ]
    _print_report([row], list(row.keys()), args.format, text)
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.kind in ("psi-curve", "mu-curve"):
        family = FamilyClass.GENERAL if args.kind == "psi-curve" else FamilyClass.CONVEX
        if args.target is not None and not math.isfinite(args.target):
            raise ValueError(f"--target must be finite, got {args.target}")
        n = args.n
        result = solve_radius(family, n, n)
        lo, hi = curve_window(result.radius)
        xs = np.linspace(lo, hi, 1000)
        ys = margin_fn(family)(n, n, xs)
        label = "general margin" if family is FamilyClass.GENERAL else "convex margin"
        write_curve_plot(
            args.out,
            xs,
            ys,
            title=f"{label}, n = m = {n}",
            x_label="r",
            y_label="margin",
            root=result.radius,
            vline=args.target,
        )
        print(f"wrote {args.out} (root at r = {result.radius:.9f})")
    else:
        family = FamilyClass(args.family)
        poly = _model_section(args, family)
        if not 0.0 < args.r < 1.0:
            raise ValueError(f"--r must lie in (0, 1), got {args.r}")
        thetas = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        points = evaluate(poly, args.r * np.exp(1j * thetas))
        model = "identity" if args.identity else f"{family.value} extremal"
        write_boundary_plot(
            args.out,
            points,
            title=f"image of |z| = {args.r:g} under {model} section ({args.n}, {args.m})",
            radius=args.r,
        )
        print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="harmsect",
        description="Univalence radii of harmonic-mapping sections: solver, "
        "claim checks, and grid scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    def add_class(p, **kwargs):
        p.add_argument("--class", dest="family", choices=[f.value for f in FamilyClass], **kwargs)

    p = sub.add_parser("radius", help="certified radius for one (n, m) section")
    add_class(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("table", help="equal-order radii for a list of n values")
    add_class(p, required=True)
    p.add_argument("--n", dest="n_list", default="", help="comma-separated orders")
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("thresholds", help="smallest n reaching each target radius")
    add_class(p, required=True)
    p.add_argument("--targets", required=True, help="comma-separated targets in (0, 1)")
    add_format(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("verify", help="run registered claim checks")
    p.add_argument("claim", help="'all' or one claim id")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="empirical radius scan of an extremal section")
    add_class(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--identity", action="store_true", help="scan the identity map instead")
    add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("plot", help="emit a standalone SVG")
    p.add_argument("kind", choices=("psi-curve", "mu-curve", "boundary-image"))
    add_class(p, default="general")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--r", type=float, default=0.5, help="circle radius for boundary-image")
    p.add_argument("--target", type=float, default=None, help="vertical reference line")
    p.add_argument("--identity", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnknownClaimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
