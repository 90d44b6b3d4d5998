"""Run a fixed list of harmsect commands and write what each one outputs.

    python3 tools/cli_outputs.py OUT_DIR [SRC_DIR]

Each command runs in this process through `harmsect.cli.main`, imported
from SRC_DIR (default: src next to this script's directory).  Its stdout,
stderr and exit code, and the plot file of a plot command, go to
OUT_DIR/<name>/ as `stdout`, `stderr`, `exit` and `plot.svg`.  Run it on
two checkouts into two directories, and `diff -r` of the two directories
shows every output that differs:

    python3 tools/cli_outputs.py /tmp/before /path/to/other/src
    python3 tools/cli_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

The outputs are also recorded under tests/cli_outputs, which
tests/test_cli_outputs.py compares against byte for byte;

    python3 tools/cli_outputs.py tests/cli_outputs

rewrites them.

The list covers the scan JSON of the six criterion-8 sections and a few
more (one at HS_GRID_SCALE=2), `radius`, `table`, `thresholds` (7/22/78
general, 12/43 convex) and `verify all` in all three formats, the curve
and boundary plots, and a few error paths.  No command calls the
pointwise functions on one point, so one more entry, OUT_DIR/scalar-calls/
`values`, holds the float.hex bits of `evaluate`, `jacobian`, `kernel` and
`divided_difference` on seeded polynomials and points, another,
OUT_DIR/polynomials/`values`, the bits of the slope bracket's parts, of
their assembly and of their roots, and a third, OUT_DIR/claim-blocks/
`values`, the bits of the arrays of a few claim blocks, which `verify`
reduces to their worst margins.  A fourth, OUT_DIR/solver/`values`, holds
the bits of every field of about 1000 solves.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

FORMATS = ("text", "csv", "json")


def _scan(family: str, n: int, m: int, *extra: str) -> list[str]:
    return ["scan", "--class", family, "--n", str(n), "--m", str(m), *extra]


def commands() -> list[tuple[str, list[str], dict]]:
    """(name, argv, environment) of every command; "{out}" in argv is the plot path."""
    out = []
    criterion_8 = [("general", 2), ("general", 5), ("general", 10),
                   ("convex", 5), ("convex", 10), ("convex", 17)]
    for family, n in criterion_8 + [("convex", 3)]:
        out.append((f"scan-{family}-{n}", _scan(family, n, n, "--format", "json"), {}))
    out += [
        ("scan-identity-5", _scan("general", 5, 5, "--identity", "--format", "json"), {}),
        ("scan-general-10-x2", _scan("general", 10, 10, "--format", "json"),
         {"HS_GRID_SCALE": "2"}),
        ("scan-general-1000-2", _scan("general", 1000, 2, "--format", "csv"), {}),
        ("scan-general-4-7-text", _scan("general", 4, 7), {}),
        ("scan-order-too-large", _scan("general", 100000, 2), {}),
    ]
    for fmt in FORMATS:
        out += [
            (f"radius-general-2-{fmt}",
             ["radius", "--class", "general", "--n", "2", "--m", "2", "--format", fmt], {}),
            (f"radius-convex-287-{fmt}",
             ["radius", "--class", "convex", "--n", "287", "--m", "287", "--format", fmt], {}),
            (f"table-general-{fmt}",
             ["table", "--class", "general", "--n", "2,3,4,5,10,20,50,100", "--format", fmt], {}),
            (f"table-convex-{fmt}",
             ["table", "--class", "convex", "--n", "2,5,17,46,287", "--format", fmt], {}),
            (f"thresholds-general-{fmt}",
             ["thresholds", "--class", "general", "--targets", "0.25,0.5,0.75", "--format", fmt],
             {}),
            (f"thresholds-convex-{fmt}",
             ["thresholds", "--class", "convex", "--targets", "0.5,0.75", "--format", fmt], {}),
            (f"verify-all-{fmt}", ["verify", "all", "--format", fmt], {}),
        ]
    out += [
        ("table-no-order", ["table", "--class", "general", "--n", ","], {}),
        ("table-no-n", ["table", "--class", "general"], {}),
        ("thresholds-no-target", ["thresholds", "--class", "general", "--targets", ","], {}),
        ("table-order-not-integer", ["table", "--class", "convex", "--n", "2.5"], {}),
        ("thresholds-target-not-number",
         ["thresholds", "--class", "general", "--targets", "abc"], {}),
        ("radius-general-100000", ["radius", "--class", "general", "--n", "100000", "--m", "2"],
         {}),
    ]
    plots = {
        "plot-psi-2": ["psi-curve", "--n", "2"],
        "plot-psi-7": ["psi-curve", "--n", "7"],
        "plot-psi-100000": ["psi-curve", "--n", "100000"],
        "plot-mu-17-target": ["mu-curve", "--n", "17", "--target", "0.5"],
        "plot-mu-2-target": ["mu-curve", "--n", "2", "--target", "0.2"],
        "plot-boundary-general": ["boundary-image", "--class", "general", "--n", "5", "--m", "5"],
        "plot-boundary-convex": ["boundary-image", "--class", "convex", "--n", "17", "--m", "17",
                                 "--r", "0.8"],
        "plot-boundary-identity": ["boundary-image", "--identity", "--r", "0.5"],
    }
    out += [(name, ["plot", *args, "--out", "{out}"], {}) for name, args in plots.items()]
    return out


def scalar_values() -> str:
    """One line per scalar call of the pointwise functions, its value as float.hex.

    harmsect is imported from wherever main put it on the path.  The
    polynomials are seeded ones of degree 2 to 11 and the general
    extremal map's degree-(10, 8) section; the points are seeded ones in
    the disk, 0, a real number and a numpy scalar, and t runs over 0,
    pi/2 and seeded values in between.
    """
    from harmsect import harmonic
    from harmsect.radius import FamilyClass

    rng = np.random.default_rng(2026)
    polys = {"extremal-10-8": harmonic.section(harmonic.extremal_map(FamilyClass.GENERAL), 10, 8)}
    for i in range(4):
        n, m = (int(k) for k in rng.integers(2, 12, 2))
        a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / 2.0
        b = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / 2.0
        a[0], b[0] = 1.0, 0.0
        polys[f"random-{i}-{n}-{m}"] = harmonic.HarmonicPolynomial(a=a, b=b)
    zs = [0, 0.5, np.float64(-0.25)] + [
        complex(z) for z in rng.uniform(0.0, 0.95, 5) * np.exp(1j * rng.uniform(0.0, 6.28, 5))
    ]
    ts = [0.0, math.pi / 2] + [float(t) for t in rng.uniform(0.0, math.pi / 2, 3)]
    chords = [tuple(float(x) for x in (rng.uniform(0.05, 0.95), *rng.uniform(0.0, 6.28, 2)))
              for _ in range(3)]

    def bits(value) -> str:
        value = complex(value)
        return f"{value.real.hex()} {value.imag.hex()}"

    lines = []
    for name, p in polys.items():
        for z in zs:
            lines.append(f"evaluate {name} {z!r}: {bits(harmonic.evaluate(p, z))}")
            lines.append(f"jacobian {name} {z!r}: {harmonic.jacobian(p, z).hex()}")
            lines += [f"kernel {name} {z!r} {t!r}: {bits(harmonic.kernel(p, z, t))}" for t in ts]
        lines += [f"divided_difference {name} {chord!r}: "
                  f"{bits(harmonic.divided_difference(p, *chord))}" for chord in chords]
    return "\n".join(lines) + "\n"


def polynomial_values() -> str:
    """The float.hex bits of the six slope bracket parts and what is formed from them.

    Each part's coefficients (a part is read as its `coefficients` if it
    has them, so older checkouts write the same lines),
    `slope_bracket_scaled` on the Q-identity claim's k grid at four
    orders, and each part's real roots on [-10, 10].
    """
    from harmsect import claims
    from harmsect.polyroots import isolate_real_roots

    def bits(values) -> str:
        return " ".join(float(v).hex() for v in values)

    parts = [*claims.SCALED_BRACKET_PARTS, claims._ASSEMBLY_PART_4]
    lines = [f"part {i} coefficients: {bits(getattr(part, 'coefficients', part))}"
             for i, part in enumerate(parts, start=1)]
    ks = np.linspace(1.0, 3.0, 201)
    lines += [f"slope_bracket_scaled n={n}: {bits(claims.slope_bracket_scaled(ks, n).tolist())}"
              for n in (15, 60, 10**6, 2**80)]
    lines += [f"part {i} roots: {bits(isolate_real_roots(part, -10.0, 10.0))}"
              for i, part in enumerate(parts, start=1)]
    return "\n".join(lines) + "\n"


def claim_block_values() -> str:
    """The float.hex bits of q2-positive's and Q-identity's block arrays.

    The q2-positive grid and margin rows of n = 15, 191, 500 and 10**6,
    each from the block the claim evaluates it in, every gap row of the
    first Q-identity block, and `slope_bracket_general` at seeded Python
    floats.  Each block writes into a workspace of the shape its step
    gives it.
    """
    from harmsect import claims

    def bits(values) -> str:
        return " ".join(float(v).hex() for v in values)

    lines = []
    size = claims._BLOCK_POINTS // 1000
    for n in (15, 191, 500, 10**6):
        i = claims._GENERAL_ORDERS.index(n)
        chunk = claims._GENERAL_ORDERS[i - i % size : i - i % size + size]
        work = claims._aligned_empty((claims._Q2_BUFFERS, len(chunk), 1000))
        xs, [(label, margins)] = claims._q2_block(chunk, work)
        row = chunk.index(n)
        lines += [f"q2-positive n={n} x: {bits(xs[row].tolist())}",
                  f"q2-positive n={n} {label}: {bits(margins[row].tolist())}"]
    orders = list(range(15, 61))
    chunk = orders[: claims._BLOCK_POINTS // len(claims._K_GRID)]
    work = claims._aligned_empty((claims._BRACKET_BUFFERS, len(chunk), len(claims._K_GRID)))
    _, [(label, gaps)] = claims._identity_block(chunk, work)
    lines += [f"Q-identity n={n} {label}: {bits(row.tolist())}" for n, row in zip(chunk, gaps)]
    rng = np.random.default_rng(2026)
    for n in (15, 191, 195, 199, 10**6):
        lines += [f"slope_bracket_general n={n} x={x!r}: {claims.slope_bracket_general(x, n).hex()}"
                  for x in rng.uniform(0.0, float(n), 5).tolist()]
    return "\n".join(lines) + "\n"


def solver_values() -> str:
    """One line per solve: the float.hex bits of `solve_radius`'s result.

    Both families at equal orders 2..300, 1e3, 1e4, 1e5 and 1e12, at 200
    seeded off-diagonal pairs from 2..300, and at (3e18, 2) and (2, 1e9).
    `radius` prints only the radius table's orders and a few pairs, and a
    table only 12 significant digits, so these lines pin every solve bit
    for bit.
    """
    from harmsect.radius import FamilyClass, solve_radius

    rng = np.random.default_rng(2027)
    off_diagonal = []
    while len(off_diagonal) < 200:
        n, m = (int(k) for k in rng.integers(2, 301, 2))
        if n != m:
            off_diagonal.append((n, m))
    pairs = [(n, n) for n in [*range(2, 301), 10**3, 10**4, 10**5, 10**12]]
    pairs += off_diagonal + [(3 * 10**18, 2), (2, 10**9)]
    lines = []
    for family in FamilyClass:
        for n, m in pairs:
            with warnings.catch_warnings():
                # the lower-bound warning, which radius prints on stderr
                warnings.simplefilter("ignore", UserWarning)
                res = solve_radius(family, n, m)
            bound = "none" if res.lower_bound is None else res.lower_bound.hex()
            lines.append(f"{family.value} n={n} m={m}: radius {res.radius.hex()} "
                         f"bracket_lo {res.bracket_lo.hex()} bracket_hi {res.bracket_hi.hex()} "
                         f"residual {res.residual.hex()} iterations {res.iterations} "
                         f"lower_bound {bound}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _environment(env: dict):
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# the entries that hold values rather than a command's output, and what
# writes each one's `values`
VALUES = (("scalar-calls", scalar_values), ("polynomials", polynomial_values),
          ("claim-blocks", claim_block_values), ("solver", solver_values))


def run(main, argv: list[str], env: dict) -> tuple[str, str, int]:
    """stdout, stderr and exit code of main(argv) under the extra environment.

    argparse wraps its usage text at the terminal's width, read from
    COLUMNS first, so COLUMNS is 80 unless env says otherwise: the
    outputs do not depend on the terminal the tool runs in.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with (_environment({"COLUMNS": "80", **env}), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return stdout.getvalue(), stderr.getvalue(), code


def write_command(main, out_dir: Path, name: str, args: list[str], env: dict) -> None:
    """Run one listed command through main and write its files under out_dir/name."""
    target = out_dir / name
    target.mkdir(parents=True, exist_ok=True)
    plot = target / "plot.svg"
    stdout, stderr, code = run(main, [arg.replace("{out}", str(plot)) for arg in args], env)
    # the plot path is written relative to OUT_DIR, so that it reads the
    # same whatever OUT_DIR is
    stdout = stdout.replace(str(plot), f"{name}/plot.svg")
    (target / "stdout").write_text(stdout, encoding="utf-8")
    (target / "stderr").write_text(stderr, encoding="utf-8")
    (target / "exit").write_text(f"{code}\n", encoding="utf-8")


def write_values(out_dir: Path, name: str, values) -> None:
    """Write what values() returns to out_dir/name/values."""
    target = out_dir / name
    target.mkdir(parents=True, exist_ok=True)
    (target / "values").write_text(values(), encoding="utf-8")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python3 tools/cli_outputs.py OUT_DIR [SRC_DIR]", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    sys.path.insert(0, str(Path(argv[1]).resolve() if len(argv) == 2 else SRC))
    from harmsect.cli import main as cli_main

    listed = commands()
    for name, args, env in listed:
        write_command(cli_main, out_dir, name, args, env)
    for name, values in VALUES:
        write_values(out_dir, name, values)
    print(f"wrote {len(listed)} command outputs, the scalar calls, the polynomials, the claim "
          f"blocks and the solves under {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
