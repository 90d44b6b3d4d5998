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

The list covers the scan JSON of the six criterion-8 sections and a few
more (one at HS_GRID_SCALE=2), `radius`, `table`, `thresholds` (7/22/78
general, 12/43 convex) and `verify all` in all three formats, the curve
and boundary plots, and a few error paths.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

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


def run(main, argv: list[str], env: dict) -> tuple[str, str, int]:
    """stdout, stderr and exit code of main(argv) under the extra environment."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with _environment(env), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return stdout.getvalue(), stderr.getvalue(), code


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python3 tools/cli_outputs.py OUT_DIR [SRC_DIR]", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    sys.path.insert(0, str(Path(argv[1]).resolve() if len(argv) == 2 else SRC))
    from harmsect.cli import main as cli_main

    listed = commands()
    for name, args, env in listed:
        target = out_dir / name
        target.mkdir(parents=True, exist_ok=True)
        plot = target / "plot.svg"
        stdout, stderr, code = run(cli_main, [arg.replace("{out}", str(plot)) for arg in args], env)
        # the plot path is written relative to OUT_DIR, so that it reads the
        # same whatever OUT_DIR is
        stdout = stdout.replace(str(plot), f"{name}/plot.svg")
        (target / "stdout").write_text(stdout, encoding="utf-8")
        (target / "stderr").write_text(stderr, encoding="utf-8")
        (target / "exit").write_text(f"{code}\n", encoding="utf-8")
    print(f"wrote {len(listed)} command outputs under {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
