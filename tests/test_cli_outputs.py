"""The outputs of `tools/cli_outputs.py`, recorded under tests/cli_outputs, byte for byte.

Every entry the tool lists is run in process into a temporary directory,
as the tool runs it, and each of its files must equal the recorded one
byte for byte: the stdout, stderr, exit code and plot of each command
(the scan JSON, `radius`, `table`, `thresholds` and `verify all` in every
format, the curve and boundary plots and the error paths), and the
`values` of `polynomials` (the bracket parts' bits), `claim-blocks` (the
claim blocks' arrays) and `solver` (every field of about 1000 solves).

Two entries are recorded but not compared, because their bits come from
the platform rather than from harmsect:
- `scalar-calls`: one point runs on `math.sin` and `cmath.exp`, whose
  last bit is the C library's;
- `scan-general-1000-2`: the degree-1000 kernel pass is a BLAS matrix
  product, whose summation order is the BLAS build's.

A change that moves an output rewrites the recorded files with
`python3 tools/cli_outputs.py tests/cli_outputs` and names each moved
entry in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

from harmsect import cli

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "cli_outputs"

UNPINNED = {"scalar-calls", "scan-general-1000-2"}


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


TOOL = load_tool()
COMMANDS = {name: (args, env) for name, args, env in TOOL.commands()}
VALUES = dict(TOOL.VALUES)


def files(directory: Path) -> list[str]:
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*") if path.is_file())


def test_every_listed_entry_is_recorded():
    assert sorted(path.name for path in RECORDED.iterdir()) == sorted([*COMMANDS, *VALUES])
    assert UNPINNED <= {*COMMANDS, *VALUES}


@pytest.mark.parametrize("name", sorted({*COMMANDS, *VALUES} - UNPINNED))
def test_output_is_the_recorded_bytes(tmp_path, name):
    if name in COMMANDS:
        TOOL.write_command(cli.main, tmp_path, name, *COMMANDS[name])
    else:
        TOOL.write_values(tmp_path, name, VALUES[name])
    written, recorded = tmp_path / name, RECORDED / name
    assert files(written) == files(recorded)
    for file in files(recorded):
        assert (written / file).read_bytes() == (recorded / file).read_bytes(), f"{name}/{file}"
