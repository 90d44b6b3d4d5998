"""CLI contract: subcommands, formats, exit codes, SVG emission."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import harmsect
from harmsect import cli, radius
from harmsect.radius import FamilyClass, solve_radius
from harmsect.svg import read_desc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadius:
    def test_text_contains_six_decimal_value(self, capsys):
        code, out, _ = run(capsys, "radius", "--class", "general", "--n", "2", "--m", "2")
        assert code == 0
        assert "0.108193" in out

    def test_table_value_order_fifty(self, capsys):
        code, out, _ = run(capsys, "radius", "--class", "general", "--n", "50", "--m", "50")
        assert code == 0
        assert "0.675001" in out

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "radius", "--class", "general", "--n", "1", "--m", "2")
        assert code == 2
        assert ">= 2" in err

    def test_unbracketed_order_is_a_domain_error(self, capsys):
        # the forward scan ends at r = 0.999, below the n = 1e5 root, so the
        # solver raises NoBracketError; the CLI reports it, not a traceback
        code, out, err = run(
            capsys, "radius", "--class", "general", "--n", "100000", "--m", "100000"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: no positive-to-nonpositive change")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "radius", "--class", "convex", "--n", "7", "--m", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        result = solve_radius(FamilyClass.CONVEX, 7, 9)
        expected = {
            "family": "convex",
            "n": 7,
            "m": 9,
            "radius": result.radius,
            "bracket_lo": result.bracket_lo,
            "bracket_hi": result.bracket_hi,
            "residual": result.residual,
            "iterations": result.iterations,
            "lower_bound": result.lower_bound,
        }
        assert payload == expected
        assert json.loads(json.dumps(payload)) == payload


class TestTable:
    def test_csv_header_and_precision(self, capsys):
        code, out, _ = run(
            capsys, "table", "--class", "general", "--n", "2,15", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,radius,lower_bound"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        # comparison on parsed values, not formatted strings
        assert float(rows[0]["radius"]) == pytest.approx(0.108193, abs=5e-7)
        assert rows[0]["lower_bound"] == ""
        assert float(rows[1]["lower_bound"]) == pytest.approx(0.0019043, abs=1e-7)
        # at least 9 significant digits survive the round trip
        assert abs(float(rows[0]["radius"]) - solve_radius(FamilyClass.GENERAL, 2, 2).radius) < 1e-9

    def test_empty_list_header_only(self, capsys):
        code, out, _ = run(capsys, "table", "--class", "general", "--format", "csv")
        assert code == 0
        assert out == "n,radius,lower_bound\n"

    def test_invalid_order(self, capsys):
        code, _, _ = run(capsys, "table", "--class", "general", "--n", "2,1")
        assert code == 2


class TestThresholds:
    def test_general_pair(self, capsys):
        code, out, _ = run(
            capsys, "thresholds", "--class", "general", "--targets", "0.25,0.5",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [{"target": 0.25, "n": 7}, {"target": 0.5, "n": 22}]

    def test_out_of_range_target(self, capsys):
        code, _, _ = run(capsys, "thresholds", "--class", "general", "--targets", "1.5")
        assert code == 2

    def test_unreached_target_is_a_domain_error(self, capsys, monkeypatch):
        # 0.9995 is out of reach below the cap of 10 000; a cap of 30 gives the
        # same exit after 29 solves instead of 9 999
        monkeypatch.setattr(radius, "MAX_THRESHOLD_ORDER", 30)
        code, out, err = run(capsys, "thresholds", "--class", "general", "--targets", "0.9995")
        assert code == 2
        assert out == ""
        assert err == "error: no equal-order radius reached 0.9995 for general up to n=30\n"


class TestVerify:
    def test_single_passing_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "distortion-min-rule")
        assert code == 0
        assert "Pass" in out

    def test_q_roots(self, capsys):
        code, out, _ = run(capsys, "verify", "Q-roots", "--format", "json")
        assert code == 0
        (payload,) = json.loads(out)
        assert payload["claim_id"] == "Q-roots"
        assert payload["verdict"] == "Pass"

    def test_integer_witness_stays_integer(self, capsys):
        code, out, _ = run(capsys, "verify", "t-decreasing", "--format", "json")
        assert code == 0
        assert '"n": 15,' in out
        (payload,) = json.loads(out)
        assert payload["witness"]["n"] == 15 and isinstance(payload["witness"]["n"], int)

    def test_all_reports_thirteen_and_exit_one(self, capsys):
        # two registered limit spot checks fail by construction, so the
        # aggregate run reports 13 claims and exits 1
        code, out, _ = run(capsys, "verify", "all", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert len(payload) == 13
        failing = {rep["claim_id"] for rep in payload if rep["verdict"] == "Fail"}
        assert failing == {"T-limit-half", "t-limit-64-2401"}
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown claim" in err


class TestScan:
    def test_general_two(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--class", "general", "--n", "2", "--m", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certified_radius"] == pytest.approx(0.108193, abs=5e-7)
        assert payload["empirical_radius"] >= 0.107
        assert payload["binding"] == "jacobian"
        assert payload["min_kernel_modulus"] > 0

    def test_general_two_json_is_frozen(self, capsys, monkeypatch):
        # the full record, bit for bit, as the scan with a kernel pass at
        # every bisection step printed it; the witness is the kernel minimum
        # on the circle |z| = r = 0.166015625, at z = -r, t = 0, where
        # K = -r + 4 r^2 exactly
        monkeypatch.delenv("HS_GRID_SCALE", raising=False)
        code, out, _ = run(
            capsys, "scan", "--class", "general", "--n", "2", "--m", "2", "--format", "json"
        )
        assert code == 0
        assert out == (
            '{"family": "general", "n": 2, "m": 2, "model": "extremal", '
            '"certified_radius": 0.10819284382974731, "empirical_radius": 0.166015625, '
            '"binding": "jacobian", "min_kernel_modulus": 0.0557708740234375, '
            '"witness_z_re": -0.166015625, "witness_z_im": 2.033105037646973e-17, '
            '"witness_t": 0.0, "min_jacobian": 0.001312255859375}\n'
        )

    def test_identity_override(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--class", "general", "--n", "2", "--m", "2",
            "--identity", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["empirical_radius"] == pytest.approx(1.0, abs=2e-3)
        assert payload["binding"] == "none"

    def test_invalid_orders(self, capsys):
        code, _, _ = run(capsys, "scan", "--class", "general", "--n", "1", "--m", "2")
        assert code == 2

    def test_grid_scale_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HS_GRID_SCALE", "0")
        code, _, err = run(capsys, "scan", "--class", "general", "--n", "2", "--m", "2")
        assert code == 2
        assert "HS_GRID_SCALE" in err


class TestPlot:
    def test_psi_curve_marks_root(self, tmp_path, capsys):
        out_path = tmp_path / "curve.svg"
        code, _, _ = run(capsys, "plot", "psi-curve", "--n", "2", "--out", str(out_path))
        assert code == 0
        ET.parse(out_path)  # well-formed XML
        desc = read_desc(str(out_path))
        assert float(desc["root"]) == pytest.approx(0.108193, abs=5e-7)

    def test_mu_curve_root_right_of_target(self, tmp_path, capsys):
        out_path = tmp_path / "mu.svg"
        code, _, _ = run(
            capsys, "plot", "mu-curve", "--n", "17", "--target", "0.5", "--out", str(out_path)
        )
        assert code == 0
        desc = read_desc(str(out_path))
        # x-to-pixel map is increasing, so data-space order decides marker order
        assert float(desc["root"]) > float(desc["vline"])

    def test_boundary_image_of_identity_is_circle(self, tmp_path, capsys):
        out_path = tmp_path / "circle.svg"
        code, _, _ = run(
            capsys, "plot", "boundary-image", "--identity", "--r", "0.5",
            "--out", str(out_path),
        )
        assert code == 0
        root = ET.parse(out_path).getroot()
        desc = read_desc(str(out_path))
        assert float(desc["radius"]) == 0.5
        # invert the frame transform and check every sampled point radius
        x0, x1 = float(desc["x0"]), float(desc["x1"])
        y0, y1 = float(desc["y0"]), float(desc["y1"])
        width, height = float(desc["width"]), float(desc["height"])
        pad = float(desc["pad"])
        ns = "{http://www.w3.org/2000/svg}"
        lines = root.findall(f"{ns}polyline")
        curve = max(lines, key=lambda el: len(el.get("points")))
        for pair in curve.get("points").split():
            px, py = map(float, pair.split(","))
            x = x0 + (px - pad) / (width - 2 * pad) * (x1 - x0)
            y = y0 + (height - pad - py) / (height - 2 * pad) * (y1 - y0)
            assert math.hypot(x, y) == pytest.approx(0.5, abs=2e-3)

    def test_unwritable_path(self, capsys):
        code, _, _ = run(
            capsys, "plot", "psi-curve", "--n", "2", "--out", "/nonexistent/x.svg"
        )
        assert code == 3

    def test_bad_radius(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "plot", "boundary-image", "--r", "1.5",
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 2


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one `main` call, usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse reports a usage error this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GENERAL_TWO = ("--class", "general", "--n", "2", "--m", "2")


class TestParserReuse:
    @pytest.mark.parametrize(
        "sequence,codes",
        [
            ([("scan", *GENERAL_TWO, "--identity", "--format", "json"), ("scan", *GENERAL_TWO)],
             [0, 0]),
            ([("radius", *GENERAL_TWO, "--format", "json"), ("radius", *GENERAL_TWO)], [0, 0]),
            ([("radius", "--class", "general", "--n", "two", "--m", "2"), ("radius", *GENERAL_TWO)],
             [2, 0]),
        ],
        ids=["scan-identity-then-extremal", "radius-json-then-text", "usage-error-then-valid"],
    )
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch, sequence, codes):
        monkeypatch.delenv("HS_GRID_SCALE", raising=False)
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(outcome(capsys, argv))
        cli.build_parser.cache_clear()
        reused = [outcome(capsys, argv) for argv in sequence]
        assert cli.build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == codes
        assert len({out for _, out, _ in reused}) == len(sequence)


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("harmsect") is None,
        reason="harmsect console script not on PATH (package not installed)",
    )
    def test_console_script_installed(self):
        proc = subprocess.run(
            ["harmsect", "verify", "distortion-min-rule"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "Pass" in proc.stdout

    def test_console_script_entry_point(self):
        # the same contract without an install: the declared entry point,
        # called the way the generated wrapper calls it
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"harmsect": "harmsect.cli:main"}
        module, func = scripts["harmsect"].split(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'harmsect'; sys.exit({func}())"
        )
        package_root = str(Path(harmsect.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "verify", "distortion-min-rule"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Pass" in proc.stdout
