"""CLI contract: subcommands, formats, exit codes, SVG emission."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import harmsect
from harmsect import cli, radius
from harmsect.radius import FamilyClass, solve_radius


def read_desc(path: str) -> dict:
    """Parse the <desc> metadata back out of a plot written by `harmsect.svg`."""
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    desc = root.find(f"{ns}desc")
    if desc is None or not desc.text:
        return {}
    out = {}
    for item in desc.text.split(";"):
        key, _, value = item.partition("=")
        out[key] = value
    return out


HUGE = "1" + "0" * 400  # 10**400, past the largest double


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

    @pytest.mark.parametrize("family", ["general", "convex"])
    def test_order_past_the_earlier_scan_solves(self, capsys, family):
        # the earlier 999-point scan ended at r = 0.999, below the n = 1e5
        # root, and the CLI reported a missing bracket with exit 2
        code, out, err = run(
            capsys, "radius", "--class", family, "--n", "100000", "--m", "100000",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        margin = radius.margin_fn(FamilyClass(family))
        assert margin(100_000, 100_000, payload["bracket_lo"]) > 0.0
        assert margin(100_000, 100_000, payload["bracket_hi"]) <= 0.0
        assert payload["radius"] > payload["lower_bound"]

    def test_root_within_one_double_of_one_is_a_domain_error(self, capsys):
        # at n = 1e19 the margin is still positive at r = 1 - 2**-53
        code, out, err = run(
            capsys, "radius", "--class", "general", "--n", str(10**19), "--m", str(10**19)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: the general margin") and err.count("\n") == 1
        assert "within one double of 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["radius", "--class", "general", "--n", HUGE, "--m", HUGE],
            ["radius", "--class", "general", "--n", str(10**200), "--m", "2"],
            ["radius", "--class", "convex", "--n", HUGE, "--m", "5"],
            ["table", "--class", "general", "--n", f"2,{HUGE}"],
            ["scan", "--class", "convex", "--n", "5", "--m", HUGE],
            ["plot", "psi-curve", "--n", HUGE, "--out", "{out}"],
        ],
        ids=["radius-general", "radius-general-1e200", "radius-convex", "table",
             "scan", "plot-psi-curve"],
    )
    def test_order_beyond_the_double_range_is_a_domain_error(self, capsys, tmp_path, argv):
        # these orders once ended in "OverflowError: int too large to convert
        # to float" from the tails, a traceback with exit 1
        svg = tmp_path / "curve.svg"
        code, out, err = run(capsys, *(a.format(out=svg) for a in argv))
        assert not svg.exists()
        assert code == 2
        assert out == ""
        assert err == "error: orders must be below 2**341, where n**3 leaves the double range\n"

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

    def test_unreached_target_at_the_real_cap(self, capsys):
        # one margin sign test per order, so all 9 999 orders take well under 1 s
        start = time.perf_counter()
        code, out, err = run(capsys, "thresholds", "--class", "general", "--targets", "0.9995")
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        assert err == "error: no equal-order radius reached 0.9995 for general up to n=10000\n"
        assert elapsed < 1.0

    def test_unreached_target_is_a_domain_error(self, capsys, monkeypatch):
        # 0.9995 is out of reach below the cap of 10 000; the message names the
        # cap in force, here 30
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

    def test_all_json_is_frozen(self, capsys):
        # every report, bit for bit, as the per-order loops printed it:
        # FROZEN_REPORTS in test_claims pins margins only to rel 1e-6, this
        # pins each float's repr and every witness
        code, out, _ = run(capsys, "verify", "all", "--format", "json")
        assert code == 1
        assert out == (
            '[{"claim_id": "t-decreasing", "parameter_range": "n in {15..500} u {1e3,1e4,1e6}; '
            '257-point x grid on [offset_n, n]; adjacent strict decrease of the log ratio", '
            '"verdict": "Pass", "worst_margin": 0.00020960330249053527, "witness": {"n": 15, '
            '"x": 14.97143583590989, "check": "log-ratio decrease"}}, {"claim_id": '
            '"t-at-n-positive", "parameter_range": "n in {1..500}; ratio at x = n positive and '
            'equal to e^-n (2n^3+6n^2+7n+3)/3 within 1e-12 relative", "verdict": "Pass", '
            '"worst_margin": 5.9728530789552874e-210, "witness": {"n": 500, "check": '
            '"positivity"}}, {"claim_id": "t-gamma-lt-1", "parameter_range": "n in {15..500} u '
            '{1e3,1e4,1e6}; 0 < ratio(offset_n, n) < 1", "verdict": "Pass", "worst_margin": '
            '0.000883102744833063, "witness": {"n": 15, "check": "ratio > 0"}}, {"claim_id": '
            '"q2-positive", "parameter_range": "n in {15..500} u {1e3,1e4,1e6}; 1000-point x '
            'grid on (0, n]; bracket normalized by its constant term", "verdict": "Pass", '
            '"worst_margin": 1.0120772799591793, "witness": {"n": 15, "x": 0.015, "check": '
            '"bracket / 2688 n^7 > 0"}}, {"claim_id": "q1-negative", "parameter_range": "n in '
            '{15..100}; 512-point x grid on (0, n]", "verdict": "Pass", "worst_margin": '
            '4.1334177511342626e-61, "witness": {"n": 100, "x": 100.0, "check": "prefactor < '
            '0"}}, {"claim_id": "Q-roots", "parameter_range": "each scaled-bracket part: real '
            'roots on [-10, 10] vs catalogued values (tol 1e-5; exact-root residual 1e-12); sign '
            'constant and positive on [1, 3]", "verdict": "Pass", "worst_margin": 1e-12, '
            '"witness": {"part": 5, "residual": 0.0, "check": "residual, tol 1e-12"}}, '
            '{"claim_id": "Q-identity", "parameter_range": "n in {15..60}; 201-point k grid on '
            '[1, 3]; |assembled - direct| / |direct| < 1e-10", "verdict": "Pass", '
            '"worst_margin": 9.99907411353884e-11, "witness": {"n": 36, "x": 1.01, "check": '
            '"assembled vs direct, tol 1e-10"}}, {"claim_id": "T-decreasing", "parameter_range": '
            '"n in {7..500} u {1e3,1e4,1e6}; 257-point x grid on [offset_n, n]; log decrease and '
            'derivative-bracket positivity", "verdict": "Pass", "worst_margin": '
            '0.0037466255136182625, "witness": {"n": 7, "x": 6.711111061069276, "check": '
            '"log-ratio decrease"}}, {"claim_id": "T-beta-lt-1", "parameter_range": "direct 0 < '
            'ratio(offset_n, n) < 1 for n in {7..500} u {1e3,1e4,1e6}; summand bound route '
            '(1/32, 1/6, 19/24) for n in {16..500}", "verdict": "Pass", "worst_margin": '
            '0.024483046756828934, "witness": {"n": 17, "check": "part 1 < 1/32"}}, {"claim_id": '
            '"T-limit-half", "parameter_range": "single spot check at n = 1000000; '
            '|ratio(offset_n, n) - 1/2| < 1e-2", "verdict": "Fail", "worst_margin": '
            '-0.12537959025392442, "witness": {"n": 1000000, "value": 0.6353795902539244, '
            '"check": "|ratio - 1/2| < 1e-2"}}, {"claim_id": "t-limit-64-2401", '
            '"parameter_range": "single spot check at n = 1000000; |ratio(offset_n, n) - '
            '64/2401| < 1e-3", "verdict": "Fail", "worst_margin": -0.016057924155037078, '
            '"witness": {"n": 1000000, "value": 0.043713484338294056, "check": "|ratio - '
            '64/2401| < 1e-3"}}, {"claim_id": "abc-bounds", "parameter_range": "helper values at '
            '9/16 with stated tolerances; helpers increasing on {7..500} (a, b) and {16..500} '
            '(c); summand bounds on {16..500}; summand decomposition identity on {7..500}", '
            '"verdict": "Pass", "worst_margin": 9.967003778792083e-13, "witness": {"n": 439, '
            '"check": "summand decomposition, tol 1e-12"}}, {"claim_id": "distortion-min-rule", '
            '"parameter_range": "r in {0.01..0.99} step 0.01; general two-point floor below the '
            'local-univalence floor (1-r)^2/(1+r)^4", "verdict": "Pass", "worst_margin": '
            '6.3658969574815376e-06, "witness": {"n": 0, "x": 0.99, "check": "local floor - '
            'two-point floor >= 0"}}]\n'
        )

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
            '"certified_radius": 0.10819284383042538, "empirical_radius": 0.166015625, '
            '"binding": "jacobian", "min_kernel_modulus": 0.0557708740234375, '
            '"witness_z_re": -0.166015625, "witness_z_im": 2.033105037646973e-17, '
            '"witness_t": 0.0, "min_jacobian": 0.001312255859375}\n'
        )

    @pytest.mark.parametrize("scale,circle", [("1", "1024x128"), ("2", "2048x256")])
    def test_text_names_the_circle_sampled(self, capsys, monkeypatch, scale, circle):
        # both passes run on the circle: 4 x angular angles for each of the t values
        monkeypatch.setenv("HS_GRID_SCALE", scale)
        code, out, _ = run(capsys, "scan", "--class", "general", "--n", "2", "--m", "2")
        assert code == 0
        assert out.splitlines()[2] == f"empirical radius = 0.1660 (circle {circle}, one-sided)"

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

    def test_order_above_the_section_bound_is_a_domain_error(self, capsys):
        # n = 1e5 now solves, and the section would have needed a
        # 1e5 x 1024 complex table, about 1.6 GB
        code, out, err = run(capsys, "scan", "--class", "general", "--n", "100000", "--m", "100000")
        assert code == 2
        assert out == ""
        assert err == "error: section orders must lie in 1..1000, got (100000, 100000)\n"

    def test_grid_scale_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HS_GRID_SCALE", "0")
        code, _, err = run(capsys, "scan", "--class", "general", "--n", "2", "--m", "2")
        assert code == 2
        assert "HS_GRID_SCALE" in err

    @pytest.mark.parametrize("scale", [9, 10**6])
    def test_grid_scale_above_the_cap_is_a_usage_error(self, capsys, monkeypatch, scale):
        # the circle passes grow with the scale: at 10**6 the Jacobian pass
        # alone would have asked for 1.0e9 complex values before failing
        monkeypatch.setenv("HS_GRID_SCALE", str(scale))
        code, out, err = run(capsys, "scan", "--class", "general", "--n", "2", "--m", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: HS_GRID_SCALE must lie in 1..8, got {scale}\n"


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

    def test_order_above_the_section_bound_is_a_domain_error(self, capsys, tmp_path):
        # the boundary image never solves, so only the section bounds its order
        svg = tmp_path / "x.svg"
        code, out, err = run(
            capsys, "plot", "boundary-image", "--n", "10000000000", "--out", str(svg)
        )
        assert not svg.exists()
        assert code == 2
        assert out == ""
        assert err == "error: section orders must lie in 1..1000, got (10000000000, 2)\n"

    @pytest.mark.parametrize("kind", ["psi-curve", "mu-curve"])
    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_is_a_usage_error(self, capsys, tmp_path, kind, target):
        # a non-finite target once wrote x1="nan" and vline=nan into the plot
        svg = tmp_path / "x.svg"
        code, out, err = run(capsys, "plot", kind, "--n", "7", f"--target={target}",
                             "--out", str(svg))
        assert not svg.exists()
        assert code == 2
        assert out == ""
        assert err == f"error: --target must be finite, got {float(target)}\n"

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
