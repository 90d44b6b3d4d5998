"""Tests of the benchmark itself: output format, metric names and units,
the tail percentile statement, answer checking and self times.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

run.load_program()
import workloads  # noqa: E402  (needs the path set by load_program)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"git_sha", "python", "numpy", "blas", "blas_threads", "nproc", "seed"}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check_metrics(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        entry = metrics[m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", ["claims", "scan", "pointwise"])
def test_end_to_end_output(workload):
    proc = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(proc)
    assert result["correct"] is True
    per_pass = len(workloads.build(workload, 3, ROOT))
    assert result["attempted"] >= run.MIN_PASSES[workload] * per_pass and result["failed"] == 0
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    (tail_line,) = [line for line in proc.stdout.splitlines() if line.startswith("req_tail_ms = ")]
    match = re.search(r"\(p([\d.]+) of (\d+) samples, (\d+) beyond it\)", tail_line)
    assert match, tail_line
    percentile, samples, beyond = float(match[1]), int(match[2]), int(match[3])
    assert samples == result["attempted"]
    assert beyond >= 10 and percentile == run.tail_percentile(run.MIN_PASSES[workload] * per_pass)

    (env_line,) = [line for line in proc.stdout.splitlines() if line.startswith("env: ")]
    env = json.loads(env_line[len("env: "):])
    assert ENV_KEYS <= set(env) and env["seed"] == 3


def test_only_the_unbracketed_order_may_fail():
    requests = workloads.build("certify", 3, ROOT)
    unpinned = [request.label for request in requests if not request.pinned]
    assert sorted(unpinned) == [
        f"radius --class {family} --n 100000 --m 100000 --format json"
        for family in ("convex", "general")]

    def fails():
        raise AssertionError("not reached")

    pinned = workloads.Request("radius", "pinned", fails, fails)
    loose = workloads.Request("radius", "loose", fails, fails, pinned=False)
    failure = (None, "NoBracketError: no sign change")
    assert run.check_answers([pinned, loose], [failure, failure]) == [
        "pinned: failed: NoBracketError: no sign change"]


def test_certify_counts_the_unbracketed_order_as_failed():
    proc = bench("certify", trace=0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(proc)
    assert result["correct"] is True
    passes = result["attempted"] // 704
    # n = 1e5 raises NoBracketError for both families in every pass
    assert result["failed"] == 2 * passes
    assert f"failed_ratio = {result['failed'] / result['attempted']:.6g}" in proc.stdout


def test_traced_run_reports_every_layer():
    proc = bench("pointwise", trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(proc)
    check_metrics(result["metrics"], SPEC["per_layer"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["harmonic.kernel.calls"] == 5000
    assert metrics["svg.write.calls"] == 3
    assert 0 < metrics["cli.main.self_s"] <= metrics["cli.main.busy_s"]
    records = [json.loads(line) for line in
               (ROOT / ".bench_out" / "spans-pointwise-seed3.jsonl").read_text().splitlines()]
    assert all(-1 <= rec["parent"] < rec["id"] for rec in records)
    assert {rec["name"] for rec in records} >= {"harmonic.kernel", "svg.write", "cli.main"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("claims", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_answer_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    harmonic = tmp_path / "src" / "harmsect" / "harmonic.py"
    source = harmonic.read_text()
    assert "return z * h + np.conj(z * g)" in source
    harmonic.write_text(source.replace("return z * h + np.conj(z * g)",
                                       "return z * h - np.conj(z * g)"))
    proc = bench("pointwise", trace=0, cwd=tmp_path)
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False and result["metrics"] == {}
    assert "WRONG: " in proc.stdout


def test_tail_leaves_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(52) == 75.0
    assert run.tail_percentile(20) == 50.0
    with pytest.raises(ValueError):
        run.tail_percentile(19)
    samples = [float(i) for i in range(1, 1001)]
    assert run.tail(samples, 99.0) == (990.0, 10)
    assert run.tail(samples * 2, 99.0) == (990.0, 20)
    with pytest.raises(ValueError):
        run.tail(samples, 99.5)


def test_each_workload_reports_one_fixed_percentile():
    want = {"certify": 99.5, "claims": 98.0, "scan": 75.0, "pointwise": 99.99}
    for workload, percentile in want.items():
        per_pass = len(workloads.build(workload, 3, ROOT))
        assert run.tail_percentile(run.MIN_PASSES[workload] * per_pass) == percentile


def test_self_time_subtracts_direct_children():
    def span(parent, start, end):
        return spans.Span(parent, 0, "x", start, end, 0, False, 0)

    tree = [span(-1, 0.0, 10.0), span(0, 1.0, 4.0), span(1, 2.0, 3.0), span(0, 5.0, 6.0)]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
