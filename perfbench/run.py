"""harmsect benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's request list is built from
the seed and sent in order, one request at a time, repeatedly, until the
passes add up to --seconds of real time and the workload's MIN_PASSES
passes were made.  Every answer of the first pass is checked against
pinned values and cross-checks; every later pass must repeat those
answers exactly.  A wrong answer makes the run fail: it prints
`"correct": false`, no metrics, and exits with code 1.

Times are scaled to a fixed machine speed (see speed.py); the raw times
are printed and recorded next to them.  --trace 0 reports the end-to-end
metrics; --trace 1 alternates untraced and traced passes (at least
MIN_TRACE_PASSES of each) and reports the per-layer metrics of the traced
ones (see README.md for both lists).  The last line of standard output is
one JSON object; the lines before it, and `.bench_out/result-*.json`,
record the environment and how each figure was taken.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("certify", "claims", "scan", "pointwise")
SETUP_PROBES = 21
# Passes every untraced run makes, however long they take.  req_tail_ms is
# the highest TAIL_LADDER percentile that leaves TAIL_BEYOND samples above
# it in this many passes, so each workload always reports the same
# percentile, and more passes only add samples beyond it.
MIN_PASSES = {"certify": 3, "claims": 20, "scan": 4, "pointwise": 7}
# Traced runs make at least this many traced and untraced passes each.
MIN_TRACE_PASSES = 3
# Workloads whose times are scaled by speed.ARRAY, the others by speed.SCALAR.
ARRAY_WORKLOADS = ("scan",)
TAIL_BEYOND = 10
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
             "peak_rss_mb": "MB"}
# Traced layers and the fields each reports per pass.
LAYER_FIELDS = {
    "tails.tail_weighted": ("calls", "busy_s", "self_s", "points"),
    "radius.margin": ("calls", "busy_s", "self_s", "points"),
    "radius.solve_radius": ("calls", "busy_s", "self_s"),
    "radius.threshold_order": ("calls", "busy_s", "self_s"),
    "claims.verify_claim": ("calls", "busy_s", "self_s"),
    "polyroots.isolate_real_roots": ("calls", "busy_s", "self_s"),
    "harmonic.empirical_scan": ("calls", "busy_s", "self_s", "points"),
    "harmonic.kernel_min_modulus": ("calls", "busy_s", "points"),
    "harmonic.jacobian": ("calls", "busy_s", "self_s", "points"),
    "harmonic.kernel": ("calls", "busy_s", "self_s", "points"),
    "harmonic.divided_difference": ("calls", "busy_s", "self_s", "points"),
    "harmonic.evaluate": ("calls", "busy_s", "self_s", "points"),
    "svg.write": ("calls", "busy_s", "self_s", "points"),
    "cli.main": ("calls", "busy_s", "self_s"),
}
DERIVED_UNITS = {
    "radius.solve_radius.bisect_steps": "count",
    "radius.solve_radius.failed": "count",
    "radius.margin_evals_per_solve": "ratio",
    "radius.threshold_order.solves_per_call": "ratio",
    "harmonic.scan_steps": "count",
}


def load_program():
    """Put the checkout's `src` first on the path and import the workloads."""
    if not (SRC / "harmsect" / "__init__.py").is_file():
        raise FileNotFoundError(f"no harmsect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def measure_setup(workload: str, seed: int, plot_dir: Path) -> tuple[list[float], list[float]]:
    """Scaled and raw seconds from starting a cold interpreter to its first
    request being ready, one of each per probe.  The child imports harmsect
    and harmsect.cli (through `workloads`) and makes only the first request."""
    import speed

    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; import workloads; "
            f"workloads.build({workload!r}, {seed}, {str(plot_dir)!r})[0]; "
            f"print('ready', flush=True)")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r} {rest!r}")
        raw.append(elapsed)
        scaled.append(elapsed * speed.factor(before, speed.probe()))
    return scaled, raw


class Pass:
    """One sweep over the request list, each request timed on its own."""

    def __init__(self, requests, reference, tracer=None) -> None:
        import speed

        track = speed.SpeedTrack(reference)
        raw = array("d")
        segments = []
        self.answers: list[tuple[object, str | None]] | None = []
        for index, request in enumerate(requests):
            track.maybe_probe()
            if tracer is not None:
                tracer.request = index
            start = time.perf_counter()
            try:
                answer = (request.run(), None)
            except (Exception, SystemExit) as exc:  # a failed request, counted
                answer = (None, f"{type(exc).__name__}: {exc}")
            raw.append(time.perf_counter() - start)
            segments.append(track.segment)
            self.answers.append(answer)
        track.close()
        self.latencies = array("d", (x * track.scale(s) for x, s in zip(raw, segments)))
        self.raw_time = sum(raw)  # real seconds to answer the list
        self.time = sum(self.latencies)  # the same, scaled
        self.failed = sum(err is not None for _, err in self.answers)


def check_answers(requests, answers) -> list[str]:
    problems = []
    for request, (answer, err) in zip(requests, answers):
        if err is not None:
            if request.pinned:
                problems.append(f"{request.label}: failed: {err}")
            continue
        try:
            request.check(answer)
        except Exception as exc:  # any error in a check is a wrong answer
            problems.append(f"{request.label}: {type(exc).__name__}: {exc}")
    return problems


def repeat_problems(requests, first, answers) -> list[str]:
    return [f"{request.label}: answer changed between passes"
            for request, a, b in zip(requests, first, answers) if a != b]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that leaves TAIL_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")


def tail(samples, percentile: float) -> tuple[float, int]:
    """(nearest-rank value at `percentile`, samples above it)."""
    ordered = sorted(samples)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    if len(ordered) - rank < TAIL_BEYOND:
        raise ValueError(f"p{percentile:g} of {len(ordered)} samples has fewer than "
                         f"{TAIL_BEYOND} beyond it")
    return ordered[rank - 1], len(ordered) - rank


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    import harmsect

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    package = Path(harmsect.__file__).resolve().parent
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "harmsect": str(package.relative_to(ROOT)) if package.is_relative_to(ROOT) else str(package),
    }


def git_sha() -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads(np) -> str:
    """Thread count reported by the OpenBLAS numpy loaded, else the requested one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return str(getattr(lib, fn)())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def end_to_end(passes: list[Pass], percentile: float, setup: list[float], setup_raw: list[float],
               peak_rss_mb: float):
    samples = [lat for p in passes for lat in p.latencies]
    value, beyond = tail(samples, percentile)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.time for p in passes),
        "req_p50_ms": statistics.median(samples) * 1e3,
        "req_tail_ms": value * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_s": f"median of {len(setup)} cold starts; raw {statistics.median(setup_raw):.6g} s",
        "wall_s": f"median of {len(passes)} passes, {len(passes[0].latencies)} requests each; "
                  f"raw {statistics.median(p.raw_time for p in passes):.6g} s",
        "req_p50_ms": f"median of {len(samples)} samples",
        "req_tail_ms": f"p{percentile:g} of {len(samples)} samples, {beyond} beyond it",
        "peak_rss_mb": "peak resident set of the measuring process after its first pass",
    }
    tail_record = {"percentile": percentile, "samples": len(samples), "beyond": beyond}
    return metrics, details, tail_record


def layer_metrics(spans, scale: float) -> dict:
    """Per-layer figures of one traced pass; times multiplied by `scale`."""
    import spans as span_mod
    import workloads

    out: dict = defaultdict(float)
    for span, self_s in zip(spans, span_mod.self_times(spans)):
        name = span.name
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += (span.end - span.start) * scale
        out[f"{name}.self_s"] += self_s * scale
        out[f"{name}.points"] += span.points
        parent = spans[span.parent].name if span.parent >= 0 else None
        if name == "radius.solve_radius":
            out["radius.solve_radius.bisect_steps"] += span.iterations
            out["radius.solve_radius.failed"] += span.failed
            out["threshold_solves"] += parent == "radius.threshold_order"
        elif name == "radius.margin":
            out["solve_margins"] += parent == "radius.solve_radius"
        elif name == "harmonic.kernel_min_modulus":
            out["scan_kernel_calls"] += parent == "harmonic.empirical_scan"
    solves = out["radius.solve_radius.calls"]
    thresholds = out["radius.threshold_order.calls"]
    metrics = {f"{layer}.{field}": out[f"{layer}.{field}"]
               for layer, fields in LAYER_FIELDS.items() for field in fields}
    metrics["radius.solve_radius.bisect_steps"] = out["radius.solve_radius.bisect_steps"]
    metrics["radius.solve_radius.failed"] = out["radius.solve_radius.failed"]
    metrics["radius.margin_evals_per_solve"] = out["solve_margins"] / solves if solves else 0.0
    metrics["radius.threshold_order.solves_per_call"] = (
        out["threshold_solves"] / thresholds if thresholds else 0.0)
    # bisection probes of the empirical scans: kernel passes minus the final witness pass
    metrics["harmonic.scan_steps"] = out["scan_kernel_calls"] - out["harmonic.empirical_scan.calls"]
    for claim_id in workloads.CLAIM_IDS:
        metrics[f"claims.{claim_id}.busy_s"] = out[f"claims.{claim_id}.busy_s"]
    return metrics


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit."""
    import workloads

    units = {f"{layer}.{field}": "s" if field.endswith("_s") else "count"
             for layer, fields in LAYER_FIELDS.items() for field in fields}
    units.update(DERIVED_UNITS)
    units.update({f"claims.{claim_id}.busy_s": "s" for claim_id in workloads.CLAIM_IDS})
    units["trace.overhead_s"] = "s"
    return units


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, span in enumerate(spans):
            fh.write(json.dumps({"id": sid, "parent": span.parent, "request": span.request,
                                 "name": span.name, "start_s": span.start, "end_s": span.end,
                                 "points": span.points, "failed": span.failed}) + "\n")


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    workloads = load_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # plots go to a directory of this run's own, removed when it ends
    with tempfile.TemporaryDirectory(prefix="plots-", dir=OUT_DIR) as plot_dir:
        return measure(workloads, workload, seed, seconds, trace, Path(plot_dir))


def measure(workloads, workload: str, seed: int, seconds: int, trace: bool, plot_dir: Path) -> int:
    import spans as span_mod
    import speed

    reference = speed.ARRAY if workload in ARRAY_WORKLOADS else speed.SCALAR
    # first calls of the references, untimed; set-up is scaled by SCALAR
    speed.probe(reference)
    speed.probe()
    setup, setup_raw = measure_setup(workload, seed, plot_dir)
    requests = workloads.build(workload, seed, plot_dir)
    env = environment(workload, seed, seconds, int(trace))
    print(f"harmsect benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print("env: " + json.dumps(env))

    # warm-up: one request of each kind, untimed
    seen = set()
    for request in requests:
        if request.kind not in seen:
            seen.add(request.kind)
            Pass([request], reference)

    tracer = span_mod.Tracer() if trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    layer_passes: list[dict] = []
    first_spans = None
    first = None
    problems: list[str] = []
    measured = 0.0
    min_passes = (MIN_TRACE_PASSES, MIN_TRACE_PASSES) if trace else (MIN_PASSES[workload], 0)
    while measured < seconds or len(untraced) < min_passes[0] or len(traced) < min_passes[1]:
        if trace and len(traced) < len(untraced):
            tracer.install()
            try:
                current = Pass(requests, reference, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layer_passes.append(layer_metrics(spans, current.time / current.raw_time))
            first_spans = first_spans or spans
            traced.append(current)
        else:
            current = Pass(requests, reference)
            untraced.append(current)
        measured += current.raw_time
        if first is None:
            # every request has run once; later passes grow only the sample arrays
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems = check_answers(requests, current.answers)
            first = current.answers
        else:
            problems = repeat_problems(requests, first, current.answers)
        current.answers = None  # only the first pass's answers are kept
        if problems:
            break

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    record = {"env": env, "setup_scaled_s": setup, "setup_raw_s": setup_raw,
              "pass_scaled_s": [p.time for p in passes], "pass_raw_s": [p.raw_time for p in passes]}
    result_path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    if problems:
        for problem in problems[:20]:
            print(f"WRONG: {problem}")
        result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        result_path.write_text(json.dumps({**record, "problems": problems, **result}, indent=1))
        print(json.dumps(result))
        return 1

    if trace:
        values = {name: statistics.median(lp[name] for lp in layer_passes)
                  for name in layer_passes[0]}
        values["trace.overhead_s"] = (statistics.median(p.time for p in traced)
                                      - statistics.median(p.time for p in untraced))
        units = per_layer_units()
        details = {"trace.overhead_s": f"median traced pass ({len(traced)}) minus median "
                                       f"untraced pass ({len(untraced)})"}
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        write_spans(spans_path, first_spans)
        print(f"per-layer figures are per pass, median of {len(traced)} traced passes; "
              f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        percentile = tail_percentile(MIN_PASSES[workload] * len(requests))
        values, details, record["req_tail"] = end_to_end(untraced, percentile, setup, setup_raw,
                                                         peak_rss_mb)
        units = E2E_UNITS
    raw_total = sum(p.raw_time for p in passes)
    print(f"speed: times scaled by {sum(p.time for p in passes) / raw_total:.4g} to the "
          f"{reference.name} reference speed, over {raw_total:.4g} s of passes")
    for name, value in values.items():
        note = f"  ({details[name]})" if name in details else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} requests failed)")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    result_path.write_text(json.dumps({**record, "details": details, **result}, indent=1))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A single client: one BLAS thread, set before numpy is first imported
    # here and inherited by the set-up probes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
