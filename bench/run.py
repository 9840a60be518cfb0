"""Benchmark of restriction-lab: one workload, one seed, one run.

    python3 bench/run.py --workload exact-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, and the run exits 1 without a result when there is none.  The
run repeats passes of the workload until ``--seconds`` have elapsed (at
least one pass), checks every output, prints each metric by name with its
unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, taken with tracing off.  The
time metrics are normalized: each pass is divided by the time of the
workload's reference kernel (``calibrate.py``) sampled around and, for
long passes, within it, which cancels the drift of the host's speed; the
seconds as measured are printed beside them and kept in the full result.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics derived from the spans of the traced ones.  The full
result, with the machine description, is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, and the spans of the
last traced pass beside it.  Workloads and metrics: ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One caller and no extra threads: BLAS must be single-threaded before
# numpy loads, here and in the set-up interpreters, which inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 8  # fresh interpreters timed per run
LAYER_MODULES = ("analysis", "cli", "experiments", "exponents", "feasibility", "norms",
                 "operator")

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "query_p50_ref": "ref",
    "query_p99_ref": "ref",
    "peak_rss_mb": "MB",
}
# the same figures in seconds as measured: printed and kept, not gated
RAW = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "query_us_p50": "us",
    "query_us_p99": "us",
    "ref_s": "s",
}


def import_package() -> dict:
    """Import restriction_lab from this checkout's src/, or exit 1."""
    init = SRC / "restriction_lab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a restriction-lab checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"restriction_lab.{name}") for name in LAYER_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != init.parent:
        sys.exit(f"error: restriction_lab was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def setup_seconds(warmup: str) -> float:
    """Seconds for a fresh interpreter to import the package and warm up."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport restriction_lab\n{warmup}"
    start = perf_counter()
    subprocess.run([sys.executable, "-E", "-c", code], cwd=ROOT, check=True)
    return perf_counter() - start


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Pass:
    traced: bool
    wall: float
    ref: float  # reference kernel seconds over the pass
    latencies: list[float]  # seconds per public call
    check: object  # workloads.Check
    spans: list | None


def run_passes(workload, mods, inputs, seconds: float, trace: bool, before_pass=None):
    """Timed passes while one more is expected to end within ``seconds``
    (always at least one; with ``trace``, alternately untraced and traced,
    at least one of each).  The workload's reference kernel is sampled
    before each pass, after the last, and in untraced passes after each
    call the workload names in ``sample_after``; a pass's ``ref`` is the
    mean over its duration of the samples from the one before it to the
    one after it, and its wall time leaves out the time spent sampling.
    Each pass is checked as soon as it ends, so memory does not grow with
    the number of passes."""
    import calibrate
    import spans

    sampler = calibrate.Sampler(workload.reference)
    passes, firsts = [], []
    start = perf_counter()
    while True:
        if before_pass is not None:
            before_pass(len(passes))
        firsts.append(len(sampler.points))
        sampler.sample()
        traced = trace and len(passes) % 2 == 1
        recorder = spans.Recorder()
        with spans.instrument(mods, recorder, spans.TARGETS if traced else []), \
                spans.instrument(mods, sampler, [] if traced else workload.sample_after):
            t0, sampling = perf_counter(), calibrate.sampling_seconds()
            results = workload.run_pass(mods, inputs)
            wall = perf_counter() - t0 - (calibrate.sampling_seconds() - sampling)
        passes.append(Pass(traced, wall, 0.0, [seconds for seconds, _ in results],
                           workload.check(inputs, results), recorder.spans if traced else None))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds and (not trace or len(passes) >= 2):
            break
    firsts.append(len(sampler.points))
    sampler.sample()
    for p, first, last in zip(passes, firsts, firsts[1:]):
        p.ref = sampler.mean_ref(first, last)
    return passes


def end_to_end(workload, inputs, passes, setup_times) -> tuple[dict, dict]:
    """(gated metrics, the same times in seconds as measured)."""
    median = statistics.median
    wall_s = median(p.wall for p in passes)
    gated = {
        "setup_s": median(setup_times),
        "wall_ref": median(p.wall / p.ref for p in passes),
        # percentiles of each pass's calls, median over passes like wall_ref
        "query_p50_ref": median(percentile(p.latencies, 50) / p.ref for p in passes),
        "query_p99_ref": median(percentile(p.latencies, 99) / p.ref for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "wall_s": wall_s,
        "ops_per_s": workload.ops_per_pass(inputs) / wall_s,
        "query_us_p50": median(percentile(p.latencies, 50) for p in passes) * 1e6,
        "query_us_p99": median(percentile(p.latencies, 99) for p in passes) * 1e6,
        "ref_s": median(p.ref for p in passes),
    }
    return gated, raw


def print_report(result: dict, metrics: dict, units: dict, failed: int, attempted: int) -> None:
    """Human-readable lines: the run, the machine, every metric with its unit."""
    m = result["machine"]
    print(f"# {result['workload']} seed={m['seed']} trace={result['trace']}"
          f" passes={result['passes']} ops/pass={result['ops_per_pass']}"
          f" calls timed={result['calls_timed']}")
    print(f"# machine: {m['cpu_model']}, nproc {m['nproc']}, caches {m['caches']},"
          f" python {m['python']}, numpy {m['numpy']}, blas threads {m['blas_threads']}")
    print(f"# reference kernel: {result['reference']} (1 ref = its time, ref_s)")
    for g in result.get("knapp_grids", []):
        print(f"# knapp delta=2^-{g['delta_exp']}: {g['cells']} cells,"
              f" {g['field_bytes']} field bytes (computed)")
    for name in units:
        print(f"{name:48s} {metrics[name]:.6g} {units[name]}")
    for name, value in result.get("raw", {}).items():
        print(f"{name:48s} {value:.6g} {RAW[name]} (as measured)")
    accuracy = result["accuracy"]
    print(f"{'error_rate':48s} {accuracy['error_rate']:.6g} 1 ({failed} of {attempted})")
    print(f"{'slope_dev':48s} {accuracy['slope_dev']:.6g} 1")
    print(f"{'max_rel_dev':48s} {accuracy['max_rel_dev']:.6g} 1")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = import_package()
    import layers
    import machine
    from workloads import WORKLOADS, knapp_grid_sizes

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    exec(workload.warmup, {})  # fill lazy tables before timing, as set-up does

    # set-up is sampled between passes, so its median spans the whole run
    setup_times = []

    def sample_setup(done: int) -> None:
        if not args.trace and done < SETUP_SAMPLES:
            setup_times.append(setup_seconds(workload.warmup))

    passes = run_passes(workload, mods, inputs, args.seconds, bool(args.trace), sample_setup)
    while not args.trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_seconds(workload.warmup))

    checks = [p.check for p in passes]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    accuracy = {
        "error_rate": failed / attempted,
        "slope_dev": max(c.slope_dev for c in checks),
        "max_rel_dev": max(c.max_rel_dev for c in checks),
    }
    raw = {}
    if args.trace:
        metrics = layers.per_layer(passes, accuracy)
        units = layers.UNITS
    else:
        metrics, raw = end_to_end(workload, inputs, passes, setup_times)
        units = END_TO_END

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine.describe(args.seed),
        "passes": len(passes),
        "reference": workload.reference,
        "pass_walls_s": [p.wall for p in passes],
        "pass_refs_s": [p.ref for p in passes],
        "ops_per_pass": workload.ops_per_pass(inputs),
        "calls_timed": sum(len(p.latencies) for p in passes),
        "setup_times_s": setup_times,
        "accuracy": accuracy,
        "failures": [f for c in checks for f in c.failures][:20],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "raw": raw,
    }
    if args.workload == "knapp-grid":
        caches = result["machine"]["caches"]
        result["knapp_grids"] = [
            {**g, **{f"field_over_{k}": g["field_bytes"] / v for k, v in caches.items()}}
            for g in knapp_grid_sizes(mods)
        ]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    traced = [p.spans for p in passes if p.traced]
    if traced:
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "size"],
                        "spans": traced[-1]}) + "\n"
        )

    print_report(result, metrics, units, failed, attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
