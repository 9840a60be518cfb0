"""Self-tests of the benchmark: oracle, failure counting, span wrappers,
and agreement between the code and BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODS = run.import_package()


def test_oracle_reproduces_readme_examples():
    assert oracle.separable(F(1, 3), F(1, 3), F(2), F(2)) == (True, "iv")
    assert oracle.radial(F(1, 4), F(4, 3), F(4)) == (False, "q = r'")
    assert oracle.one_feasible(F(1, 5), F(0), F(2), F(2)) is False


def test_oracle_verifiers_reject_a_broken_certificate():
    assert oracle.verify_two("theta=1/2 q0=8 q1=8/7 r0=8/5 r1=8/3 gamma1=2", F(1), F(2), F(2)) == []
    assert "gamma-split" in oracle.verify_two(
        "theta=1/2 q0=8 q1=8/7 r0=8/5 r1=8/3 gamma1=3", F(1), F(2), F(2)
    )


def test_exact_queries_depend_only_on_the_seed():
    first = workloads.exact_queries(7)
    assert first == workloads.exact_queries(7)
    assert first != workloads.exact_queries(8)
    assert len(first) == sum(count for _, count in workloads.EXACT_QUOTAS)


def _exact_mix_check(n=400):
    mix = workloads.ExactMix()
    inputs = mix.prepare(3)[:n]
    return mix.check(inputs, mix.run_pass(MODS, inputs))


def test_seed_code_scores_zero_failures():
    check = _exact_mix_check()
    assert check.attempted == 400 and check.failed == 0, check.failures


def test_flipped_verdict_raises_the_error_rate(monkeypatch):
    exponents = MODS["exponents"]
    original = exponents.classify_separable

    def flipped(params):
        verdict = original(params)
        if verdict.bounded:
            return exponents.Verdict(False, violated="stub")
        return exponents.Verdict(True, case_tag="stub")

    monkeypatch.setattr(exponents, "classify_separable", flipped)
    check = _exact_mix_check()
    assert check.failed / check.attempted > 0  # the error rate


def test_span_wrappers_restore_the_originals():
    originals = {(m, a): getattr(MODS[m], a) for m, a, _, _ in spans.TARGETS}
    recorder = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.instrument(MODS, recorder):
            assert all(getattr(MODS[m], a) is not f for (m, a), f in originals.items())
            feasibility = MODS["feasibility"]
            cert = feasibility.solve_two(1, 2, 2)
            raise RuntimeError("leave the block early")
    assert all(getattr(MODS[m], a) is f for (m, a), f in originals.items())
    names = [s[0] for s in recorder.spans]
    assert names[0] == "feasibility.solve_two" and recorder.spans[0][4] == 1
    # the verifier call the solver makes itself is nested under it
    assert names[1] == "feasibility.verify_two" and recorder.spans[1][3] == 0
    assert spans.summarize(recorder.spans)["feasibility.solve_two"]["nested_verify"] == 1
    assert cert.record().startswith("theta=")


def test_each_workload_has_a_reference_kernel_outside_the_package():
    source = (BENCH / "calibrate.py").read_text()
    assert "import restriction_lab" not in source and "from restriction_lab" not in source
    for workload in workloads.WORKLOADS.values():
        assert calibrate.reference_seconds(workload.reference) > 0


def test_sampler_samples_after_calls_and_leaves_its_time_out():
    experiments = MODS["experiments"]
    original = experiments.fit_loglog_slope
    sampler = calibrate.Sampler("python")
    with spans.instrument(MODS, sampler, [("experiments", "fit_loglog_slope", None, None)]):
        seconds, fit = workloads._timed(
            experiments.fit_loglog_slope, [(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)]
        )
    assert experiments.fit_loglog_slope is original
    assert abs(fit.slope - 1) < 1e-12 and len(sampler.points) == 1
    start, end, _ = sampler.points[0]
    assert seconds < end - start
    # gaps of 1 s and 3 s between samples weigh the means of their ends
    sampler.points = [(0, 1, 1.0), (2, 3, 3.0), (6, 7, 5.0)]
    assert sampler.mean_ref(0, 2) == (1 * 2.0 + 3 * 4.0) / 4


def test_numeric_comparison_of_cli_output():
    ref = "#q=2\nparam,lhs\n0.25,3.2814287495603547\n"
    assert workloads._compare_numeric(ref, ref) == (True, 0.0)
    ok, dev = workloads._compare_numeric(ref.replace("3.2814287495603547", "3.2814287"), ref)
    assert ok is False and dev > workloads.REF_RTOL
    assert workloads._compare_numeric(ref.replace("lhs", "rhs"), ref)[0] is False


def test_code_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
