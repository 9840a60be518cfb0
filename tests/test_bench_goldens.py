"""The benchmark's goldens as tests, so a change that would fail the
benchmark's output check fails here first: each of ``bench/workloads.py``
CLI_COMMANDS must reproduce ``bench/reference.json``, byte for byte where the
command is marked exact and within the benchmark's own numeric tolerance
otherwise; the ``exact-mix`` queries must pass the benchmark's oracle
check and reproduce a committed digest of their outcomes; and every
workload's warm-up must run."""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab import experiments, exponents, feasibility
from restriction_lab.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    # workloads.py imports its siblings calibrate and oracle (numpy and the
    # standard library only) as top-level modules; its dataclasses need the
    # module registered while it executes
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


WORKLOADS = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())["cli-suite"]


@pytest.mark.parametrize("label, argv, exact", WORKLOADS.CLI_COMMANDS,
                         ids=[label for label, _, _ in WORKLOADS.CLI_COMMANDS])
def test_cli_command_matches_reference(capsys, label, argv, exact):
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    if exact:
        assert out == REFERENCE[label]
    else:
        ok, dev = WORKLOADS._compare_numeric(out, REFERENCE[label])
        assert ok, f"{label}: largest relative deviation {dev}"


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_every_warmup_runs(name):
    # bench/run.py execs a workload's warm-up before its first pass and in every set-up
    # sample, so a package name it calls and the package drops fails every run of that
    # workload: cli-suite's calls the scalar hankel_decay_transform, which no other
    # benchmark code reaches
    exec(WORKLOADS.WORKLOADS[name].warmup, {})


def _snapped_predictions() -> list[tuple[str, dict]]:
    """predicted_exponent inputs with the weights on the slope's kinks 1/q and 2/q,
    beside them and at 0, for both families, over a grid of q and r (r = inf too)."""
    calls = []
    for q in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(12, 5),
              Fraction(3), Fraction(4), Fraction(6)):
        weights = sorted({Fraction(0), 1 / (2 * q), 1 / q, 3 / (2 * q), 2 / q, Fraction(1)})
        for r in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4), "inf"):
            calls += [("separable", {"alpha": a, "beta": b, "r": r, "q": q})
                      for a in weights for b in weights]
            calls += [("radial", {"gamma": g, "r": r, "q": q}) for g in weights]
    return calls


def _outcome(kind: str, out) -> str:
    """One canonical line: verdict and tag, certificate record or Infeasible,
    slope and log flag, or the error's type and text."""
    if isinstance(out, Exception):
        return f"error {type(out).__name__}: {out}"
    if kind in ("sep", "rad"):
        return str(out)
    if kind == "pred":
        return f"{out.slope} {out.log_flag}"
    cert, verified = out
    return "Infeasible" if verified is None else f"{cert.record()} ok={verified.ok}"


# sha256 of the canonical outcome lines of the exact layers on the exact-mix
# queries (seed 41) and the snapped predictions; a deliberate change to a
# verdict, certificate or prediction updates it and says so
EXACT_DIGEST = "b374a2923e50d845a00949b39fc3df322e460b0fbb0f90f5748cfa8d4f3a8381"


def test_exact_layers_reproduce_their_digest():
    """The exact-mix queries pass the benchmark's independent oracle check, and
    every outcome, with the snapped predictions, hashes to EXACT_DIGEST."""
    mods = {"exponents": exponents, "feasibility": feasibility, "experiments": experiments}
    mix = WORKLOADS.ExactMix()
    inputs = mix.prepare(41)
    results = mix.run_pass(mods, inputs)
    check = mix.check(inputs, results)
    assert check.failed == 0, check.failures
    lines = [f"{q.kind} {q.exact} -> {_outcome(q.kind, out)}"
             for (q, _, _), (_, out) in zip(inputs, results)]
    for kind, kw in _snapped_predictions():
        try:
            out = experiments.predicted_exponent(kind, **kw)
        except Exception as exc:
            out = exc
        lines.append(f"pred {kind} {kw} -> {_outcome('pred', out)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXACT_DIGEST


ORACLE = WORKLOADS.oracle


@st.composite
def _snapped_two(draw):
    """(gamma, r, q) with gamma on a threshold kink, max(3/(2q) - 1/(2r'), 2/q - 1/r')
    or 2/q - 1/2, over wider ranges and denominators than the exact-mix queries;
    r is None for infinity."""
    q_den, r_den = draw(st.integers(1, 400)), draw(st.integers(1, 400))
    q = Fraction(draw(st.integers(max(1, q_den // 8), 10 * q_den)), q_den)  # q in [1/8, 10]
    r = draw(st.one_of(st.none(), st.integers(r_den, 12 * r_den)))  # r in [1, 12]
    r = None if r is None else Fraction(r, r_den)
    iq, irc = 1 / q, ORACLE.inv_conj(r)
    kinks = (max(Fraction(3, 2) * iq - irc / 2, 2 * iq - irc), 2 * iq - ORACLE.HALF)
    return draw(st.sampled_from(kinks)), r, q


@settings(max_examples=300, deadline=None)
@given(_snapped_two())
def test_solve_two_on_its_threshold_kinks(args):
    """solve_two at gamma on a kink of its iff: the outcome is the closed form's, and
    every certificate passes verify_two and the benchmark's oracle."""
    gamma, r, q = args
    if gamma <= 0:  # outside solve_two's domain
        return
    r_arg = "inf" if r is None else r
    iq, irc = 1 / q, ORACLE.inv_conj(r)
    feasible = (gamma >= max(Fraction(3, 2) * iq - irc / 2, 2 * iq - irc)
                and gamma > 2 * iq - Fraction(1, 2))
    assert ORACLE.two_feasible(gamma, r, q) == feasible
    cert = feasibility.solve_two(gamma, r_arg, q)
    assert isinstance(cert, feasibility.CertificateTwo) == feasible
    if feasible:
        assert feasibility.verify_two(cert, gamma, r_arg, q).ok
        assert ORACLE.verify_two(cert.record(), gamma, r, q) == []
