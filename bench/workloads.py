"""The benchmark's four workloads: inputs, warm-up, one timed pass, checks.

A pass is a closed loop: one caller, each call into the package starting
only after the previous one returned.  ``run_pass`` returns one latency per
public call and the call's output; ``check`` compares every output against
the independent oracle (``exact-mix``) or against reference outputs
recorded at the seed commit (``reference.json``, written by
``record_reference.py``), and counts failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import calibrate
import oracle

# Relative tolerance of scan samples and CLI numbers against the reference.
REF_RTOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Check:
    """Outcome of checking one pass: operations, failures and accuracy."""

    attempted: int = 0
    failed: int = 0
    slope_dev: float = 0.0  # max |fitted - predicted| over the pass's scans
    max_rel_dev: float = 0.0  # max deviation from the seed reference
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(what)


def _rel_dev(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value - ref)


def _timed(call, *args, **kwargs):
    """(seconds, output) of one call, without time spent taking reference
    samples inside it; an exception is returned as the output."""
    start, sampling = perf_counter(), calibrate.sampling_seconds()
    try:
        out = call(*args, **kwargs)
    except Exception as exc:  # a failed operation, counted by check()
        out = exc
    return perf_counter() - start - (calibrate.sampling_seconds() - sampling), out


# ---------------------------------------------------------------------------
# exact-mix: seeded classifier, solver and prediction queries
# ---------------------------------------------------------------------------

EXACT_QUOTAS = (("sep", 3000), ("rad", 2500), ("one", 1500), ("two", 1500), ("pred", 1500))
SMALL_DEN, LARGE_DEN = 24, 3600


def _frac(rng: random.Random, lo, hi, max_den: int) -> Fraction:
    """A rational in [lo, hi] with denominator at most max_den."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, max_den)
    lo_n, hi_n = math.ceil(lo * den), math.floor(hi * den)
    if hi_n < lo_n:
        return lo
    return Fraction(rng.randint(lo_n, hi_n), den)


def _positive(rng, hi, max_den) -> Fraction:
    while True:
        x = _frac(rng, 0, hi, max_den)
        if 0 < x < hi:
            return x


def _r(rng, max_den, allow_inf: bool):
    """r = 1 at a tenth of draws, else in [1, 12] (inf when allowed)."""
    if allow_inf:
        return None
    return Fraction(1) if rng.random() < 0.1 else _frac(rng, 1, 12, max_den)


def _gen_sep(rng, den, boundary, r_inf, q_inf):
    if not boundary:
        q = None if q_inf else _frac(rng, Fraction(1, 2), 12, den)
        return (_frac(rng, 0, Fraction(3, 2), den), _frac(rng, 0, Fraction(3, 2), den),
                _r(rng, den, r_inf), q)
    equation = rng.randrange(4)
    while True:
        q, r = _frac(rng, Fraction(1, 2), 8, den), _r(rng, den, False)
        iq, irc = 1 / q, oracle.inv_conj(r)
        if equation == 0:  # alpha + beta = 2/q - 1/2
            t = 2 * iq - oracle.HALF
            if t < 0:
                continue
            big = _frac(rng, t / 2, t, den)
            small = t - big
        elif equation == 1:  # max weight = 1/q
            big, small = iq, _frac(rng, 0, iq, den)
        elif equation == 2:  # 2 min = 2/q - 1/r'
            small = (2 * iq - irc) / 2
            if small < 0:
                continue
            big = small + _frac(rng, 0, 1, den)
        else:  # alpha + beta + min = 3/q - 1/r'
            t = 3 * iq - irc
            if t < 0:
                continue
            small = _frac(rng, 0, t / 3, den)
            big = t - 2 * small
        if small <= big:
            return (big, small, r, q) if rng.random() < 0.5 else (small, big, r, q)


def _gen_rad(rng, den, boundary, r_inf, q_inf):
    if not boundary:
        q = None if q_inf else _frac(rng, Fraction(1, 2), 12, den)
        return _frac(rng, 0, 2, den), _r(rng, den, r_inf), q
    equation = rng.randrange(3)
    while True:
        if equation == 2:  # q = r', gamma on the threshold half the time
            r = _frac(rng, Fraction(9, 8), 12, den)
            if r <= 1:
                continue
            q = r / (r - 1)
        else:
            q, r = _frac(rng, Fraction(1, 2), 8, den), _r(rng, den, False)
        iq, irc = 1 / q, oracle.inv_conj(r)
        threshold = max(Fraction(3, 2) * iq - irc / 2, 2 * iq - irc)
        if equation == 1:
            gamma = 2 * iq - oracle.HALF
        elif equation == 2 and rng.random() < 0.5:
            gamma = _frac(rng, 0, 2, den)
        else:
            gamma = threshold
        if gamma >= 0:
            return gamma, r, q


def _gen_one(rng, den, boundary, r_inf, q_inf):
    while True:
        q, r = _frac(rng, Fraction(1, 8), 10, den), _r(rng, den, False)
        iq, irc = 1 / q, oracle.inv_conj(r)
        alpha = _positive(rng, iq, den)
        if not boundary:
            beta = Fraction(0) if rng.random() < 0.2 else _frac(rng, 0, alpha, den)
        elif rng.random() < 0.5:  # alpha + 2 beta = 3/q - 1/r'
            beta = (3 * iq - irc - alpha) / 2
        else:  # alpha + beta = 2/q - 1/2
            beta = 2 * iq - oracle.HALF - alpha
        if 0 <= beta <= alpha:
            return alpha, beta, r, q


def _gen_two(rng, den, boundary, r_inf, q_inf):
    while True:
        q, r = _frac(rng, Fraction(1, 8), 10, den), _r(rng, den, r_inf)
        iq, irc = 1 / q, oracle.inv_conj(r)
        if not boundary:
            gamma = _frac(rng, 0, 3, den)
        elif rng.random() < 0.5:
            gamma = max(Fraction(3, 2) * iq - irc / 2, 2 * iq - irc)
        else:
            gamma = 2 * iq - oracle.HALF
        if gamma > 0:
            return gamma, r, q


def _gen_pred(rng, den, boundary, r_inf, q_inf):
    q, r = _frac(rng, Fraction(1, 2), 12, den), _r(rng, den, r_inf)
    iq = 1 / q
    if rng.random() < 0.5:
        alpha, beta = _frac(rng, 0, 2, den), _frac(rng, 0, 2, den)
        if boundary:  # one or both weights exactly at 1/q
            which = rng.randrange(3)
            alpha = iq if which != 1 else alpha
            beta = iq if which != 0 else beta
        return "separable", {"alpha": alpha, "beta": beta, "r": r, "q": q}
    gamma = rng.choice((iq, 2 * iq)) if boundary else _frac(rng, 0, 2, den)
    return "radial", {"gamma": gamma, "r": r, "q": q}


_GENERATORS = {"sep": _gen_sep, "rad": _gen_rad, "one": _gen_one, "two": _gen_two,
               "pred": _gen_pred}


def _call_form(x):
    """Exponent as a caller passes it: a Fraction, or the string 'inf'."""
    return "inf" if x is None else x


@dataclass(frozen=True)
class Query:
    kind: str
    exact: tuple  # exponents as Fraction / None (oracle side)
    expected: object  # oracle answer

    def call_args(self):
        if self.kind == "pred":
            kind, kw = self.exact
            return (kind,), {k: _call_form(v) for k, v in kw.items()}
        return tuple(_call_form(x) for x in self.exact), {}


def exact_queries(seed: int) -> list[Query]:
    """About 1e4 queries in fixed proportions: per kind, half small and half
    large denominators, a quarter exactly on a boundary equality, and r = inf
    (and for the classifiers q = inf) on a tenth of the off-boundary ones."""
    rng = random.Random(seed)
    queries = []
    for kind, count in EXACT_QUOTAS:
        for i in range(count):
            den = SMALL_DEN if i % 2 == 0 else LARGE_DEN
            boundary = i % 4 == 1
            r_inf = not boundary and i % 10 == 3
            q_inf = not boundary and i % 10 == 7 and kind in ("sep", "rad")
            exact = _GENERATORS[kind](rng, den, boundary, r_inf, q_inf)
            queries.append(Query(kind, exact, _expect(kind, exact)))
    rng.shuffle(queries)
    return queries


def _expect(kind: str, exact):
    if kind == "sep":
        return oracle.separable(*exact)
    if kind == "rad":
        return oracle.radial(*exact)
    if kind == "one":
        return oracle.one_feasible(*exact)
    if kind == "two":
        return oracle.two_feasible(*exact)
    pred_kind, kw = exact
    return oracle.predicted(pred_kind, **kw)


class ExactMix:
    name = "exact-mix"
    sample_after = ()
    reference = "python"  # the calibrate.py kernel its pass times are divided by
    warmup = """
from restriction_lab import exponents as E, experiments as X, feasibility as F
E.classify_separable(E.SeparableParams("1/3", "1/3", 2, 2))
E.classify_radial(E.RadialParams("1/4", "4/3", 4))
F.verify_one(F.solve_one("9/20", "9/20", 2, 2), "9/20", "9/20", 2, 2)
F.verify_two(F.solve_two(1, 2, 2), 1, 2, 2)
X.predicted_exponent("radial", gamma="1/2", r=2, q=2)
"""

    def prepare(self, seed: int):
        queries = exact_queries(seed)
        return [(q, *q.call_args()) for q in queries]

    def ops_per_pass(self, inputs) -> int:
        return len(inputs)

    def run_pass(self, mods, inputs):
        # looked up per pass, so traced or stubbed names take effect
        E, F, X = mods["exponents"], mods["feasibility"], mods["experiments"]
        sep_params, classify_sep = E.SeparableParams, E.classify_separable
        rad_params, classify_rad = E.RadialParams, E.classify_radial
        solve_one, verify_one = F.solve_one, F.verify_one
        solve_two, verify_two = F.solve_two, F.verify_two
        predicted, infeasible = X.predicted_exponent, F.Infeasible

        def solve_and_verify(solve, verify, args):
            cert = solve(*args)
            if isinstance(cert, infeasible):
                return cert, None
            return cert, verify(cert, *args)

        calls = {
            "sep": lambda a, kw: classify_sep(sep_params(*a)),
            "rad": lambda a, kw: classify_rad(rad_params(*a)),
            "one": lambda a, kw: solve_and_verify(solve_one, verify_one, a),
            "two": lambda a, kw: solve_and_verify(solve_two, verify_two, a),
            "pred": lambda a, kw: predicted(*a, **kw),
        }
        return [_timed(calls[q.kind], args, kw) for q, args, kw in inputs]

    def check(self, inputs, results) -> Check:
        check = Check(attempted=len(inputs))
        for (q, _, _), (_, out) in zip(inputs, results):
            problem = _exact_problem(q, out)
            if problem:
                check.fail(f"{q.kind}{q.exact}: {problem}")
        return check


def _exact_problem(q: Query, out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {out!r}"
    if q.kind in ("sep", "rad"):
        bounded, tag = q.expected
        if out.bounded != bounded:
            return f"verdict {out}, oracle bounded={bounded} ({tag})"
        if bounded and out.case_tag != tag:
            return f"case {out.case_tag}, oracle {tag}"
        return None
    if q.kind == "pred":
        slope, flag = q.expected
        if out.slope != slope or out.log_flag != flag:
            return f"predicted {out}, oracle {slope} {flag}"
        return None
    cert, verified = out
    feasible = verified is not None
    if feasible != q.expected:
        return f"feasible={feasible}, oracle {q.expected}"
    if feasible:
        if not verified.ok:
            return f"package verifier rejects {cert.record()}: {verified.violations}"
        verify = oracle.verify_one if q.kind == "one" else oracle.verify_two
        bad = verify(cert.record(), *q.exact)
        if bad:
            return f"oracle verifier rejects {cert.record()}: {bad}"
    return None


# ---------------------------------------------------------------------------
# scan workloads: the paper's fixed configurations, checked against the seed
# ---------------------------------------------------------------------------


def _reference(workload: str):
    with open(REFERENCE) as handle:
        return json.load(handle)[workload]


def scan_record(result) -> dict:
    return {
        "samples": [[s.param, s.lhs, s.rhs, s.ratio] for s in result.samples],
        "slope": result.fitted.slope,
    }


def _check_scan(check: Check, result, ref: dict, label: str) -> None:
    """Each sample is one operation; the fitted slope rides on them."""
    samples = result.samples
    check.attempted += len(samples)
    check.slope_dev = max(check.slope_dev, abs(result.fitted.slope - float(result.predicted.slope)))
    # slopes near 0 are compared absolutely
    slope_dev = abs(result.fitted.slope - ref["slope"]) / max(abs(ref["slope"]), 1.0)
    check.max_rel_dev = max(check.max_rel_dev, slope_dev)
    failed = 0
    if len(samples) != len(ref["samples"]):
        check.fail(f"{label}: {len(samples)} samples, reference {len(ref['samples'])}",
                   len(samples))
        return
    for s, (param, lhs, rhs, _) in zip(samples, ref["samples"]):
        values = (s.lhs, s.rhs, s.ratio)
        dev = max(_rel_dev(s.lhs, lhs), _rel_dev(s.rhs, rhs))
        check.max_rel_dev = max(check.max_rel_dev, dev)
        if s.param != param or not all(math.isfinite(v) and v > 0 for v in values):
            failed += 1
            check.fail(f"{label}: sample {s} is not finite and positive at {param}")
        elif dev > REF_RTOL:
            failed += 1
            check.fail(f"{label}: sample at {param} deviates {dev:.3g} from the reference")
    if not failed and slope_dev > REF_RTOL:
        check.fail(f"{label}: slope {result.fitted.slope} deviates {slope_dev:.3g}")


class _ScanWorkload:
    """One pass is one call per configuration; an operation is one sample."""

    configs: list  # (label, scan function name, args, kwargs)
    # (module, name, span name, size) targets as in spans.TARGETS, after
    # whose calls untraced passes sample the reference kernel
    sample_after: tuple = ()

    def prepare(self, seed: int):
        return self.configs

    def ops_per_pass(self, inputs) -> int:
        return self.samples_per_pass

    def run_pass(self, mods, inputs):
        X = mods["experiments"]
        return [_timed(getattr(X, fn), *args, **kw) for _, fn, args, kw in inputs]

    def check(self, inputs, results) -> Check:
        check = Check()
        refs = _reference(self.name)
        for (label, _, _, _), (_, out), ref in zip(inputs, results, refs):
            if isinstance(out, Exception):
                check.attempted += len(ref["samples"])
                check.fail(f"{label}: raised {out!r}", len(ref["samples"]))
            else:
                _check_scan(check, out, ref, label)
        return check

    def record(self, results) -> list:
        return [scan_record(out) for _, out in results]


class L2Endpoint(_ScanWorkload):
    name = "l2-endpoint"
    reference = "mixed"
    # one pass lasts about 20 seconds, too long to follow the host's speed
    # from samples around it, so the reference is also sampled after each
    # of its ten kernel calls
    sample_after = (("experiments", "cosine_weight_kernel_many", None, None),)
    # criterion 10: eps = 2^-3 .. 2^-7
    configs = [("l2-endpoint", "l2_endpoint_scan", ("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7]), {})]
    samples_per_pass = 5
    warmup = """
import numpy as np
from restriction_lab import analysis as A, experiments as X, operator as O
A.cosine_weight_kernel_many(5 / 9, np.geomspace(1e-280, 0.25, 64))
O.circle_norm(O.Density.power_singular(0.25, 0.3), 3)
X.fit_loglog_slope([(1.0, 1.0), (2.0, 2.0), (4.0, 4.5)])
"""


KNAPP_DELTA_EXPS = [2, 3, 4, 5]


class KnappGrid(_ScanWorkload):
    name = "knapp-grid"
    reference = "mixed"
    # criterion 8: the four configurations at delta = 2^-2 .. 2^-5
    configs = [
        (f"knapp-{kind}-{'-'.join(str(v) for v in kw.values())}", "knapp_scan", (kind,),
         {**kw, "delta_exps": KNAPP_DELTA_EXPS})
        for kind, kw in (
            ("separable", {"alpha": 0, "beta": 0, "q": 6, "r": 2}),
            ("separable", {"alpha": "1/3", "beta": "1/3", "q": 2, "r": 2}),
            ("separable", {"alpha": 1, "beta": 1, "q": 2, "r": 2}),
            ("radial", {"gamma": "1/2", "q": 2, "r": 2}),
        )
    ]
    samples_per_pass = 4 * len(KNAPP_DELTA_EXPS)
    warmup = """
from restriction_lab import experiments as X
X.knapp_scan("separable", alpha=0, beta=0, q=6, r=2, delta_exps=[1, 2, 3])
"""


def knapp_grid_sizes(mods) -> list[dict]:
    """Cells and computed field bytes (complex128) of each Knapp grid, from
    knapp_scan's documented rectangle |x| <= 4/delta, |y| <= max(4, (pi/4)/delta^2)."""
    grid2 = mods["norms"].Grid2
    sizes = []
    for k in KNAPP_DELTA_EXPS:
        delta = 2.0**-k
        cells = grid2.centered(4 / delta, max(4.0, math.pi / 4 / delta**2), 0.25).n_cells
        sizes.append({"delta_exp": k, "cells": cells, "field_bytes": 16 * cells})
    return sizes


# ---------------------------------------------------------------------------
# cli-suite: one in-process cli.run per subcommand
# ---------------------------------------------------------------------------

# label, argv, compared byte for byte (exact commands) or numerically
CLI_COMMANDS = [
    ("classify-separable", "classify --kind separable --alpha 1/3 --beta 1/3 --r 2 --q 2", True),
    ("classify-radial", "classify --kind radial --gamma 1/4 --r 4/3 --q 4", True),
    ("feasibility-one", "feasibility --prop one --alpha 9/20 --beta 9/20 --r 2 --q 2", True),
    ("feasibility-two", "feasibility --prop two --gamma 1 --r 2 --q 2", True),
    ("diagram", "diagram --kind separable --alpha 1/3 --beta 1/3 --grid-n 8", True),
    ("knapp", "knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 2..4"
     " --format csv", False),
    # the n-list marks make the ring-mass cross-check part of the output
    ("constant", "constant --kind separable --alpha 0 --beta 0 --q 4 --rings 1000"
     " --n-list 10,100,1000", False),
    ("dual-separable", "dual --kind separable --alpha 3/5 --beta 1/8 --r 4 --q 2"
     " --eps-exps 3..7 --format csv", False),
    ("dual-radial", "dual --kind radial --gamma 14/15 --r 3 --q 5/4 --eps-exps 3..6"
     " --format csv", False),
    ("pitt", "pitt --beta 1/2 --p 2 --q 2 --format csv", False),
    ("oscint", "oscint --kappa 0.5 --lam 1e-3", False),
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _compare_numeric(text: str, ref: str) -> tuple[bool, float]:
    """(same apart from numbers within REF_RTOL, largest relative deviation)."""
    if _NUMBER.split(text) != _NUMBER.split(ref):
        return False, math.inf
    got = [float(x) for x in _NUMBER.findall(text)]
    want = [float(x) for x in _NUMBER.findall(ref)]
    dev = max((_rel_dev(g, w) for g, w in zip(got, want)), default=0.0)
    return dev <= REF_RTOL, dev


def csv_slope_dev(text: str) -> float | None:
    """|fitted - predicted| of a scan CSV with a predicted slope, else None."""
    meta = dict(line[1:].split("=", 1) for line in text.splitlines() if line.startswith("#"))
    if "predicted_slope" not in meta:
        return None
    rows = [line.split(",") for line in text.splitlines()[len(meta) + 1:] if line]
    sign = -1.0 if meta.get("fit_variable") == "1/eps" else 1.0
    xs = [sign * float(row[4]) for row in rows]
    ys = [float(row[5]) for row in rows]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum((x - xm) ** 2 for x in xs)
    return abs(slope - float(Fraction(meta["predicted_slope"])))


class CliSuite:
    name = "cli-suite"
    sample_after = ()
    reference = "mixed"
    warmup = """
import contextlib, io
from restriction_lab import analysis as A, cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        "classify --kind separable --alpha 1/3 --beta 1/3 --r 2 --q 2",
        "feasibility --prop two --gamma 1 --r 2 --q 2",
        "knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 1..3",
        "constant --kind separable --alpha 0 --beta 0 --q 4 --rings 10",
        "pitt --beta 1/2 --p 2 --q 2 --scale-exps 0..2",
        "oscint --kappa 0.5 --lam 1e-3",
    ):
        if cli.run(argv.split()) != 0:
            raise RuntimeError(f"warm-up command failed: {argv}")
A.hankel_decay_transform(1.5, 0.5)
"""

    def prepare(self, seed: int):
        return [(label, argv.split(), exact) for label, argv, exact in CLI_COMMANDS]

    def ops_per_pass(self, inputs) -> int:
        return len(inputs)

    def run_pass(self, mods, inputs):
        results = []
        for _, argv, _ in inputs:
            run = mods["cli"].run
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                seconds, code = _timed(run, argv)
            results.append((seconds, (code, buf.getvalue())))
        return results

    def check(self, inputs, results) -> Check:
        check = Check(attempted=len(inputs))
        refs = _reference(self.name)
        for (label, _, exact), (_, (code, text)) in zip(inputs, results):
            if code != 0:
                check.fail(f"{label}: exit {code!r}")
                continue
            if exact:
                ok = text == refs[label]
            else:
                ok, dev = _compare_numeric(text, refs[label])
                check.max_rel_dev = max(check.max_rel_dev, dev)
                slope_dev = csv_slope_dev(text)
                if slope_dev is not None:
                    check.slope_dev = max(check.slope_dev, slope_dev)
            if not ok:
                check.fail(f"{label}: output differs from the reference")
        return check

    def record(self, results) -> dict:
        return {label: text for (label, _, _), (_, (_, text)) in zip(CLI_COMMANDS, results)}


WORKLOADS = {w.name: w for w in (ExactMix(), L2Endpoint(), KnappGrid(), CliSuite())}
