import argparse
import json
import math
import shlex
from pathlib import Path

import pytest

from restriction_lab.cli import _build_parser, run, scan_to_csv
from restriction_lab.exponents import ExtScalar
from restriction_lab.experiments import (
    PredictedExponent,
    ScanResult,
    ScanSample,
    fit_loglog_slope,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = [
    "classify", "diagram", "feasibility", "knapp", "constant",
    "l2-endpoint", "pitt", "dual", "oscint",
]


class TestGoldenOutputs:
    def test_classify_separable_boundary(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--kind", "separable",
            "--alpha", "1/3", "--beta", "1/3", "--r", "2", "--q", "2",
        )
        assert code == 0
        assert out == "BOUNDED case=iv\n"

    def test_classify_radial_excluded_endpoint(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--kind", "radial",
            "--gamma", "1/4", "--r", "4/3", "--q", "4",
        )
        assert code == 0
        assert out == "UNBOUNDED violated=endpoint-q-equals-r-conjugate\n"

    def test_feasibility_infeasible(self, capsys):
        code, out, _ = invoke(
            capsys, "feasibility", "--prop", "one",
            "--alpha", "1/5", "--beta", "0", "--r", "2", "--q", "2",
        )
        assert code == 0
        assert out == "INFEASIBLE\n"

    def test_feasibility_certificate_record(self, capsys):
        code, out, _ = invoke(
            capsys, "feasibility", "--prop", "one",
            "--alpha", "1/3", "--beta", "1/3", "--r", "2", "--q", "2",
        )
        assert code == 0
        assert out == "FEASIBLE theta=1/6 q0=5 q1=1/2 r0=5/2 r1=1\n"


class TestArgumentHandling:
    def test_decimal_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--kind", "separable",
            "--alpha", "0.333", "--beta", "1/3", "--r", "2", "--q", "2",
        )
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--kind", "separable", "--nope", "1",
            "--r", "2", "--q", "2", "--alpha", "0", "--beta", "0",
        )
        assert code == 1 and "usage" in err

    def test_missing_weight(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--kind", "radial", "--r", "2", "--q", "2"
        )
        assert code == 1 and "gamma" in err

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_lists_flags(self, capsys, sub):
        code, out, _ = invoke(capsys, sub, "--help")
        assert code == 0
        assert "--format" in out or "--lam" in out

    @pytest.mark.parametrize("argv", [
        "l2-endpoint --alpha 5/18 --beta 5/18 --r 3 --eps-exps=-2..3",
        "dual --kind radial --gamma 14/15 --r 3 --q 5/4 --eps-exps=-1..2",
    ])
    def test_negative_eps_exponent_is_one_error_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err == "error: eps exponents must be non-negative\n"

    @pytest.mark.parametrize("config, argv", [
        (None, "knapp --kind radial --gamma -1/3 --r 2 --q 2"),
        ("gamma=-1/3\n", "knapp --kind radial --r 2 --q 2"),
    ], ids=["flag", "config"])
    def test_negative_exact_value_after_a_space_is_read_as_its_value(self, capsys, tmp_path,
                                                                     config, argv):
        if config:
            (tmp_path / "negative.cfg").write_text(config)
            argv = f"--config {tmp_path / 'negative.cfg'} {argv}"
        assert invoke(capsys, *argv.split()) == (1, "", "error: gamma must lie in [0, inf)\n")

    def test_negative_range_after_a_space_is_read_as_its_value(self, capsys):
        spaced = invoke(capsys, *"pitt --beta 1/2 --p 2 --q 2 --scale-exps -1..1".split())
        joined = invoke(capsys, *"pitt --beta 1/2 --p 2 --q 2 --scale-exps=-1..1".split())
        assert spaced == joined and spaced[0] == 0 and "s=0.5 plain" in spaced[1]

    def test_negative_ring_count_is_one_error_line(self, capsys):
        code, out, err = invoke(
            capsys, "constant", "--kind", "separable", "--alpha", "0", "--beta", "0",
            "--q", "4", "--rings", "-5", "--n-list", "10,100",
        )
        assert code == 1 and out == ""
        assert err == "error: cross_check_rings must be non-negative\n"

    @pytest.mark.parametrize("argv, message", [
        # fitted on truncated rules, these read slope -0.338 against 1/4 and +0.178
        # against -1/3, and the last failed later with "need mu r < 1"
        ("dual --kind separable --alpha 3/5 --beta 1/8 --r 4 --q 2 --eps-exps 9..11",
         "eps = 1/512: the tau cap 340 drops 41.3% of the mass, over 1/16"),
        ("l2-endpoint --alpha 5/18 --beta 5/18 --r 3 --eps-exps 8..10",
         "eps = 1/256: the tau cap 300 drops 9.6% of the mass, over 1/16"),
        ("l2-endpoint --alpha 5/18 --beta 5/18 --r 3 --eps-exps 54..56",
         "eps = 1/18014398509481984: the tau cap 300 drops 100.0% of the mass, over 1/16"),
    ], ids=["dual", "l2-endpoint", "l2-endpoint-tiny"])
    def test_eps_truncated_by_the_tau_cap_is_one_error_line(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv.split())
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_constant_past_the_term_budget_is_one_error_line(self, capsys):
        # this escaped run as a MemoryError asking for 7.28 TiB
        code, out, err = invoke(capsys, *"constant --kind separable --alpha 0 --beta 0 --q 4 "
                                         "--n-list 10,1000000000000".split())
        assert (code, out) == (1, "")
        assert err == "error: n=1000000000000 over budget 1000000\n"

    @pytest.mark.parametrize("argv, flag, text, values", [
        ("constant --kind separable --alpha 0 --beta 0 --q 4 --n-list 1..1000000000",
         "n-list", "1..1000000000", 1_000_000_000),
        ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 2..300000000",
         "delta-exps", "2..300000000", 299_999_999),
    ])
    def test_a_range_past_the_term_budget_is_refused_before_it_is_built(
            self, capsys, argv, flag, text, values):
        # under a 1.5 GB address-space limit these ended in a MemoryError traceback
        code, out, err = invoke(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"restriction-lab {argv.split()[0]}: error: argument --{flag}: {text!r} has "
            f"{values} values, over budget 1000000"]

    @pytest.mark.parametrize("text", ["5..2", "a..b"])
    def test_a_range_that_is_not_one_is_an_argument_error(self, capsys, text):
        code, out, err = invoke(capsys, *"knapp --kind separable --alpha 0 --beta 0 --r 2 "
                                         f"--q 6 --delta-exps {text}".split())
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"restriction-lab knapp: error: argument --delta-exps: {text!r} is not an integer "
            "range 'a..b' or comma list"]

    def test_an_unwritable_out_path_is_an_io_failure(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "x.csv"
        code, out, err = invoke(capsys, *"diagram --kind separable --alpha 0 --beta 0 "
                                         f"--grid-n 2 --out {missing}".split())
        assert (code, out) == (2, "") and not missing.parent.exists()
        assert err == f"i/o failure: [Errno 2] No such file or directory: '{missing}'\n"

    def test_diagram_past_the_cell_budget_is_one_error_line(self, capsys):
        code, out, err = invoke(capsys, *"diagram --kind radial --gamma 1/2 "
                                         "--grid-n 100000".split())
        assert (code, out) == (1, "")
        assert err == "error: grid_n=100000 needs 10000100000 cells, over budget 250000\n"

    def test_budget_error_is_argument_error(self, capsys):
        code, _, err = invoke(
            capsys, "knapp", "--kind", "separable", "--alpha", "0", "--beta", "0",
            "--r", "2", "--q", "6", "--delta-exps", "8..8",
        )
        assert code == 1 and "budget" in err

    @pytest.mark.parametrize("argv, message", [
        ("pitt --beta 1/2 --p 2 --q 2 --scale-exps 1024",
         "scale exponents must be at most 1023, where 2^k is a finite float"),
        ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 1100..1102",
         "delta exponents must be at most 1022, where 2^-k is a normal float"),
        ("dual --kind separable --alpha 3/5 --beta 1/8 --r 4 --q 2 --eps-exps 1100..1102",
         "eps exponents must be at most 1022, where 2^-k is a normal float"),
        ("l2-endpoint --alpha 5/18 --beta 5/18 --r 3 --eps-exps 1100..1102",
         "eps exponents must be at most 1022, where 2^-k is a normal float"),
        ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 600..602",
         "delta=2.40992e-181 needs a column over budget 30000000"),
        ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 1..2",
         "need at least 3 points"),
    ])
    def test_out_of_range_exponents_are_one_error_line(self, capsys, argv, message):
        # these raised OverflowError or ZeroDivisionError from 2^k, 2^-k or delta^-2
        code, out, err = invoke(capsys, *argv.split())
        assert (code, out, err) == (1, "", f"error: {message}\n")

    BIG = "1" + "0" * 400  # exact and inside every interval, but past the largest float

    @pytest.mark.parametrize("argv", [
        f"knapp --kind separable --alpha {BIG} --beta 0 --r 2 --q 2",
        f"knapp --kind separable --alpha 0 --beta 0 --r 2 --q 1/{BIG}",
        f"knapp --kind separable --alpha 0 --beta 0 --r {BIG} --q 2",
        f"constant --kind radial --gamma {BIG} --q 2",
        f"pitt --beta {BIG} --p 2 --q 2",
    ], ids=["knapp-alpha", "knapp-q", "knapp-r", "constant-gamma", "pitt-beta"])
    def test_exact_values_without_a_float_are_one_error_line(self, capsys, argv):
        # these raised OverflowError, or ZeroDivisionError where q rounded to 0.0
        code, out, err = invoke(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# each subcommand with exact arguments that pass every check, and the interval each
# exact flag must lie in; a feasibility weight also goes through weight_exponents'
# [0, inf) before its solver's (0, inf)
EXACT_FLAGS = [
    ("classify --kind separable --alpha 1/3 --beta 1/3 --r 2 --q 2",
     {"alpha": "[0, inf)", "beta": "[0, inf)", "r": "[1, inf]", "q": "(0, inf]"}),
    ("classify --kind radial --gamma 1/4 --r 4/3 --q 4",
     {"gamma": "[0, inf)", "r": "[1, inf]", "q": "(0, inf]"}),
    ("diagram --kind separable --alpha 1/3 --beta 1/3 --grid-n 2",
     {"alpha": "[0, inf)", "beta": "[0, inf)"}),
    ("diagram --kind radial --gamma 1/4 --grid-n 2", {"gamma": "[0, inf)"}),
    ("feasibility --prop one --alpha 1/4 --beta 1/4 --r 2 --q 3",
     {"alpha": "[0, inf)", "beta": "[0, inf)", "r": "[1, inf)", "q": "(0, inf)"}),
    ("feasibility --prop two --gamma 1 --r 2 --q 2",
     {"gamma": "[0, inf)", "r": "[1, inf]", "q": "(0, inf)"}),
    ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6",
     {"alpha": "[0, inf)", "beta": "[0, inf)", "r": "[1, inf]", "q": "(0, inf)"}),
    ("knapp --kind radial --gamma 0 --r 2 --q 6",
     {"gamma": "[0, inf)", "r": "[1, inf]", "q": "(0, inf)"}),
    ("constant --kind separable --alpha 0 --beta 0 --q 4 --n-list 10",
     {"alpha": "[0, inf)", "beta": "[0, inf)", "q": "(0, inf)"}),
    ("constant --kind radial --gamma 0 --q 4 --n-list 10", {"gamma": "[0, inf)", "q": "(0, inf)"}),
    ("l2-endpoint --alpha 5/18 --beta 5/18 --r 3",
     {"alpha": "[0, inf)", "beta": "[0, inf)", "r": "(1, inf)"}),
    ("pitt --beta 1/2 --p 2 --q 2", {"beta": "[0, inf)", "p": "[1, 2]", "q": "(0, inf)"}),
    ("dual --kind separable --alpha 3/5 --beta 1/8 --r 4 --q 2",
     {"alpha": "[0, inf)", "beta": "[0, inf)", "r": "(1, inf)", "q": "(1, inf)"}),
    ("dual --kind radial --gamma 14/15 --r 3 --q 5/4",
     {"gamma": "[0, inf)", "r": "(1, inf)", "q": "(1, inf)"}),
]
_TINY = 10**400  # 1/10^400 rounds to 0.0 as a float


def _outside(interval: str) -> list[tuple[str, str]]:
    """(label, value) just outside each end of an interval written like "[1, 2]": the end
    itself where it is open, a step of 1/10^400 beyond it where it is closed, and inf
    beyond an upper end inf that excludes it."""
    lo, hi = (end.strip() for end in interval[1:-1].split(","))
    values = [("lo", lo) if interval[0] == "(" else ("lo-", f"{int(lo) * _TINY - 1}/{_TINY}")]
    if hi != "inf":
        values.append(("hi", hi) if interval[-1] == ")"
                      else ("hi+", f"{int(hi) * _TINY + 1}/{_TINY}"))
    elif interval[-1] == ")":
        values.append(("inf", "inf"))
    return values


def _sweep_cases():
    cases, ids = [], []
    for base, flags in EXACT_FLAGS:
        label = ":".join(t for t in base.split()[:3] if not t.startswith("--"))
        for flag, interval in flags.items():
            for where, value in _outside(interval):
                cases.append((base, flag, value, f"{flag} must lie in {interval}"))
                ids.append(f"{label}:{flag}:{where}")
    # a feasibility weight of 0 passes [0, inf) and fails its solver's (0, inf)
    for base, flag in ((EXACT_FLAGS[4][0], "alpha"), (EXACT_FLAGS[5][0], "gamma")):
        cases.append((base, flag, "0", f"{flag} must lie in (0, inf)"))
        ids.append(f"feasibility:{flag}:solver-lo")
    return cases, ids


@pytest.fixture
def kernels_raise(monkeypatch):
    """Every kernel and mass function the scans call raises NumericalError."""
    from restriction_lab import experiments
    from restriction_lab.errors import NumericalError

    def reached(*args, **kwargs):
        raise NumericalError("kernel reached")

    for name in ("_gram_mass", "_streamed_mass", "cosine_weight_kernel_many",
                 "hankel_decay_transform_many", "j0_extrema", "_split_phase_cosine", "weak_lq_1d"):
        monkeypatch.setattr(experiments, name, reached)


class TestExactArgumentSweep:
    @pytest.mark.parametrize("base", [base for base, _ in EXACT_FLAGS])
    def test_base_arguments_pass_every_check(self, capsys, kernels_raise, base):
        # the scans get as far as their first kernel; the exact commands complete
        code, _, err = invoke(capsys, *base.split())
        if base.split()[0] in ("knapp", "l2-endpoint", "pitt", "dual"):
            assert (code, err) == (2, "numerical failure: kernel reached\n")
        else:
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("base, flag, value, message", _sweep_cases()[0],
                             ids=_sweep_cases()[1])
    def test_value_outside_its_interval_is_one_error_line(self, capsys, kernels_raise, base,
                                                          flag, value, message):
        code, out, err = invoke(capsys, *base.split(), f"--{flag}={value}")
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestJsonRoundTrip:
    def test_classify_rationals_reparse(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--kind", "separable",
            "--alpha", "22/7", "--beta", "0", "--r", "7/5", "--q", "inf",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert ExtScalar(payload["alpha"]) == ExtScalar("22/7")
        assert ExtScalar(payload["r"]) == ExtScalar("7/5")
        assert ExtScalar(payload["q"]) == ExtScalar("inf")
        assert payload["decision"] == "bounded"

    def test_constant_json_carries_the_ring_sums(self, capsys):
        code, out, _ = invoke(capsys, *"constant --kind separable --alpha 0 --beta 0 --q 4 "
                                       "--rings 100 --n-list 10,100 --format json".split())
        payload = json.loads(out)
        assert code == 0 and list(payload) == ["exponent", "verdict", "sums", "ring_sums"]
        assert [n for n, _ in payload["ring_sums"]] == [n for n, _ in payload["sums"]] == [10, 100]

    def test_feasibility_json(self, capsys):
        code, out, _ = invoke(
            capsys, "feasibility", "--prop", "two",
            "--gamma", "2/3", "--r", "3/2", "--q", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert ExtScalar(payload["theta"]) == ExtScalar("5/6")


class TestCsvWriter:
    def _result(self):
        samples = (
            ScanSample(0.25, 2.0, 1.0, 2.0),
            ScanSample(0.125, 1.5, 1.0, 1.5),
            ScanSample(0.0625, 1.25, 1.0, 1.25),
        )
        fitted = fit_loglog_slope([(s.param, s.ratio) for s in samples])
        return ScanResult(samples, fitted, PredictedExponent(0),
                          {"experiment": "demo", "alpha": "1/3"})

    def test_format_and_round_trip(self):
        text = scan_to_csv(self._result())
        lines = text.split("\n")
        assert text.endswith("\n") and "\r" not in text
        assert lines[0] == "#alpha=1/3"  # metadata sorted by key
        assert lines[1] == "#experiment=demo"
        assert lines[2] == "param,lhs,rhs,ratio,log2_param,log2_ratio"
        row = lines[3].split(",")
        assert float(row[0]) == 0.25 and float(row[3]) == 2.0
        assert float(row[5]) == math.log2(2.0)
        # 17 significant digits round-trip floats exactly
        assert float(format(math.pi, ".17g")) == math.pi

    def test_empty_scan_has_header_and_metadata_only(self):
        res = ScanResult((), fit_loglog_slope([(1, 1), (2, 1), (4, 1)]),
                         PredictedExponent(0), {"experiment": "empty"})
        text = scan_to_csv(res)
        assert text == "#experiment=empty\nparam,lhs,rhs,ratio,log2_param,log2_ratio\n"

    def test_diagram_csv_rows(self, capsys, tmp_path):
        out_path = tmp_path / "diagram.csv"
        code, _, _ = invoke(
            capsys, "diagram", "--kind", "separable", "--alpha", "0",
            "--beta", "0", "--grid-n", "2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        meta = {"alpha": "0", "beta": "0", "grid_n": "2", "kind": "separable"}
        assert lines[: len(meta)] == sorted(f"#{k}={v}" for k, v in meta.items())
        assert lines[len(meta)] == "inv_r,inv_q,decision,case"
        assert len(lines) == len(meta) + 1 + 6  # (2+1) * 2 grid points

    def test_scan_csv_via_cli(self, capsys, tmp_path):
        out_path = tmp_path / "dual.csv"
        code, _, _ = invoke(
            capsys, "dual", "--kind", "separable", "--alpha", "3/5",
            "--beta", "1/8", "--r", "4", "--q", "2", "--eps-exps", "3..5",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert "#predicted_slope=1/4" in lines
        assert sum(1 for ln in lines if not ln.startswith("#")) == 4  # header + 3


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1/3\nbeta=1/3\nr=2\nq=2\n")
        code, out, _ = invoke(
            capsys, "--config", str(cfg), "classify", "--kind", "separable"
        )
        assert code == 0 and out == "BOUNDED case=iv\n"
        # explicit flag wins over the file value
        code, out, _ = invoke(
            capsys, "--config", str(cfg), "classify", "--kind", "separable",
            "--alpha", "0", "--beta", "0",
        )
        assert code == 0 and out.startswith("UNBOUNDED")

    @pytest.mark.parametrize("argv", [
        "classify --kind separable --r 2 --q 2",
        "classify --kind separable --alpha 0 --beta 0 --r 2 --q 2",
        "diagram --kind separable --grid-n 3 --format csv",
    ])
    def test_config_equals_path_matches_config_space_path(self, capsys, tmp_path, argv):
        # --config=PATH was accepted by argparse and the file never read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1/3\nbeta=1/3\n")
        spaced = invoke(capsys, "--config", str(cfg), *argv.split())
        joined = invoke(capsys, f"--config={cfg}", *argv.split())
        assert joined == spaced and spaced[0] == 0

    def test_indented_comment_is_skipped(self, capsys, tmp_path):
        # an indented comment was read as a line without '=' and refused
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# weights\nalpha=1/3\n  # note\n\t# tab\nbeta=1/3\nr=2\nq=2\n")
        code, out, err = invoke(capsys, "--config", str(cfg), "classify", "--kind", "separable")
        assert (code, out, err) == (0, "BOUNDED case=iv\n", "")

    def test_line_without_equals_is_an_argument_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=2\nq\n")
        code, out, err = invoke(
            capsys, "--config", str(cfg), "classify", "--kind", "separable"
        )
        assert code == 1 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"restriction-lab: error: config {cfg} line 2: 'q' is not key=value"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        ("--config {missing} classify --kind separable", "cannot read config {missing}: "),
        ("classify --kind separable --alpha 0 --beta 0 --r 2 --q 2 --config",
         "unrecognized arguments: --config"),
        ("--config", "argument --config: expected one argument"),
        ("--config {cfg}", "argument command: invalid choice: '1/3'"),
    ], ids=["missing-file", "last-token", "last-token-alone", "no-subcommand"])
    def test_config_misuse_is_an_argument_error(self, capsys, tmp_path, argv, message):
        cfg, missing = tmp_path / "run.cfg", tmp_path / "missing.cfg"
        cfg.write_text("alpha=1/3\n")
        code, out, err = invoke(capsys, *argv.format(cfg=cfg, missing=missing).split())
        assert (code, out) == (1, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message.format(missing=missing) in errors[0]


class TestRepeatedRuns:
    def test_back_to_back_runs_match_fresh_runs(self, capsys, tmp_path):
        # one cached parser serves every run: neither a flag value nor a config
        # default may carry over into the next run
        cfg, knapp_cfg = tmp_path / "run.cfg", tmp_path / "knapp.cfg"
        cfg.write_text("alpha=1/3\nbeta=1/3\nr=2\nq=2\n")
        knapp_cfg.write_text("alpha=1/3\nbeta=1/3\nr=2\ndelta_exps=3..5\n")
        knapp = "knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --format csv"
        runs = [
            knapp + " --delta-exps 2..4",
            knapp,
            f"--config {cfg} classify --kind separable",
            "classify --kind separable",
            f"--config {knapp_cfg} knapp --kind separable --q 6 --format csv",
            knapp,
            "oscint --kappa 0.5 --lam 1e-3",
            "classify --kind radial --gamma 1/4 --r 4/3 --q 4",
        ]
        parser = _build_parser()
        in_one_process = [invoke(capsys, *argv.split()) for argv in runs]
        assert _build_parser() is parser
        fresh = []
        for argv in runs:
            _build_parser.cache_clear()
            fresh.append(invoke(capsys, *argv.split()))
        assert in_one_process == fresh
        codes = [code for code, _, _ in in_one_process]
        assert codes == [0, 0, 0, 1, 0, 0, 0, 0]  # run 3 lacks --r and --q without the config
        assert "#delta_exps=2,3,4,5\n" in in_one_process[1][1]
        assert "#delta_exps=3,4,5\n#" in in_one_process[4][1]
        assert "#delta_exps=2,3,4,5\n" in in_one_process[5][1]


class TestOscintCommand:
    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "oscint", "--kappa", "0.5", "--lam", "1e-3")
        assert code == 0
        assert out.startswith("K=") and "lambda^(1-kappa)K/C=" in out

    def test_json_output(self, capsys):
        code, out, _ = invoke(
            capsys, "oscint", "--kappa", "0.25", "--lam", "0.5", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["fresnel_constant"] > 0

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_one_error_line(self, capsys, lam):
        code, out, err = invoke(capsys, "oscint", "--kappa", "0.5", "--lam", lam)
        assert (code, out) == (1, "")
        assert err == "error: lambda must be positive and finite\n"

    def test_lambda_past_the_error_bound_is_one_error_line(self, capsys):
        code, out, err = invoke(capsys, "oscint", "--kappa", "0.5", "--lam", "1e3")
        assert (code, out) == (1, "")
        assert err == ("error: lambda = 1000.0 is above 100, "
                       "the largest lambda its error bound covers\n")

    def test_lambda_below_the_error_bound_is_one_error_line(self, capsys):
        # this printed K=inf and exited 0
        code, out, err = invoke(capsys, "oscint", "--kappa", "0.001", "--lam", "1e-310")
        assert (code, out) == (1, "")
        assert err == ("error: lambda = 1e-310 is below 1e-300, "
                       "the smallest lambda its error bound covers\n")


# option string -> (required, default) per subcommand, as the flags stood
# before the parser was built from one flag table; --format/--out are common
_FORMAT_FLAGS = {"--format": (False, "text"), "--out": (False, None)}
_WEIGHTS = {"--alpha": (False, None), "--beta": (False, None), "--gamma": (False, None)}
_KIND = {"--kind": (True, None)}
_RQ = {"--r": (True, None), "--q": (True, None)}
FLAG_INVENTORY = {
    "classify": {**_KIND, **_WEIGHTS, **_RQ},
    "diagram": {**_KIND, **_WEIGHTS, "--grid-n": (True, None)},
    "feasibility": {"--prop": (True, None), **_WEIGHTS, **_RQ},
    "knapp": {**_KIND, **_WEIGHTS, **_RQ, "--delta-exps": (False, [2, 3, 4, 5])},
    "constant": {**_KIND, **_WEIGHTS, "--q": (True, None),
                 "--n-list": (False, [10000, 100000]), "--rings": (False, 0)},
    "l2-endpoint": {"--alpha": (True, None), "--beta": (True, None), "--r": (True, None),
                    "--delta": (False, 0.25), "--eps-exps": (False, [3, 4, 5, 6, 7])},
    "pitt": {"--beta": (True, None), "--p": (True, None), "--q": (True, None),
             "--scale-exps": (False, list(range(-6, 7)))},
    "dual": {**_KIND, **_WEIGHTS, **_RQ, "--eps-exps": (False, [3, 4, 5, 6, 7])},
    "oscint": {"--kappa": (True, None), "--lam": (True, None)},
}


class TestFlagInventory:
    def _subparsers(self):
        parser = _build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return parser, action.choices

    def test_subcommands_flags_required_and_defaults(self):
        _, subparsers = self._subparsers()
        assert list(subparsers) == SUBCOMMANDS == list(FLAG_INVENTORY)
        for name, sub in subparsers.items():
            got = {a.option_strings[-1]: (a.required, a.default)
                   for a in sub._actions if "--help" not in a.option_strings}
            assert list(got.items()) == list({**FLAG_INVENTORY[name], **_FORMAT_FLAGS}.items())

    def test_top_level_flags(self):
        parser, _ = self._subparsers()
        options = [a.option_strings for a in parser._actions if a.option_strings]
        assert options == [["-h", "--help"], ["--config"]]


# small arguments for every subcommand; exact ones carry their recorded stdout
# per format (None: a float-valued output checked for structure only)
FORMAT_CASES = {
    "classify": ("classify --kind radial --gamma 1/4 --r 4/3 --q 4", {
        "text": "UNBOUNDED violated=endpoint-q-equals-r-conjugate\n",
        "json": '{"decision": "unbounded", "violated": "endpoint-q-equals-r-conjugate", '
                '"gamma": "1/4", "r": "4/3", "q": "4"}\n',
    }),
    "diagram": ("diagram --kind separable --alpha 0 --beta 0 --grid-n 2", {
        "text": "#alpha=0\n#beta=0\n#grid_n=2\n#kind=separable\n"
                "inv_r,inv_q,decision,case\n"
                "0,1/2,unbounded,constant-density\n0,1,unbounded,constant-density\n"
                "1/2,1/2,unbounded,constant-density\n1/2,1,unbounded,constant-density\n"
                "1,1/2,unbounded,constant-density\n1,1,unbounded,constant-density\n",
    }),
    "feasibility": ("feasibility --prop two --gamma 1 --r 2 --q 2", {
        "text": "FEASIBLE theta=1/2 q0=8 q1=8/7 r0=8/5 r1=8/3 gamma1=2\n",
        "json": '{"feasible": true, "theta": "1/2", "q0": "8", "q1": "8/7", "r0": "8/5", '
                '"r1": "8/3", "gamma1": "2"}\n',
    }),
    "knapp": ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q 6 --delta-exps 1..3", None),
    "constant": ("constant --kind radial --gamma 1/4 --q 4 --n-list 10,100", None),
    "l2-endpoint": ("l2-endpoint --alpha 5/18 --beta 5/18 --r 3 --eps-exps 3..5", None),
    "pitt": ("pitt --beta 1/2 --p 2 --q 2 --scale-exps 0..2", None),
    "dual": ("dual --kind separable --alpha 3/5 --beta 1/8 --r 4 --q 2 --eps-exps 3..5", None),
    "oscint": ("oscint --kappa 0.5 --lam 1e-2", None),
}
_TABLE_HEADERS = {
    "knapp": "param,lhs,rhs,ratio,log2_param,log2_ratio",
    "l2-endpoint": "param,lhs,rhs,ratio,log2_param,log2_ratio",
    "dual": "param,lhs,rhs,ratio,log2_param,log2_ratio",
    "constant": "n,partial_sum",
    "pitt": "scale,variant,ratio",
    "diagram": "inv_r,inv_q,decision,case",
}


class TestFormatMatrix:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_every_format(self, capsys, sub):
        argv, recorded = FORMAT_CASES[sub]
        outs = {}
        for fmt in ("text", "json", "csv"):
            code, outs[fmt], err = invoke(capsys, *argv.split(), "--format", fmt)
            assert code == 0 and err == ""
            assert outs[fmt].endswith("\n")
        code, default, _ = invoke(capsys, *argv.split())
        assert code == 0 and default == outs["text"]
        if sub == "diagram":  # the grid is CSV whatever the format
            assert outs["text"] == outs["json"] == outs["csv"]
        else:
            assert isinstance(json.loads(outs["json"]), dict)
        if sub in _TABLE_HEADERS:
            lines = outs["csv"].splitlines()
            meta = [ln for ln in lines if ln.startswith("#")]
            assert meta and lines[: len(meta)] == sorted(meta)
            assert lines[len(meta)] == _TABLE_HEADERS[sub]
        else:  # no CSV renderer: csv prints the text output
            assert outs["csv"] == outs["text"]
        for fmt, want in (recorded or {}).items():
            assert outs[fmt] == want


def _readme_commands() -> list[str]:
    """The restriction-lab lines of the README's usage block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [ln for ln in lines if ln.startswith("restriction-lab ")]


class TestReadmeUsage:
    def test_every_usage_line_parses(self):
        commands = _readme_commands()
        assert len(commands) == 9
        parser = _build_parser()
        for command in commands:
            try:
                args = parser.parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README usage line does not parse: {command}")
            assert args.command == command.split()[1]
