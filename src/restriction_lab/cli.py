"""Command-line front end: classifiers, certificate solvers, experiment scans.

Exact rationals are written as `p/q`, integers, or `inf`; decimal input is
rejected for classifier and feasibility parameters so boundary decisions
stay exact.  Integer ranges are written `a..b`.  Scans write CSV with
`#key=value` metadata lines (sorted keys), a header row, then data rows in
17-significant-digit decimals with LF line endings.

Exit codes: 0 success, 1 argument errors, 2 numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction

from .errors import ConfigurationError, NumericalError
from .exponents import (
    DomainError,
    ExtScalar,
    RadialParams,
    SeparableParams,
    Verdict,
    classify_radial,
    classify_separable,
    riesz_diagram,
    weight_exponents,
)
from .experiments import (
    TERM_BUDGET,
    ScanResult,
    constant_density_sums,
    dual_scan,
    knapp_scan,
    l2_endpoint_scan,
    pitt_sweep,
)
from .feasibility import Infeasible, solve_one, solve_two
from .analysis import cosine_weight_kernel, fresnel_constant

__all__ = ["main", "run", "write_csv", "scan_to_csv"]


def _rational(text: str) -> ExtScalar:
    try:
        return ExtScalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational (use p/q, an integer, or 'inf')"
        ) from exc


def _int_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            if hi_i - lo_i >= TERM_BUDGET:  # the most values any flag takes; checked unbuilt
                raise argparse.ArgumentTypeError(
                    f"{text!r} has {hi_i - lo_i + 1} values, over budget {TERM_BUDGET}")
            return list(range(lo_i, hi_i + 1))
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer range 'a..b' or comma list"
        ) from exc


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _table(meta: dict[str, object], header: str, rows) -> str:
    """CSV text: sorted `#key=value` lines, the header, then one line per row.

    Float cells are written with 17 significant digits; other cells and the
    metadata values with str().
    """
    return _lines(
        [f"#{k}={meta[k]}" for k in sorted(meta)]
        + [header]
        + [",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) for row in rows]
    )


def scan_to_csv(result: ScanResult) -> str:
    return _table(
        result.metadata,
        "param,lhs,rhs,ratio,log2_param,log2_ratio",
        (
            (s.param, s.lhs, s.rhs, s.ratio, math.log2(s.param), math.log2(s.ratio))
            for s in result.samples
        ),
    )


def write_csv(text: str, path: str | None) -> None:
    """Write CSV bytes to a path (LF endings) or echo to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _emit(args, text, payload=None, table=None) -> int:
    """Write the output in ``args.format`` and return exit code 0.

    ``text`` and ``table`` return the text and CSV output, ``payload`` the
    JSON object; all three are zero-argument callables and only the one
    asked for is called.  A format without its renderer falls back to text.
    """
    if args.format == "json" and payload is not None:
        out = json.dumps(payload(), allow_nan=False) + "\n"
    elif args.format == "csv" and table is not None:
        out = table()
    else:
        out = text()
    write_csv(out, args.out)
    return 0


def _verdict_payload(verdict: Verdict, params: dict[str, Fraction | ExtScalar]) -> dict:
    label = "case" if verdict.bounded else "violated"
    return {"decision": verdict.decision, label: verdict.label,
            **{k: str(v) for k, v in params.items()}}


def _weights(args, kind: str | None = None) -> dict[str, Fraction]:
    return weight_exponents(kind or args.kind, args.alpha, args.beta, args.gamma)


def _cmd_classify(args) -> int:
    params = {**_weights(args), "r": args.r, "q": args.q}
    if args.kind == "separable":
        verdict = classify_separable(SeparableParams(**params))
    else:
        verdict = classify_radial(RadialParams(**params))
    return _emit(
        args, lambda: str(verdict) + "\n", payload=lambda: _verdict_payload(verdict, params)
    )


def _cmd_diagram(args) -> int:
    weights = _weights(args)
    rows = riesz_diagram(args.kind, weights, args.grid_n)
    meta = {**weights, "kind": args.kind, "grid_n": args.grid_n}
    return _emit(args, lambda: _table(
        meta,
        "inv_r,inv_q,decision,case",
        ((row.inv_r, row.inv_q, row.verdict.decision, row.verdict.label) for row in rows),
    ))


def _cmd_feasibility(args) -> int:
    if args.prop == "one":
        outcome = solve_one(**_weights(args, "separable"), r=args.r, q=args.q)
    else:
        outcome = solve_two(**_weights(args, "radial"), r=args.r, q=args.q)
    if isinstance(outcome, Infeasible):
        return _emit(
            args,
            lambda: "INFEASIBLE\n",
            payload=lambda: {"feasible": False, "reason": outcome.reason},
        )
    return _emit(
        args,
        lambda: f"FEASIBLE {outcome.record()}\n",
        payload=lambda: {
            "feasible": True, **{f.name: str(getattr(outcome, f.name)) for f in fields(outcome)}
        },
    )


def _scan_output(args, result: ScanResult) -> int:
    fit = result.fitted
    return _emit(
        args,
        lambda: _lines(
            [f"fitted slope {fit.slope:+.4f} (stderr {fit.stderr:.4f}), "
             f"predicted {result.predicted}"]
            + [f"param={_fmt(s.param)} ratio={_fmt(s.ratio)}" for s in result.samples]
        ),
        payload=lambda: {
            "samples": [
                {"param": s.param, "lhs": s.lhs, "rhs": s.rhs, "ratio": s.ratio}
                for s in result.samples
            ],
            "fitted_slope": fit.slope,
            "stderr": fit.stderr,
            "r_squared": fit.r_squared,
            "predicted_slope": str(result.predicted.slope),
            "log_flag": result.predicted.log_flag,
        },
        table=lambda: scan_to_csv(result),
    )


def _cmd_knapp(args) -> int:
    result = knapp_scan(args.kind, r=args.r, q=args.q, delta_exps=args.delta_exps,
                        **_weights(args))
    return _scan_output(args, result)


def _cmd_constant(args) -> int:
    weights = _weights(args)
    result = constant_density_sums(
        args.kind, q=args.q, n_list=args.n_list, cross_check_rings=args.rings,
        **weights,
    )
    verdict = "DIVERGENT" if result.divergent else "CONVERGENT"
    exponent = str(result.exponent)

    def payload():
        out = {
            "exponent": exponent,
            "verdict": verdict.lower(),
            "sums": [[n, v] for n, v in result.sums],
        }
        if result.ring_sums is not None:
            out["ring_sums"] = [[n, v] for n, v in result.ring_sums]
        return out

    def table():
        meta = {**weights, "kind": args.kind, "q": args.q, "exponent": exponent,
                "verdict": verdict.lower()}
        return _table(meta, "n,partial_sum", result.sums)

    return _emit(
        args,
        lambda: _lines(
            [f"{verdict} index-exponent={exponent}"]
            + [f"S_{n} = {_fmt(v)}" for n, v in result.sums]
            + [f"ring mass B_{n} = {_fmt(v)}" for n, v in result.ring_sums or ()]
        ),
        payload,
        table,
    )


def _cmd_l2_endpoint(args) -> int:
    result = l2_endpoint_scan(args.alpha, args.beta, args.r, args.delta, args.eps_exps)
    return _scan_output(args, result)


def _cmd_pitt(args) -> int:
    if max(args.scale_exps) > 1023:
        raise DomainError("scale exponents must be at most 1023, where 2^k is a finite float")
    scales = [2.0**k for k in args.scale_exps]
    result = pitt_sweep(args.beta, args.p, args.q, scales)
    return _emit(
        args,
        lambda: _lines([f"max ratio {_fmt(result.max_ratio)}"] + [
            f"s={_fmt(s)} {variant}: {_fmt(ratio)}" for s, variant, ratio in result.ratios
        ]),
        payload=lambda: {
            "max_ratio": result.max_ratio,
            "ratios": [[s, v, r] for s, v, r in result.ratios],
        },
        table=lambda: _table(result.metadata, "scale,variant,ratio", result.ratios),
    )


def _cmd_dual(args) -> int:
    result = dual_scan(args.kind, r=args.r, q=args.q, eps_exps=args.eps_exps,
                       **_weights(args))
    return _scan_output(args, result)


def _cmd_oscint(args) -> int:
    kernel = cosine_weight_kernel(args.kappa, args.lam)
    constant = fresnel_constant(args.kappa)
    normalized = args.lam ** (1 - args.kappa) * kernel / constant
    return _emit(
        args,
        lambda: f"K={_fmt(kernel)} C={_fmt(constant)} lambda^(1-kappa)K/C={_fmt(normalized)}\n",
        payload=lambda: {
            "kappa": args.kappa,
            "lambda": args.lam,
            "kernel": kernel,
            "fresnel_constant": constant,
            "normalized": normalized,
        },
    )


# subcommand -> (help, handler, flags in usage order; "!" marks a required flag)
_COMMANDS = {
    "classify": ("decide boundedness of a weighted estimate", _cmd_classify,
                 "kind! alpha beta gamma r! q!"),
    "diagram": ("classify a (1/r, 1/q) grid at fixed weights", _cmd_diagram,
                "kind! alpha beta gamma grid-n!"),
    "feasibility": ("interpolation-exponent certificates", _cmd_feasibility,
                    "prop! alpha beta gamma r! q!"),
    "knapp": ("cap-density scaling scan", _cmd_knapp,
              "kind! alpha beta gamma r! q! delta-exps"),
    "constant": ("constant-density partial sums", _cmd_constant,
                 "kind! alpha beta gamma q! n-list rings"),
    "l2-endpoint": ("L2 endpoint blow-up scan", _cmd_l2_endpoint,
                    "alpha! beta! r! delta eps-exps"),
    "pitt": ("weighted weak-norm dilation sweep", _cmd_pitt,
             "beta! p! q! scale-exps"),
    "dual": ("dual restricted-norm blow-up scan", _cmd_dual,
             "kind! alpha beta gamma r! q! eps-exps"),
    "oscint": ("decaying-cosine kernel and its small-lambda law", _cmd_oscint,
               "kappa! lam!"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # every flag once: name -> add_argument keywords
    flags = {
        "kind": {"choices": ("separable", "radial")},
        "prop": {"choices": ("one", "two")},
        "alpha": {"type": _rational, "help": "separable weight exponent (exact)"},
        "beta": {"type": _rational, "help": "separable weight exponent (exact)"},
        "gamma": {"type": _rational, "help": "radial weight exponent (exact)"},
        "r": {"type": _rational, "help": "source exponent in [1,inf]"},
        "q": {"type": _rational, "help": "target exponent in (0,inf]"},
        "p": {"type": _rational},
        "grid-n": {"type": int},
        "delta-exps": {"type": _int_range, "default": list(range(2, 6)),
                       "help": "k values for delta = 2^-k, e.g. 2..5"},
        "n-list": {"type": _int_range, "default": [10**4, 10**5]},
        "rings": {"type": int, "default": 0,
                  "help": "cross-check against the extrema-annulus masses (0 = off)"},
        "delta": {"type": float, "default": 0.25},
        "eps-exps": {"type": _int_range, "default": list(range(3, 8))},
        "scale-exps": {"type": _int_range, "default": list(range(-6, 7)),
                       "help": "k values for s = 2^k"},
        "kappa": {"type": float},
        "lam": {"type": float},
        "format": {"choices": ("text", "json", "csv"), "default": "text"},
        "out": {"help": "output path (default: stdout)"},
    }
    parser = argparse.ArgumentParser(
        prog="restriction-lab",
        description="Sharp weighted circle-extension estimates: classifiers, "
        "certificates, and counterexample scans.",
    )
    parser.add_argument("--config", help="file of key=value defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names.split() + ["format", "out"]:
            flag = name.rstrip("!")
            p.add_argument("--" + flag, required=name.endswith("!"), **flags[flag])
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config FILE (or --config=FILE) as default flags."""
    argv = [part for token in argv for part in (
        token.split("=", 1) if token.startswith("--config=") else [token])]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    try:
        with open(path) as handle:
            lines = [(number, line) for number, line in enumerate(map(str.strip, handle), 1)
                     if line and not line.startswith("#")]
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc}")
    extra: list[str] = []
    for number, line in lines:
        key, eq, value = line.partition("=")
        if not eq:
            parser.error(f"config {path} line {number}: {line!r} is not key=value")
        flag = "--" + key.strip().replace("_", "-")
        if flag not in argv:  # explicit flags override the file
            extra.extend([flag, value.strip()])
    # config defaults go right after the subcommand token; argparse reports a missing one
    for i, token in enumerate(argv):
        if token in _COMMANDS:
            return argv[: i + 1] + extra + argv[i + 1 :]
    return argv


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with `--flag -value` written `--flag=-value`, which argparse reads as a value also
    where it is not a plain negative number (-1/3, -1..1); -h and --help stay flags."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if token[:1] == "-" and token[1:2] not in ("-", "h") and flag.startswith("--") and (
                "=" not in flag and flag != "--help"):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def run(argv: list[str]) -> int:
    """Dispatch a CLI invocation; never raises on user input."""
    parser = _build_parser()
    try:
        argv = _join_negative_values(_apply_config(parser, list(argv)))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on argument errors and 0 on --help
        return 0 if exc.code in (0, None) else 1

    try:
        return _COMMANDS[args.command][1](args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return 2
    except (DomainError, ConfigurationError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: an exact value inside its interval that no float holds
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
