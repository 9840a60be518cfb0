"""Independent exact oracle for the region classifiers, the feasibility
solvers and the predicted Knapp slopes.

Everything here is a literal transcription, on plain ``Fraction`` values,
of the inequalities stated in the docstrings of
``exponents.classify_separable``, ``exponents.classify_radial``,
``feasibility.solve_one``, ``feasibility.solve_two`` and
``experiments.predicted_exponent``, and of the constraint list of the two
interpolation propositions.  Nothing from ``restriction_lab`` is imported:
an exponent is a ``Fraction``, and infinity is ``None``.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


def parse(text: str) -> Fraction | None:
    """'p/q', an integer or 'inf' (the package's printed form) to an exponent."""
    text = text.strip()
    if text == "inf":
        return None
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def inv(x: Fraction | None) -> Fraction:
    """1/x for an exponent x > 0, with 1/inf = 0."""
    return Fraction(0) if x is None else 1 / x


def inv_conj(r: Fraction | None) -> Fraction:
    """1/r' = 1 - 1/r for r in [1, inf]."""
    return 1 - inv(r)


def _r_window(r: Fraction | None, q: Fraction | None) -> bool:
    """1 < r <= q, with inf maximal."""
    if r is None:
        return q is None
    return r > 1 and (q is None or r <= q)


def separable(alpha: Fraction, beta: Fraction, r, q) -> tuple[bool, str]:
    """(bounded, tag): the case tag i..iv or q-infinite when bounded, else
    the name of the docstring condition that failed."""
    if q is None:
        return True, "q-infinite"
    iq, irc = 1 / q, inv_conj(r)
    big, small = max(alpha, beta), min(alpha, beta)
    if not alpha + beta > 2 * iq - HALF:
        return False, "constant-density"
    window = _r_window(r, q)
    if big >= iq and 2 * small > 2 * iq - irc:
        return True, "i"
    if big < iq and alpha + beta + small > 3 * iq - irc:
        return True, "ii"
    if window and big > iq and 2 * small == 2 * iq - irc:
        return True, "iii"
    if window and big < iq and alpha + beta + small == 3 * iq - irc:
        return True, "iv"
    return False, "no-case"


def radial(gamma: Fraction, r, q) -> tuple[bool, str]:
    """(bounded, tag): radial-strict, radial-endpoint or q-infinite when
    bounded, else the name of the docstring condition that failed."""
    if q is None:
        return True, "q-infinite"
    iq, irc = 1 / q, inv_conj(r)
    if not gamma > 2 * iq - HALF:
        return False, "constant-density"
    threshold = max(Fraction(3, 2) * iq - irc / 2, 2 * iq - irc)
    if gamma > threshold:
        return True, "radial-strict"
    if gamma < threshold:
        return False, "below-threshold"
    if not _r_window(r, q):
        return False, "r-window"
    if iq == irc:
        return False, "q = r'"
    return True, "radial-endpoint"


def one_feasible(alpha: Fraction, beta: Fraction, r, q: Fraction) -> bool:
    """solve_one's iff: alpha + beta > 2/q - 1/2 and alpha + 2 beta >= 3/q - 1/r'."""
    iq = 1 / q
    return alpha + beta > 2 * iq - HALF and alpha + 2 * beta >= 3 * iq - inv_conj(r)


def two_feasible(gamma: Fraction, r, q: Fraction) -> bool:
    """solve_two's iff: gamma >= max(3/(2q) - 1/(2r'), 2/q - 1/r') and gamma > 2/q - 1/2."""
    iq, irc = 1 / q, inv_conj(r)
    return gamma >= max(Fraction(3, 2) * iq - irc / 2, 2 * iq - irc) and gamma > 2 * iq - HALF


def parse_record(record: str) -> dict[str, Fraction | None]:
    """Certificate record 'theta=1/2 q0=8 ...' to exponents by name."""
    return {k: parse(v) for k, v in (part.split("=") for part in record.split())}


def _theta_ok(c: dict) -> bool:
    return c["theta"] is not None and 0 < c["theta"] < 1


def _interpolation_violations(c: dict, r, q) -> list[str]:
    """Constraints both propositions share, for 0 < theta < 1; c holds
    theta, q0, q1, r0, r1."""
    bad = []
    theta = c["theta"]
    if c["q0"] is not None and c["q0"] < 1:
        bad.append("q0-range")
    if c["q1"] is None or c["q1"] <= 0:
        bad.append("q1-range")
    if c["r0"] is not None and c["r0"] < 1:
        bad.append("r0-range")
    if c["r1"] is not None and c["r1"] < 1:
        bad.append("r1-range")
    if (1 - theta) * inv(c["q0"]) + theta * inv(c["q1"]) != inv(q):
        bad.append("q-convexity")
    if (1 - theta) * inv(c["r0"]) + theta * inv(c["r1"]) != inv(r):
        bad.append("r-convexity")
    # (q0, r0) strictly inside the unweighted region: q0 >= 3 r0' and q0 > 4
    if 3 * inv(c["q0"]) > inv_conj(c["r0"]):
        bad.append("q0-fz-region")
    if inv(c["q0"]) >= Fraction(1, 4):
        bad.append("q0-above-4")
    if c["q0"] == c["q1"]:
        bad.append("q0-ne-q1")
    return bad


def verify_one(record: str, alpha: Fraction, beta: Fraction, r, q) -> list[str]:
    """Violated constraints of a separable certificate (empty when valid)."""
    c = parse_record(record)
    if not _theta_ok(c):
        return ["theta-range"]
    bad = _interpolation_violations(c, r, q)
    if c["r1"] is None:
        bad.append("r1-range")
    if alpha / c["theta"] != inv(c["q1"]):
        bad.append("alpha-split")
    if beta / c["theta"] < inv(c["q1"]) - inv_conj(c["r1"]) / 2:
        bad.append("beta-split")
    return bad


def verify_two(record: str, gamma: Fraction, r, q) -> list[str]:
    """Violated constraints of a radial certificate (empty when valid)."""
    c = parse_record(record)
    if not _theta_ok(c):
        return ["theta-range"]
    bad = _interpolation_violations(c, r, q)
    g1 = c["gamma1"]
    if g1 is None or c["theta"] * g1 != gamma:
        return bad + ["gamma-split"]
    iq1 = inv(c["q1"])
    if g1 < max(iq1, 2 * iq1 - inv_conj(c["r1"]), 2 * iq1 - HALF):
        bad.append("gamma1-floor")
    return bad


_LOG_FLAGS = ("none", "single", "double")


def predicted(kind: str, r, q: Fraction, alpha=None, beta=None, gamma=None) -> tuple[Fraction, str]:
    """(slope, log flag) of predicted_exponent's docstring ladder.

    separable: 1/r' + (A + B)/q, the max weight M giving A = 0 / log / -1 + Mq
    and the min weight m giving B = 0 / log / -2 + 2mq as each is >, = or <
    1/q.  radial: 1/r' + E/q with E = 0 / log / -2 + gamma q / -1 with log /
    -3 + 2 gamma q down the ladder gamma >, =, between, =, < of 2/q and 1/q.
    """
    iq, irc = 1 / q, inv_conj(r)
    logs = 0
    if kind == "separable":
        big, small = max(alpha, beta), min(alpha, beta)
        if big >= iq:
            pa = Fraction(0)
            logs += big == iq
        else:
            pa = -1 + big * q
        if small >= iq:
            pb = Fraction(0)
            logs += small == iq
        else:
            pb = -2 + 2 * small * q
        return irc + (pa + pb) * iq, _LOG_FLAGS[logs]
    if gamma > 2 * iq:
        e = Fraction(0)
    elif gamma == 2 * iq:
        e, logs = Fraction(0), 1
    elif gamma > iq:
        e = -2 + gamma * q
    elif gamma == iq:
        e, logs = Fraction(-1), 1
    else:
        e = -3 + 2 * gamma * q
    return irc + e * iq, _LOG_FLAGS[logs]
