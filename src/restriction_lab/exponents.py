"""Exact extended-rational exponent arithmetic and boundedness-region classifiers.

Every exponent (alpha, beta, gamma, r, q, ...) is an :class:`ExtScalar`: an
exact rational extended with a single point at infinity.  The classifiers in
this module decide membership in the sharp boundedness regions for the
weighted circle-extension operators with weights (1+|x|)^a (1+|y|)^b and
(1+|x|+|y|)^g.  All comparisons are exact; no floating point enters any
decision, because the strict-versus-nonstrict distinctions at the region
boundaries are precisely what is being decided.  :func:`exact_in` is the
single home of the range checks: every entry point that takes r, q, p or a
weight decides there, first, whether the value lies in its interval.

The paper's two weight families are ``"separable"``, (1+|x|)^alpha
(1+|y|)^beta, and ``"radial"``, (1+|x|+|y|)^gamma.  :func:`weight_exponents`
is the one place that maps a family to its exponents; every entry point that
takes a ``kind`` parses it there, and refuses a negative or infinite one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConfigurationError

__all__ = [
    "ExtScalar",
    "INF",
    "DomainError",
    "conjugate_exponent",
    "exact_in",
    "ext_ratio",
    "inv_ratio",
    "inv_conjugate",
    "inv_conjugate_ratio",
    "finite_ratio",
    "scaled",
    "weight_exponents",
    "SeparableParams",
    "RadialParams",
    "Verdict",
    "classify_separable",
    "classify_radial",
    "riesz_diagram",
    "DiagramRow",
]

ScalarLike = Union["ExtScalar", Fraction, int, str]


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's stated domain."""


class ExtScalar:
    """Exact rational extended with a unique +infinity.

    The reduced integer pair (numerator, positive denominator), with infinity, the
    value ``INF``, as 1/0, is the only representation the decisions use: order (total,
    infinity maximal), equality and product are integer arithmetic on pairs, and an int
    operand costs one integer product, with no ExtScalar built for it.  Every computed
    value comes from :func:`ext_ratio`, the one pair constructor; a Fraction is built
    only by as_fraction() and hash.  Values may be negative; the nonnegativity
    constraints of the domain types are enforced by the parameter classes, not here.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: ScalarLike):
        self._num, self._den = _ratio(value)

    @classmethod
    def coerce(cls, value: ScalarLike) -> "ExtScalar":
        return value if type(value) is ExtScalar or isinstance(value, ExtScalar) else cls(value)

    @property
    def is_infinite(self) -> bool:
        return self._den == 0

    @property
    def is_finite(self) -> bool:
        return self._den != 0

    def as_fraction(self) -> Fraction:
        return Fraction(*self.as_integer_ratio())

    def as_integer_ratio(self) -> tuple[int, int]:
        """(numerator, positive denominator) of a finite value."""
        if self._den == 0:
            raise DomainError("infinity has no Fraction value")
        return self._num, self._den

    # -- product (partial where genuinely ambiguous: 0 * inf) --

    def __mul__(self, other: ScalarLike) -> "ExtScalar":
        num, den = _ratio(other)
        if self._den == 0 or den == 0:
            num *= self._num  # inf's numerator is 1: the finite factor's numerator
            if num == 0:
                raise DomainError("0 * infinity is undefined")
            if num < 0:
                raise DomainError("negative * infinity not supported")
            return ext_ratio(1, 0)
        return ext_ratio(self._num * num, self._den * den)

    __rmul__ = __mul__

    # -- total order with infinity maximal --

    def _compare(op):
        # an int by one product; other values by one cross-multiplication of reduced
        # pairs, where infinity (True) beats finite
        def compare(self, other: ScalarLike) -> bool:
            if type(other) is int:
                return op(self._num, other * self._den) if self._den else op(1, 0)
            num, den = (other._num, other._den) if type(other) is ExtScalar else _ratio(other)
            if self._den == 0 or den == 0:
                return op(self._den == 0, den == 0)
            return op(self._num * den, num * self._den)
        return compare

    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)
    del _compare

    def __eq__(self, other: object) -> bool:
        # reduced pairs are canonical: equal values have equal pairs
        if type(other) is ExtScalar:
            return self._num == other._num and self._den == other._den
        if type(other) is int:
            return self._den == 1 and self._num == other
        if not isinstance(other, (ExtScalar, Fraction, int, str)):
            return NotImplemented
        return (self._num, self._den) == _ratio(other)

    def __hash__(self) -> int:
        return hash(None if self._den == 0 else self.as_fraction())

    def __float__(self) -> float:
        return float("inf") if self._den == 0 else self._num / self._den

    def __str__(self) -> str:
        if self._den == 0:
            return "inf"
        return str(self._num) if self._den == 1 else f"{self._num}/{self._den}"

    def __repr__(self) -> str:
        return f"ExtScalar({str(self)!r})"


def ext_ratio(num: int, den: int) -> ExtScalar:
    """num/den as an ExtScalar from integers, reduced by their gcd with the denominator
    made positive; den = 0 (a zero reciprocal) is inf.  The one pair constructor."""
    x = object.__new__(ExtScalar)
    if den:
        g = math.gcd(num, den)
        x._num, x._den = (num // g, den // g) if den > 0 else (-num // g, -den // g)
    else:
        x._num, x._den = 1, 0
    return x


def _ratio(x: ScalarLike) -> tuple[int, int]:
    """x's reduced integer pair, (1, 0) for inf; exact types are tested first."""
    if type(x) is ExtScalar or isinstance(x, ExtScalar):
        return x._num, x._den
    if type(x) is int or type(x) is Fraction or isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    if not isinstance(x, str):
        raise TypeError(f"cannot build ExtScalar from {type(x).__name__}")
    t = x.strip()
    if t in ("inf", "infinity", "oo"):
        return 1, 0
    num, slash, den = t.partition("/")
    num, den = int(num), (int(den) if slash else 1)
    if den == 0:
        raise ZeroDivisionError(f"{x!r} has a zero denominator")
    x = ext_ratio(num, den)
    return x._num, x._den


INF = ext_ratio(1, 0)


@functools.cache
def _bounds(interval: str) -> tuple[int, int, int, int, int, int]:
    """(lo_num, lo_den, lo_min, hi_num, hi_den, hi_min) of an interval written like
    ``"[0, inf)"``: a finite lower end and hi_den = 0 for inf.  x - lo and hi - x are
    compared as integers, so an end's min is 0 where it is closed, 1 where it is open."""
    lo, hi = (_ratio(end) for end in interval[1:-1].split(","))
    return (*lo, interval[0] == "(", *hi, interval[-1] == ")")


def exact_in(x: ScalarLike, name: str, interval: str) -> ExtScalar | Fraction:
    """x, decided exactly to lie in ``interval`` (``"[1, inf]"``, ``"(0, inf)"``,
    ``"[1, 2]"``, ...), else DomainError "<name> must lie in <interval>".

    x comes back as an ExtScalar when the interval holds inf, else as a Fraction
    (an argument of that type as itself); a None x is named as missing.  x is decided by
    its integer pair against bounds parsed once per interval string.
    """
    lo_num, lo_den, lo_min, hi_num, hi_den, hi_min = _bounds(interval)
    if type(x) is Fraction or type(x) is int:
        num, den = x.as_integer_ratio()
    elif x is None:
        raise DomainError(f"missing required exact parameters: {name}")
    else:
        num, den = _ratio(x)
    if den == 0:  # inf lies only in an interval closed at inf
        inside = hi_den == 0 and not hi_min
    else:  # x - lo and hi - x times the (positive) denominators
        inside = num * lo_den - lo_num * den >= lo_min and (
            hi_den == 0 or hi_num * den - num * hi_den >= hi_min)
    if not inside:
        raise DomainError(f"{name} must lie in {interval}")
    if hi_den == 0 and not hi_min:  # the interval holds inf
        return x if type(x) is ExtScalar else ext_ratio(num, den)
    return x if type(x) is Fraction else Fraction(num, den)


def float_of(x: ExtScalar | Fraction, name: str) -> float:
    """The float of an exact x, else DomainError naming x where no float holds it."""
    try:
        value = float(x)
    except OverflowError:
        raise DomainError(f"{name} is past the largest float") from None
    if value == 0 and x != 0:
        raise DomainError(f"{name} is not 0 but rounds to 0.0 as a float")
    return value


def finite_ratio(x: ScalarLike) -> tuple[int, int]:
    """The reduced integer pair of a finite scalar; infinity raises DomainError."""
    num, den = _ratio(x)
    if den == 0:
        raise DomainError("infinity has no Fraction value")
    return num, den


def conjugate_exponent(r: ScalarLike) -> ExtScalar:
    """Holder conjugate r/(r-1), with conjugate(1) = inf and conjugate(inf) = 1."""
    num, den = inv_conjugate_ratio(exact_in(r, "r", "[1, inf]"))  # r' = den/num
    return ext_ratio(den, num)


def inv_ratio(x: ScalarLike) -> tuple[int, int]:
    """1/x as an integer pair (numerator, positive denominator); 1/inf = 0/1.

    x = 0 raises DomainError: 0 has no reciprocal.
    """
    num, den = (x._num, x._den) if type(x) is ExtScalar else _ratio(x)
    if den == 0:
        return 0, 1
    if num == 0:
        raise DomainError("0 has no reciprocal")
    return (den, num) if num > 0 else (-den, -num)


def inv_conjugate_ratio(r: ExtScalar | Fraction) -> tuple[int, int]:
    """1/r' = 1 - 1/r as an integer pair; 1/1' = 0 and 1/inf' = 1."""
    num, den = inv_ratio(r)
    return den - num, den


def inv_conjugate(r: ExtScalar | Fraction) -> Fraction:
    """1/r' = 1 - 1/r in exact arithmetic; total for r >= 1 (1/1' = 0, 1/inf' = 1)."""
    return Fraction(*inv_conjugate_ratio(r))


def scaled(k: int, *ratios: tuple[int, int]) -> tuple[int, ...]:
    """(L, x1 L, x2 L, ...) for xi = num/den given as integer pairs and L = k times
    the lcm of the denominators: linear thresholds in the xs then compare as
    integers, and k supplies the factors later halvings and thirds need."""
    big_l = k * math.lcm(*[den for _, den in ratios])
    return (big_l, *[num * (big_l // den) for num, den in ratios])


_WEIGHT_FAMILIES = {"separable": ("alpha", "beta"), "radial": ("gamma",)}


def weight_exponents(kind: str, alpha: ScalarLike | None = None, beta: ScalarLike | None = None,
                     gamma: ScalarLike | None = None) -> dict[str, Fraction]:
    """The exact exponents of weight family ``kind``, by name, in the order
    (alpha, beta) for ``"separable"`` and (gamma,) for ``"radial"``; the other
    family's exponents are ignored.  An unknown kind, a missing exponent or one
    outside [0, inf) raises DomainError."""
    names = _WEIGHT_FAMILIES.get(kind)
    if names is None:
        raise DomainError(f"unknown weight kind {kind!r}")
    given = {"alpha": alpha, "beta": beta, "gamma": gamma}
    missing = [name for name in names if given[name] is None]
    if missing:
        raise DomainError(f"missing required exact parameters: {', '.join(missing)}")
    return {name: exact_in(given[name], name, "[0, inf)") for name in names}


# ---------------------------------------------------------------------------
# parameter tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SeparableParams:
    """Arguments of the separable-weight extension estimate: L^r -> L^q with
    weight exponents (alpha, beta)."""

    alpha: Fraction
    beta: Fraction
    r: ExtScalar
    q: ExtScalar

    def __init__(self, alpha: ScalarLike, beta: ScalarLike, r: ScalarLike, q: ScalarLike):
        object.__setattr__(self, "alpha", exact_in(alpha, "alpha", "[0, inf)"))
        object.__setattr__(self, "beta", exact_in(beta, "beta", "[0, inf)"))
        object.__setattr__(self, "r", exact_in(r, "r", "[1, inf]"))
        object.__setattr__(self, "q", exact_in(q, "q", "(0, inf]"))


@dataclass(frozen=True, slots=True)
class RadialParams:
    """Arguments of the radial-weight extension estimate (exponent gamma)."""

    gamma: Fraction
    r: ExtScalar
    q: ExtScalar

    def __init__(self, gamma: ScalarLike, r: ScalarLike, q: ScalarLike):
        object.__setattr__(self, "gamma", exact_in(gamma, "gamma", "[0, inf)"))
        object.__setattr__(self, "r", exact_in(r, "r", "[1, inf]"))
        object.__setattr__(self, "q", exact_in(q, "q", "(0, inf]"))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a region classifier.

    Exactly one of ``case_tag`` (when bounded) and ``violated`` (the first
    failed condition, when unbounded) is set.
    """

    bounded: bool
    case_tag: str | None = None
    violated: str | None = None

    def __post_init__(self):
        if self.bounded and (self.case_tag is None or self.violated is not None):
            raise ValueError("bounded verdict must carry exactly a case tag")
        if not self.bounded and (self.violated is None or self.case_tag is not None):
            raise ValueError("unbounded verdict must carry exactly a violation")

    @property
    def decision(self) -> str:
        return "bounded" if self.bounded else "unbounded"

    @property
    def label(self) -> str:
        return self.case_tag if self.bounded else self.violated  # type: ignore[return-value]

    def __str__(self) -> str:
        if self.bounded:
            return f"BOUNDED case={self.case_tag}"
        return f"UNBOUNDED violated={self.violated}"


# verdicts are immutable and few: each is built once and shared
@functools.cache
def _bounded(tag: str) -> Verdict:
    return Verdict(True, case_tag=tag)


@functools.cache
def _unbounded(name: str) -> Verdict:
    return Verdict(False, violated=name)


def classify_separable(p: SeparableParams) -> Verdict:
    """Sharp boundedness region for the separable weight, all cases exact.

    Normalizes to M = max(alpha, beta), m = min(alpha, beta).  Bounded iff
    q = inf, or the constant-density condition alpha+beta > 2/q - 1/2 holds
    together with one of

      (i)   M >= 1/q and 2m > 2/q - 1/r'
      (ii)  M <  1/q and alpha+beta+m > 3/q - 1/r'
      (iii) 1 < r <= q and M > 1/q and 2m = 2/q - 1/r'
      (iv)  1 < r <= q and M < 1/q and alpha+beta+m = 3/q - 1/r'

    The case tag reports the first matching clause in the order i..iv.
    """
    if p.q.is_infinite:
        return _bounded("q-infinite")
    # alpha, beta, 1/q, 1/r' and 1 as integers over one denominator
    one, a, b, inv_q, inv_rc = scaled(
        1, p.alpha.as_integer_ratio(), p.beta.as_integer_ratio(), inv_ratio(p.q),
        inv_conjugate_ratio(p.r))
    big, small = (a, b) if a >= b else (b, a)

    if 2 * (a + b) <= 4 * inv_q - one:  # a + b <= 2/q - 1/2
        return _unbounded("constant-density")

    pair_thresh = 2 * inv_q - inv_rc  # threshold for 2*min
    triple_thresh = 3 * inv_q - inv_rc  # threshold for alpha+beta+min
    r_window = p.r > 1 and p.r <= p.q

    if big >= inv_q and 2 * small > pair_thresh:
        return _bounded("i")
    if big < inv_q and a + b + small > triple_thresh:
        return _bounded("ii")
    if r_window and big > inv_q and 2 * small == pair_thresh:
        return _bounded("iii")
    if r_window and big < inv_q and a + b + small == triple_thresh:
        return _bounded("iv")

    # Unbounded: name the first failed condition, following the necessity
    # lemmas for the Knapp example and its endpoints.
    if big > inv_q:
        if 2 * small < pair_thresh:
            return _unbounded("knapp-min-weight")
        # equality endpoint, r-window must have failed
        if p.r == 1:
            return _unbounded("endpoint-r-equals-one")
        return _unbounded("endpoint-r-greater-q")
    if big == inv_q:
        if 2 * small < pair_thresh:
            return _unbounded("knapp-min-weight")
        return _unbounded("endpoint-max-weight-at-inv-q")
    # here big < 1/q; at r = 1 (1/r' = 0) that forces a + b + min < 3/q, so the
    # equality endpoint below always has r > 1
    if a + b + small < triple_thresh:
        return _unbounded("knapp-sum-weight")
    return _unbounded("endpoint-r-greater-q")


def classify_radial(p: RadialParams) -> Verdict:
    """Sharp boundedness region for the radial weight, all cases exact.

    With T = max(3/(2q) - 1/(2r'), 2/q - 1/r'): bounded iff q = inf, or
    gamma > 2/q - 1/2 together with gamma > T, or gamma = T with
    1 < r <= q and q != r'.
    """
    if p.q.is_infinite:
        return _bounded("q-infinite")
    # gamma, 1/q, 1/r' and 1 as integers over one denominator
    one, g, inv_q, inv_rc = scaled(
        1, p.gamma.as_integer_ratio(), inv_ratio(p.q), inv_conjugate_ratio(p.r))

    if 2 * g <= 4 * inv_q - one:  # g <= 2/q - 1/2
        return _unbounded("constant-density")

    threshold2 = max(3 * inv_q - inv_rc, 4 * inv_q - 2 * inv_rc)  # 2T
    if 2 * g > threshold2:
        return _bounded("radial-strict")
    if 2 * g < threshold2:
        return _unbounded("knapp-threshold")
    # gamma sits exactly on the threshold
    if p.r == 1:
        return _unbounded("endpoint-r-equals-one")
    if p.r > p.q:
        return _unbounded("endpoint-r-greater-q")
    if inv_q == inv_rc:  # q = r'
        return _unbounded("endpoint-q-equals-r-conjugate")
    return _bounded("radial-endpoint")


# ---------------------------------------------------------------------------
# Riesz diagrams
# ---------------------------------------------------------------------------


DIAGRAM_CELL_BUDGET = 250_000  # (grid_n + 1) grid_n cells: grid_n = 499 takes about 3 s, 31 MB


@dataclass(frozen=True, slots=True)
class DiagramRow:
    inv_r: Fraction
    inv_q: Fraction
    verdict: Verdict


def riesz_diagram(
    kind: str,
    weights: dict[str, ScalarLike],
    grid_n: int,
) -> list[DiagramRow]:
    """Classify the (1/r, 1/q) grid {(i/n, j/n)} at fixed weight exponents.

    ``kind`` is ``"separable"`` (weights alpha, beta) or ``"radial"``
    (weight gamma).  1/r ranges over [0, 1] (i = 0..n, 0 meaning r = inf)
    and 1/q over (0, 1] (j = 1..n).  Rows carry the verdict with its case
    tag so the colored regions of the diagrams are reconstructible.  A grid of more than
    DIAGRAM_CELL_BUDGET cells raises ConfigurationError before any cell is classified.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be >= 2")
    if (grid_n + 1) * grid_n > DIAGRAM_CELL_BUDGET:
        raise ConfigurationError(f"grid_n={grid_n} needs {(grid_n + 1) * grid_n} cells, "
                                 f"over budget {DIAGRAM_CELL_BUDGET}")
    exps = weight_exponents(kind, **weights).values()  # not per cell
    rows: list[DiagramRow] = []
    for i in range(grid_n + 1):
        inv_r, r = Fraction(i, grid_n), ext_ratio(grid_n, i)
        for j in range(1, grid_n + 1):
            inv_q, q = Fraction(j, grid_n), ext_ratio(grid_n, j)
            if kind == "separable":
                verdict = classify_separable(SeparableParams(*exps, r, q))
            else:
                verdict = classify_radial(RadialParams(*exps, r, q))
            rows.append(DiagramRow(inv_r, inv_q, verdict))
    return rows
