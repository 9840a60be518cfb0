"""Exact extended-rational exponent arithmetic and boundedness-region classifiers.

Every exponent (alpha, beta, gamma, r, q, ...) is an :class:`ExtScalar`: an
exact rational extended with a single point at infinity.  The classifiers in
this module decide membership in the sharp boundedness regions for the
weighted circle-extension operators with weights (1+|x|)^a (1+|y|)^b and
(1+|x|+|y|)^g.  All comparisons are exact; no floating point enters any
decision, because the strict-versus-nonstrict distinctions at the region
boundaries are precisely what is being decided.

The paper's two weight families are ``"separable"``, (1+|x|)^alpha
(1+|y|)^beta, and ``"radial"``, (1+|x|+|y|)^gamma.  :func:`weight_exponents`
is the one place that maps a family to its exponents; every entry point that
takes a ``kind`` parses it there.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "ExtScalar",
    "INF",
    "DomainError",
    "conjugate_exponent",
    "inv_ratio",
    "inv_conjugate",
    "inv_conjugate_ratio",
    "to_fraction",
    "scaled",
    "weight_exponents",
    "SeparableParams",
    "RadialParams",
    "Verdict",
    "classify_unweighted",
    "classify_separable",
    "classify_radial",
    "riesz_diagram",
    "DiagramRow",
]

ScalarLike = Union["ExtScalar", Fraction, int, str]


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's stated domain."""


class ExtScalar:
    """Exact nonnegative-capable rational extended with a unique +infinity.

    Stored as a reduced numerator over a positive denominator; infinity, the
    single value ``INF``, as 1/0.  Comparison is a total order with infinity
    maximal.  Values may be negative; the nonnegativity constraints of the
    domain types are enforced by the parameter classes, not here.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: ScalarLike = 0):
        if isinstance(value, (int, Fraction)):
            self._num, self._den = value.as_integer_ratio()
        elif isinstance(value, ExtScalar):
            self._num, self._den = value._num, value._den
        elif isinstance(value, str):
            frac = _parse_fraction(value)
            self._num, self._den = (1, 0) if frac is None else frac.as_integer_ratio()
        else:
            raise TypeError(f"cannot build ExtScalar from {type(value).__name__}")

    @classmethod
    def _wrap(cls, frac: Fraction | None) -> "ExtScalar":
        obj = object.__new__(cls)
        obj._num, obj._den = (1, 0) if frac is None else frac.as_integer_ratio()
        return obj

    @classmethod
    def coerce(cls, value: ScalarLike) -> "ExtScalar":
        return value if isinstance(value, ExtScalar) else cls(value)

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

    def _frac(self) -> Fraction | None:
        # the value as a Fraction, None for infinity
        return None if self._den == 0 else Fraction(self._num, self._den)

    # -- product (partial where genuinely ambiguous: 0 * inf) --

    def __mul__(self, other: ScalarLike) -> "ExtScalar":
        a, b = self._frac(), ExtScalar.coerce(other)._frac()
        if a is None or b is None:
            fin = b if a is None else a
            if fin is not None and fin == 0:
                raise DomainError("0 * infinity is undefined")
            if fin is not None and fin < 0:
                raise DomainError("negative * infinity not supported")
            return INF
        return ExtScalar._wrap(a * b)

    __rmul__ = __mul__

    # -- total order with infinity maximal --

    def _compare(op):
        # finite values by one cross-multiplication; infinity (True) beats finite
        def compare(self, other: ScalarLike) -> bool:
            o = other if type(other) is ExtScalar else ExtScalar(other)
            if self._den == 0 or o._den == 0:
                return op(self._den == 0, o._den == 0)
            return op(self._num * o._den, o._num * self._den)
        return compare

    _equal = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)
    del _compare

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ExtScalar, Fraction, int, str)):
            return NotImplemented
        return self._equal(other)

    def __hash__(self) -> int:
        return hash(self._frac())

    def __float__(self) -> float:
        return float("inf") if self._den == 0 else self._num / self._den

    def __str__(self) -> str:
        if self._den == 0:
            return "inf"
        return str(self._num) if self._den == 1 else f"{self._num}/{self._den}"

    def __repr__(self) -> str:
        return f"ExtScalar({str(self)!r})"


def _parse_fraction(text: str) -> Fraction | None:
    t = text.strip()
    if t in ("inf", "infinity", "oo"):
        return None
    if "/" in t:
        num, _, den = t.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(t))


INF = ExtScalar._wrap(None)


def conjugate_exponent(r: ScalarLike) -> ExtScalar:
    """Holder conjugate r/(r-1), with conjugate(1) = inf and conjugate(inf) = 1."""
    r = ExtScalar.coerce(r)
    if r < 1:
        raise DomainError(f"conjugate exponent needs r >= 1, got {r}")
    num, den = inv_conjugate_ratio(r)  # r' = den/num
    return INF if num == 0 else ExtScalar(Fraction(den, num))


def inv_ratio(x: ExtScalar) -> tuple[int, int]:
    """1/x as an integer pair (numerator, positive denominator); 1/inf = 0/1.

    x = 0 raises DomainError: its reciprocal, infinity, has no such pair.
    """
    if x.is_infinite:
        return 0, 1
    num, den = x.as_integer_ratio()
    if num == 0:
        raise DomainError("infinity has no Fraction value")  # 1/0
    return (den, num) if num > 0 else (-den, -num)


def inv_conjugate_ratio(r: ExtScalar) -> tuple[int, int]:
    """1/r' = 1 - 1/r as an integer pair; 1/1' = 0 and 1/inf' = 1."""
    num, den = inv_ratio(r)
    return den - num, den


def inv_conjugate(r: ExtScalar) -> Fraction:
    """1/r' = 1 - 1/r in exact arithmetic; total for r >= 1 (1/1' = 0, 1/inf' = 1)."""
    return Fraction(*inv_conjugate_ratio(r))


def to_fraction(x: ScalarLike) -> Fraction:
    """The exact Fraction value of a finite scalar; infinity raises DomainError."""
    return x if type(x) is Fraction else ExtScalar.coerce(x).as_fraction()


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
    family's exponents are ignored.  An unknown kind or a missing or infinite
    exponent raises DomainError."""
    names = _WEIGHT_FAMILIES.get(kind)
    if names is None:
        raise DomainError(f"unknown weight kind {kind!r}")
    given = {"alpha": alpha, "beta": beta, "gamma": gamma}
    missing = [name for name in names if given[name] is None]
    if missing:
        raise DomainError(f"missing required exact parameters: {', '.join(missing)}")
    for name in names:  # only a string or an ExtScalar can be infinite
        if isinstance(given[name], (str, ExtScalar)) and ExtScalar(given[name]).is_infinite:
            raise DomainError(f"{name} must be finite")
    return {name: to_fraction(given[name]) for name in names}


# ---------------------------------------------------------------------------
# parameter tuples
# ---------------------------------------------------------------------------


def _r_and_q(r: ScalarLike, q: ScalarLike) -> tuple[ExtScalar, ExtScalar]:
    """r and q as ExtScalars; DomainError unless r lies in [1, inf] and q in (0, inf]."""
    r, q = ExtScalar.coerce(r), ExtScalar.coerce(q)
    if r < 1:
        raise DomainError("r must lie in [1, inf]")
    if q <= 0:
        raise DomainError("q must lie in (0, inf]")
    return r, q


@dataclass(frozen=True, slots=True)
class SeparableParams:
    """Arguments of the separable-weight extension estimate: L^r -> L^q with
    weight exponents (alpha, beta)."""

    alpha: ExtScalar
    beta: ExtScalar
    r: ExtScalar
    q: ExtScalar

    def __init__(self, alpha: ScalarLike, beta: ScalarLike, r: ScalarLike, q: ScalarLike):
        alpha = ExtScalar.coerce(alpha)
        beta = ExtScalar.coerce(beta)
        if alpha.is_infinite or beta.is_infinite or alpha < 0 or beta < 0:
            raise DomainError("weight exponents must be finite and >= 0")
        r, q = _r_and_q(r, q)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, slots=True)
class RadialParams:
    """Arguments of the radial-weight extension estimate (exponent gamma)."""

    gamma: ExtScalar
    r: ExtScalar
    q: ExtScalar

    def __init__(self, gamma: ScalarLike, r: ScalarLike, q: ScalarLike):
        gamma = ExtScalar.coerce(gamma)
        if gamma.is_infinite or gamma < 0:
            raise DomainError("gamma must be finite and >= 0")
        r, q = _r_and_q(r, q)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "q", q)


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


def classify_unweighted(r: ScalarLike, q: ScalarLike) -> Verdict:
    """Sharp unweighted region: bounded iff q = inf, or q >= 3r' and q > 4.

    The equality case q = 3r' is tagged ``fz-endpoint``.
    """
    r, q = _r_and_q(r, q)
    if q.is_infinite:
        return _bounded("q-infinite")
    qf = q.as_fraction()
    inv_rc = inv_conjugate(r)  # 1/r', zero when r = 1
    # q >= 3r'  <=>  3/q <= 1/r' in total arithmetic (r = 1 forces q = inf).
    if 3 / qf > inv_rc:
        return _unbounded("q-below-3r-conjugate")
    if qf <= 4:
        return _unbounded("q-at-most-4")
    if 3 / qf == inv_rc:
        return _bounded("fz-endpoint")
    return _bounded("fz-interior")


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
    tag so the colored regions of the diagrams are reconstructible.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be >= 2")
    exps = [ExtScalar(v) for v in weight_exponents(kind, **weights).values()]  # not per cell
    rows: list[DiagramRow] = []
    for i in range(grid_n + 1):
        inv_r = Fraction(i, grid_n)
        r = INF if inv_r == 0 else ExtScalar(1 / inv_r)
        for j in range(1, grid_n + 1):
            inv_q = Fraction(j, grid_n)
            q = ExtScalar(1 / inv_q)
            if kind == "separable":
                verdict = classify_separable(SeparableParams(*exps, r, q))
            else:
                verdict = classify_radial(RadialParams(*exps, r, q))
            rows.append(DiagramRow(inv_r, inv_q, verdict))
    return rows
