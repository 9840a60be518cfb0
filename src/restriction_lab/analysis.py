"""Bessel J0, its extrema, and one-dimensional oscillatory integrals.

The extension of the constant density on the circle is 2*pi*J0(|p|), so J0
and the table of its positive local extrema z_j (with |J0(z_j)| ~ j^{-1/2})
drive the constant-density divergence experiments.  The decaying-cosine
kernel K(kappa, lambda) = int_0^inf (1+r)^{-kappa} cos(lambda r) dr and the
Fresnel-type constant C(kappa) = int_0^inf rho^{-kappa} cos(rho) d(rho)
drive the dual and L2-endpoint experiments; their small-lambda law
K ~ C(kappa) * lambda^{kappa-1} is an acceptance target, so K is computed
directly and never through C(kappa).

K and the decaying Hankel transform H(delta, s) each take a convergent series for
an argument up to 2 (K its incomplete-gamma series, H its modified-Bessel series)
wherever its two terms do not cancel past one guard, and a quadrature elsewhere;
one front end, ``_batch``, checks their arguments and routes each sample.
Measured against mpmath, K's series is within 7e-14 and H's within 5e-14.  Both
quadratures and C(kappa) are one trapezoid rule, ``_trapezoid``, on a positive,
non-oscillatory integrand: a contour rotation turns K into a Laplace-type integral,
and H and C are Euler-type integrals of K_nu and Gamma.  At a fixed step on a
per-sample window the rule converges geometrically (Trefethen and Weideman, SIAM
Rev. 56 (2014) 385-458); measured against mpmath, K's is within 6e-16, H's within
1.4e-15 and C within 3e-16.  Every Gauss-Legendre rule in the package comes from
``_gl``.

J0 and J1: Bessel's integral below x = 17, one 32-node folded midpoint sum within
5e-16 of them; the Hankel expansion from 17 on, one fixed-degree polynomial in 1/x^2
within 1e-15 of them.  Both stay within 2e-15 of scipy.special.j0/j1 through x = 1e7.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "bessel_j0",
    "j0_extrema",
    "j0_zeros",
    "ExtremaTable",
    "cosine_weight_kernel",
    "cosine_weight_kernel_many",
    "fresnel_constant",
    "hankel_decay_transform",
    "hankel_decay_transform_many",
]

_ASYMP_CUT = 17.0
# values per batch chunk (Bessel's integral, the trapezoid rule's rows, the series of
# K and H): keeps each temporary at 256 KiB, cache-sized, whatever the batch
_CHUNK_NODES = 2**15


# ---------------------------------------------------------------------------
# J0 and J1 evaluation
# ---------------------------------------------------------------------------

# sin((k + 1/2) pi/64), k < 32: the nodes of the 128-point midpoint rule for Bessel's
# integral over a full period, folded by theta -> pi - theta and theta -> theta + pi
_BESSEL_NODES = np.sin((np.arange(32) + 0.5) * (math.pi / 64))


def _hankel_coefficients(nu: int) -> tuple[list[float], list[float]]:
    """The Hankel expansion's P and Q coefficients (-1)^m a_{2m}(nu) and (-1)^m a_{2m+1}(nu),
    m < 12, with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2)/(8j): each the quotient of two
    exact integer products, which int / int rounds once."""
    num, den, signed = 1, 1, [1.0]
    for k in range(1, 24):
        num, den = num * (4 * nu * nu - (2 * k - 1) ** 2), den * 8 * k
        signed.append(num / den if k % 4 < 2 else -num / den)
    return signed[0::2], signed[1::2]


_HANKEL_COEFFICIENTS = {nu: _hankel_coefficients(nu) for nu in (0, 1)}


def _hankel_pq(x: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Hankel expansion sums P_nu, Q_nu (DLMF 10.17(i)) for x >= _ASYMP_CUT.

    P = sum_m (-1)^m a_{2m}(nu) t^m and Q = (1/x) sum_m (-1)^m a_{2m+1}(nu) t^m, t = 1/x^2,
    m < 12, each a fixed-degree Horner sum, so every point costs the same.  The terms fall
    for k up to about 2x, and the first left out, a_24(nu)/x^24, is 1.5e-15 at x = 17 and
    falls like x^-24.  Measured within 1e-15 of 40-digit mpmath on [17, 200] (3.7e-16 for
    J0, 5.9e-16 for J1).
    """
    p_coef, q_coef = _HANKEL_COEFFICIENTS[nu]
    inv = 1.0 / x
    t = inv * inv  # not 1 / (x * x): x * x overflows past 1.3e154
    p, q = p_coef[-1] * t, q_coef[-1] * t
    for cp, cq in zip(p_coef[-2:0:-1], q_coef[-2:0:-1]):
        p += cp
        p *= t
        q += cq
        q *= t
    p += p_coef[0]
    q += q_coef[0]
    return p, q * inv


def _bessel_integral(x: np.ndarray, nu: int) -> np.ndarray:
    """J_nu(x) = (1/pi) int_0^pi cos(nu theta - x sin theta) d theta by the folded midpoint
    rule J0 = mean_k cos(x s_k), J1 = mean_k s_k sin(x s_k), s_k the _BESSEL_NODES; on this
    periodic entire integrand its error, about 2 |J_128(x)|, is below 1e-90 for x < 17."""
    out, rows = np.empty_like(x), _CHUNK_NODES // _BESSEL_NODES.size
    for start in range(0, x.size, rows):
        phase = np.multiply.outer(x[start : start + rows], _BESSEL_NODES)
        terms = np.cos(phase) if nu == 0 else _BESSEL_NODES * np.sin(phase)
        out[start : start + rows] = terms.mean(axis=1)
    return out


def _eval_tiered(x: np.ndarray, nu: int) -> np.ndarray:
    """J0 (nu=0) or J1 (nu=1) at nonnegative x: Bessel's integral below _ASYMP_CUT, else Hankel."""
    x = np.asarray(x, dtype=float)
    out, low = np.empty_like(x), x < _ASYMP_CUT
    out[low] = _bessel_integral(x[low], nu)
    xs = x[~low]
    p, q = _hankel_pq(xs, nu)
    omega = xs - (2 * nu + 1) * math.pi / 4
    out[~low] = np.sqrt(2 / (math.pi * xs)) * (p * np.cos(omega) - q * np.sin(omega))
    return out


def _j0(x) -> np.ndarray:
    return _eval_tiered(np.abs(np.asarray(x, dtype=float)), 0)


def _j1(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sign(x) * _eval_tiered(np.abs(x), 1)


def bessel_j0(x: float) -> float:
    """J0(x) for finite x: within 5e-16 of J0 for |x| < 17 (Bessel's integral), and
    within 2e-15 of scipy.special.j0 for |x| <= 1e7 (both reduce x - pi/4 in double,
    so both are up to 2e-13 from J0 near 1e7)."""
    if not math.isfinite(x):
        raise ValueError("bessel_j0 needs finite x")
    return float(_j0(np.array([x]))[0])


# ---------------------------------------------------------------------------
# extrema and zeros
# ---------------------------------------------------------------------------


def _bisect_roots(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized bisection; f(lo) and f(hi) must have opposite signs and f acts
    point by point.  A bracket whose midpoint is one of its ends is final, and every
    halving of a finite float bracket shrinks it, so the loop ends by itself."""
    out, live, flo = np.empty_like(lo), np.arange(lo.size), f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        out[live[done]] = mid[done]
        live, lo, hi, flo, mid = (a[~done] for a in (live, lo, hi, flo, mid))
        if not live.size:
            return out
        fmid = f(mid)
        take_left = (flo <= 0) != (fmid <= 0)
        hi = np.where(take_left, mid, hi)
        lo, flo = np.where(take_left, lo, mid), np.where(take_left, flo, fmid)


def _first_roots(f, df, n: int, what: str) -> np.ndarray:
    """First n positive roots of f = J0 or J1: the k-th is the only root in
    ((k - 1/2) pi, (k + 1/2) pi) once the ends of every such bracket differ in sign
    (Sturm comparison; see the README), which is checked first.  Newton steps from k pi
    (f' = df(x, f(x))) keep a sign-change bracket, then bisection narrows it to the bits
    plain bisection of that bracket gives."""
    if n < 1:
        raise ValueError("need n >= 1")
    edges = (np.arange(n + 1) + 0.5) * math.pi
    neg = f(edges) <= 0
    if np.any(same := neg[:-1] == neg[1:]):
        raise NumericalError(f"{what} bracket k = {np.argmax(same) + 1}: f has one sign "
                             f"at both ends of ((k - 1/2) pi, (k + 1/2) pi)")
    lo, hi, lo_neg = edges[:-1], edges[1:], neg[:-1]
    x = np.arange(1, n + 1) * math.pi
    for _ in range(4):
        fx = f(x)
        left = (fx <= 0) != lo_neg  # the sign change lies in [lo, x]
        lo, hi = np.where(left, lo, x), np.where(left, x, hi)
        step = x - fx / df(x, fx)
        x = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    a, b = x - 4 * np.spacing(x), x + 4 * np.spacing(x)
    tight = (f(a) <= 0) != (f(b) <= 0)
    return _bisect_roots(f, np.where(tight, a, lo), np.where(tight, b, hi))


def _dj0(x: np.ndarray, j0: np.ndarray) -> np.ndarray:
    return -_j1(x)


def _dj1(x: np.ndarray, j1: np.ndarray) -> np.ndarray:
    return _j0(x) - j1 / x


@dataclass(frozen=True)
class ExtremaTable:
    """First n positive local extrema of J0: abscissae z_j and values J0(z_j).

    Invariants: z strictly increasing; every z_j is a sign-change-bracketed
    root of J0' narrowed to adjacent floats; the envelope j^{1/2} |J0(z_j)|
    stays >= 0.4 for every stored j.
    """

    z: np.ndarray
    values: np.ndarray

    def envelope_margin(self) -> float:
        j = np.arange(1, len(self.z) + 1)
        return float(np.min(np.sqrt(j) * np.abs(self.values)))

    def validate(self) -> None:
        if not np.all(np.diff(self.z) > 0):
            raise NumericalError("extrema abscissae not strictly increasing")
        # |J1'| = |J0| at a J1 zero, so a root one ulp off leaves ulp(z) |J0(z)|;
        # measured <= 1.00 over 10^5 extrema, >= 7.0 for a root 8 ulp off
        resid = np.abs(_j1(self.z)) / (np.spacing(self.z) * np.abs(self.values))
        if np.any(resid > 2.0):
            raise NumericalError(f"extrema residual {resid.max():.3g} ulp(z) |J0(z)| > 2")
        if self.envelope_margin() < 0.4:
            raise NumericalError("extrema envelope fell below 0.4")


def j0_extrema(n: int) -> ExtremaTable:
    """First n positive local extrema of J0 (the positive roots of J0').

    The j-th is the root of J1 in ((j - 1/2) pi, (j + 1/2) pi), a bracket whose ends
    are checked to differ in sign, narrowed by bracketed Newton then bisection to the
    bits of plain bisection; NumericalError names a bracket that fails the check.
    """
    z = _first_roots(_j1, _dj1, n, "extrema")
    table = ExtremaTable(z=z, values=_j0(z))
    table.validate()
    return table


def j0_zeros(n: int) -> np.ndarray:
    """First n positive zeros of J0, on the extrema's brackets and refined like them."""
    return _first_roots(_j0, _dj0, n, "zeros")


# ---------------------------------------------------------------------------
# quadrature: Gauss-Legendre rules and the trapezoid rule
# ---------------------------------------------------------------------------


@functools.cache
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only (shared)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for stacked panels [a_i, b_i]."""
    x, w = _gl(n)
    mid = 0.5 * (a + b)[..., None]
    half = 0.5 * (b - a)[..., None]
    return mid + half * x, half * w


# the trapezoid rule's step h, a dyadic fraction so that every node k h is exact.  On the
# real line it errs by about e^{-2 pi d / h} for an integrand analytic in |Im x| < d; at
# the narrowest peak here, H's at s = 20 (width about s^{-1/2}), |T_h - T_2h| is 2e-14 H
_STEP = 3 / 32
# each window ends where the integrand's decaying factor has fallen by e^{-_CUT}
_CUT = 50.0


def _trapezoid(integrand: Callable, lo: np.ndarray, hi: np.ndarray,
               context: Callable[[int], str]) -> np.ndarray:
    """The trapezoid rule T_h, h = _STEP, for int integrand(i, x) dx over [lo_i, hi_i].

    Sample i's nodes are the multiples of h from an even multiple at or below lo_i to an
    even multiple at or above hi_i; ``integrand(idx, x)`` gives the integrand of the
    samples ``idx`` (a column) at their nodes x, one row each.  Rows are grouped by their
    own node count, never padded, and chunked under _CHUNK_NODES; each row is summed by
    itself, so no value depends on the batch.  T_2h is every other node of the same
    sum, so the check costs nothing: NumericalError naming ``context(i)`` of the worst
    sample and its residual when |T_h - T_2h| > 1e-9 T_h.
    """
    first = 2 * np.floor(lo / (2 * _STEP))
    count = (2 * np.ceil(hi / (2 * _STEP)) - first).astype(int) + 1
    out = np.empty(count.shape)
    for n in np.unique(count):
        sel = np.flatnonzero(count == n)
        rows = max(1, _CHUNK_NODES // n)
        for start in range(0, sel.size, rows):
            idx = sel[start : start + rows]
            f = integrand(idx[:, None], (first[idx, None] + np.arange(n)) * _STEP)
            even = f[:, ::2].sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])
            fine = _STEP * (even + f[:, 1::2].sum(axis=1))
            resid = np.abs(fine - 2 * _STEP * even)
            if np.any(resid > 1e-9 * fine):  # not resid / fine: K is 0 at kappa = 5e-324
                worst = int(np.argmax(resid / fine))
                raise NumericalError(
                    f"trapezoid rule did not converge in {context(idx[worst])}: "
                    f"relative residual {resid[worst] / fine[worst]:.3e} > tolerance 1e-09"
                )
            out[idx] = fine
    return out


# ---------------------------------------------------------------------------
# decaying-cosine kernel, Fresnel-type constant and Hankel transform
# ---------------------------------------------------------------------------


def _take(a, idx):
    return a[idx] if np.ndim(a) else a


def _batch(series: Callable, quadrature: Callable, exponent, name: str, lo: float,
           hi: float, x, x_name: str, x_min: float, x_max: float,
           exp_min: float = 0.0) -> np.ndarray:
    """A transform at every (exponent, x) of a broadcast batch: ``series(exponent, x)`` ->
    (values, held) in chunks of _CHUNK_NODES, and ``quadrature(exponent, x)`` where the
    series does not hold, so each sample's route and value depend on its own arguments
    alone.  ValueError naming the argument unless the exponent lies in (lo, hi), at
    least exp_min, and every x in [x_min, x_max], where the error bounds hold.  A scalar
    exponent stays 0-d, so that its arithmetic stays scalar."""
    exponent = np.asarray(exponent, dtype=float)
    if not np.all((lo < exponent) & (exponent < hi)):
        raise ValueError(f"{name} must lie in ({lo:g},{hi:g})")
    if np.any(exponent < exp_min):
        raise ValueError(f"{name} = {float(np.min(exponent))!r} is below {exp_min:g}, the "
                         f"smallest {name} its error bound covers")
    x = np.asarray(x, dtype=float)
    if x.size and not (x_min <= x.min() and x.max() <= x_max):  # a nan fails too
        if not np.all((0 < x) & (x < np.inf)):
            raise ValueError(f"{x_name} must be positive and finite")
        if np.any(x > x_max):
            raise ValueError(f"{x_name} = {float(np.max(x))!r} is above {x_max:g}, "
                             f"the largest {x_name} its error bound covers")
        raise ValueError(f"{x_name} = {float(np.min(x))!r} is below {x_min:g}, the smallest "
                         f"{x_name} its error bound covers")
    shape = np.broadcast_shapes(exponent.shape, x.shape)
    if exponent.ndim:
        exponent = np.broadcast_to(exponent, shape).reshape(-1)
    x = np.broadcast_to(x, shape).reshape(-1)
    out, rest = np.empty_like(x), []
    for start in range(0, x.size, _CHUNK_NODES):
        part = slice(start, start + _CHUNK_NODES)
        out[part], held = series(_take(exponent, part), x[part])
        rest.append(start + np.flatnonzero(~held))
    if rest and (rest := np.concatenate(rest)).size:
        out[rest] = quadrature(_take(exponent, rest), x[rest])
    return out.reshape(shape)


# the series of K and H: terms k < 13 (the first left out is below 2^-62 of the leading
# term at lambda = 2 or s = 2 for every exponent), kept for lambda or s <= 2 wherever
# the leading term is at most 2^7 times the value
_SERIES_TERMS = 13
_SERIES_LAM = 2.0
_SERIES_GUARD = 2.0**7
_gamma = np.vectorize(math.gamma, otypes=[float])


def _kernel_series(kap, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K by its series, where that value holds): lambda <= _SERIES_LAM and
    F = Gamma(1-kappa) lambda^{kappa-1} / |K| <= _SERIES_GUARD.  Where lambda + t rounds
    to t = pi kappa/2, K is lead sin(t) - c_0 bit for bit: rounding away forces
    lambda <= ulp(t)/2 <= 2^-53; every |c_{M+1}/c_M| < 1/2; so each Horner step's
    c_{M+1} lambda^2 is under half an ulp of c_M and rounds back to it.  Only the other
    lambda sum the series and, for a scalar kappa, take a sine of their own."""
    t = 0.5 * math.pi * kap
    arg = lam + t
    full = np.flatnonzero(arg != t)
    k, lam2 = _take(kap, full), lam[full] * lam[full]
    coef = [1.0 / (1.0 - k)]
    for m in range(1, _SERIES_TERMS):
        coef.append(-coef[-1] / ((2 * m - k) * (2 * m + 1 - k)))
    poly = coef[-1]
    for c in coef[-2::-1]:
        poly = poly * lam2 + c
    gamma = math.gamma(1.0 - kap) if np.ndim(kap) == 0 else _gamma(1.0 - kap)
    lead = gamma * lam**kap / lam  # not lam^(kappa - 1): kappa - 1 would be rounded
    sine = np.sin(arg if np.ndim(kap) else t)  # a kappa per lambda keeps a sine each
    value = lead * sine - 1.0 / (1.0 - kap)
    value[full] = lead[full] * (sine[full] if np.ndim(kap) else np.sin(arg[full])) - poly
    return value, (lam <= _SERIES_LAM) & (lead / _SERIES_GUARD <= np.abs(value))


def _kernel_quadrature(kap, lam: np.ndarray) -> np.ndarray:
    """K by ``_trapezoid`` after rotating r -> i t: the positive integral of
    hypot(1, t)^{-kappa} sin(kappa arctan t) e^{-lambda t} dt in x = ln t, outside
    [lo, ln(_CUT/lambda)] under e^{-_CUT} of K.  Below lo the integrand is under kappa t^2
    and, for small lambda, under sin(pi kappa/2) t^{-kappa}, whose mass up to
    lambda^{-1} e^{-(_CUT+3)/(1-kappa)} is e^{-_CUT-3} Gamma(2-kappa)^{-1} of K's.  Not
    cos(arctan t)^kappa for hypot(1, t)^{-kappa}: it collapses for t past 1e17."""
    def integrand(idx, x):
        t, k = np.exp(x), _take(kap, idx)
        return t * np.hypot(1.0, t) ** -k * np.sin(k * np.arctan(t)) * np.exp(-lam[idx] * t)

    lo = np.maximum(-1.0 - 0.5 * _CUT - np.log(np.maximum(lam, 1.0)),
                    -np.log(lam) - (_CUT + 3.0) / (1.0 - kap))
    return _trapezoid(integrand, lo, np.log(_CUT / lam), lambda i: (f"cosine_weight_kernel(kappa="
                      f"{float(np.take(kap, i))!r}, lambda={float(lam[i])!r})"))


def cosine_weight_kernel_many(kappa, lams: np.ndarray) -> np.ndarray:
    """Vectorized K(kappa, lambda) = int_0^inf (1+r)^{-kappa} cos(lambda r) dr.

    Its closed form Re e^{-i lambda} (-i lambda)^{kappa-1} Gamma(1-kappa, -i lambda),
    with gamma(a, z) = z^a sum_n (-z)^n / (n! (a+n)) (DLMF 8.7.1) and e^{-i lambda}
    folded in term by term, is the convergent series

      K = Gamma(1-kappa) lambda^{kappa-1} sin(lambda + pi kappa/2) - sum_M c_M lambda^{2M},
      c_0 = 1/(1-kappa),  c_M = -c_{M-1} / ((2M - kappa)(2M + 1 - kappa)),

    summed to M = 12, except where lambda + pi kappa/2 rounds to pi kappa/2: there the
    sum is c_0 and the sine sin(pi kappa/2) bit for bit (``_kernel_series``), which
    nearly halves the cost of criterion 10's 403,200 lambda, 81 % of them that small:
    7-8 ms for all.  It is taken for lambda <= 2 wherever the cancellation factor
    F = Gamma(1-kappa) lambda^{kappa-1} / |K| is at most 2^7; every other lambda (above
    2, or where the two terms cancel, as near kappa = 1 or for kappa below about 0.005)
    takes the quadrature, ``_kernel_quadrature``.  Each lambda's route and value depend
    on its own (kappa, lambda) alone, never on the batch.  ``kappa`` broadcasts against
    ``lams``; kappa in [1e-300, 1), lambda in [1e-300, 100] (any other argument raises:
    below 1e-300, lambda^{kappa-1} overflows in the series and _CUT/lambda in the
    quadrature, and a kappa there leaves K subnormal or 0, outside the relative bound).

    Relative error against the closed form (mpmath, kappa - 1 exact): the series' is
    about (1-7) F u, u = 2^-53, so <= 1e-13 under the guard, measured <= 7e-14 for
    kappa in [1e-3, 0.99999] and lambda in [1e-300, 2], <= 1e-14 at kappa = 5/9.  The
    quadrature's is <= 1e-14 on the whole domain, measured <= 5.6e-16 for kappa in
    [1e-5, 0.99999] and lambda in [1e-300, 100] (and <= 3e-16 at kappa = 1e-100, 1e-300);
    its step check never read above 5e-16.  Both routes return K > 0.
    """
    return _batch(_kernel_series, _kernel_quadrature, kappa, "kappa", 0, 1, lams, "lambda",
                  1e-300, 100.0, exp_min=1e-300)


def cosine_weight_kernel(kappa: float, lam: float) -> float:
    """K(kappa, lambda) for scalar arguments; see cosine_weight_kernel_many."""
    return float(cosine_weight_kernel_many(kappa, lam))


def fresnel_constant(kappa: float) -> float:
    """C(kappa) = int_0^inf rho^{-kappa} cos(rho) d(rho) > 0 for 0 < kappa < 1.

    C = Gamma(1-kappa) sin(pi kappa/2) = sin(pi kappa/2) Gamma(2-kappa) / (1-kappa), with
    Euler's integral Gamma(2-kappa) = int exp((2-kappa) x - e^x) dx summed by
    ``_trapezoid`` over x in [-_CUT, ln _CUT], never by math.gamma, so the small-lambda
    law of K still compares two independent computations.  Measured within 4e-16 of
    40-digit mpmath for kappa in [1e-5, 0.99999].
    """
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0,1)")
    euler = _trapezoid(lambda idx, x: np.exp((2.0 - kappa) * x - np.exp(x)), np.array([-_CUT]),
                       np.array([math.log(_CUT)]), lambda i: f"fresnel_constant(kappa={kappa!r})")
    return math.sin(0.5 * math.pi * kappa) * float(euler[0]) / (1.0 - kappa)


# zeta(k) - 1 for odd k = 3..27, from 40-digit mpmath, each rounded once
_ZETA_TAIL = (0.2020569031595943, 0.03692775514336993, 0.008349277381922827,
              0.0020083928260822143, 0.0004941886041194645, 0.00012271334757848915,
              3.058823630702049e-05, 7.637197637899763e-06, 1.908212716553939e-06,
              4.769329867878064e-07, 1.1921992596531106e-07, 2.980350351465228e-08,
              7.45071178983543e-09)
_EULER_GAMMA = 0.5772156649015329


def _gamma_ratio(a):
    """Gamma(1+a)/Gamma(1-a) for 0 < a < 1/2 from the odd series (DLMF 5.7.3)

      ln Gamma(1+a) - ln Gamma(1-a) = -2 gamma a - 2 sum_{odd k>=3} zeta(k) a^k/k.

    With zeta(k) = 1 + (zeta(k) - 1), the 1-part sums to -2 (atanh a - a), whose exp is
    (1-a)/(1+a) e^{2a} exactly; the rest falls like (a/2)^k and stops at k = 27 (the next
    term is below 2^-60).  Measured within 3.5 u of mpmath at 4,000 random a."""
    a2, tail = a * a, 0.0
    for k, z in zip(range(27, 1, -2), _ZETA_TAIL[::-1]):
        tail = tail * a2 + z / k
    return (1.0 - a) / (1.0 + a) * np.exp(2.0 * (1.0 - _EULER_GAMMA) * a - 2.0 * a * a2 * tail)


def _hankel_series(delta, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H by its series, where that value holds): s <= _SERIES_LAM and F = (the first of
    its two terms) / |H| <= _SERIES_GUARD.  H = (pi/a) (first - p_high), with
    first = Gamma(1+a)/Gamma(1-a) (2/s)^{2a} p_low and p_-+ = sum_k z^k / (k! (1-+a)_k):
    pi/a stays out of the difference, and 2a = 2 - delta is exact."""
    a, z = 1.0 - 0.5 * delta, 0.25 * s * s
    p_low = p_high = 1.0  # nested from the last term in
    for k in range(_SERIES_TERMS - 1, 0, -1):
        p_low, p_high = 1.0 + z / (k * (k - a)) * p_low, 1.0 + z / (k * (k + a)) * p_high
    first = _gamma_ratio(a) * (2.0 / s) ** (2.0 - delta) * p_low
    inner = first - p_high
    return math.pi / a * inner, (s <= _SERIES_LAM) & (first / _SERIES_GUARD <= np.abs(inner))


def _hankel_quadrature(delta, s: np.ndarray) -> np.ndarray:
    """H by ``_trapezoid``: tau = t + ln(s/2) in K_nu(s) = (1/2) int e^{-s cosh t - nu t} dt,
    nu = delta/2 - 1, gives the positive integral

      H = pi (s/2)^{delta-2} / Gamma(delta/2) int exp(-nu tau - e^tau - (s/2)^2 e^{-tau}) d tau

    over ln(s/2) +- arccosh(1 + _CUT/s).  There -nu tau stays small where the mass lies; in
    t, nu t (140 at s = 1e-185) carried a rounding error of up to 1e-14 into every node."""
    nu, half = 0.5 * delta - 1.0, 0.5 * s

    def integrand(idx, tau):
        root = half[idx] * np.exp(-0.5 * tau)  # (s/2) e^{-tau/2}: (s/2)^2 underflows
        return np.exp(-_take(nu, idx) * tau - np.exp(tau) - root * root)

    mid, width = np.log(half), np.arccosh(1.0 + _CUT / s)
    integral = _trapezoid(integrand, mid - width, mid + width, lambda i: (
        f"hankel_decay_transform(delta={float(np.take(delta, i))!r}, s={float(s[i])!r})"))
    return math.pi * half ** (delta - 2.0) / _gamma(0.5 * delta) * integral


def hankel_decay_transform_many(delta_exp, s_vals: np.ndarray) -> np.ndarray:
    """Vectorized H(delta, s) = 2 pi int_0^inf r (1+r^2)^{-delta/2} J0(rs) dr.

    Its closed form 2 pi s^nu K_nu(s) / (2^nu Gamma(nu+1)), nu = delta/2 - 1 (DLMF
    10.22(v)), with K_nu = K_a, a = 1 - delta/2, by the series of I_{-a} - I_a (DLMF
    10.25.2, 10.27.4), is the convergent series, z = s^2/4,

      H = pi Gamma(a) [4^a s^{-2a} sum_k z^k/(k! Gamma(k+1-a)) - sum_k z^k/(k! Gamma(k+1+a))],

    summed to k = 12.  It is taken for s <= 2 wherever F = (its first term) / |H| is at
    most 2^7; every other s (above 2, or where the terms cancel, toward s = 2 and near
    delta = 2) takes the quadrature, ``_hankel_quadrature``.  Each s's route and value
    depend on its own (delta, s) alone.  ``delta_exp`` broadcasts against ``s_vals``;
    delta in (1, 2), s in [1e-300, 20] (any other s raises; below, H ~ s^{delta-2} overflows).

    Relative error against the closed form (mpmath): the series' is about (1-5) F u,
    u = 2^-53, so <= 1e-13; measured <= 5e-14 at 6,000 random (delta, s) in
    [1.0005, 1.9999] x [0.2, 2] and at 150 more delta on s in [1e-300, 2], and <= 1.5e-14
    at delta = 1.4199.  There math.gamma's Gamma(1+a)/Gamma(1-a) errs most (9.3 u), so
    the ratio is ``_gamma_ratio``'s odd series, within 3.5 u.  The quadrature's is
    <= 1e-14 on the whole domain, measured <= 1.4e-15 for delta in [1.001, 1.9999] and
    s in [1e-300, 20]; its step check read at most 2e-14, at s = 20.  Both routes return
    H > 0.
    """
    return _batch(_hankel_series, _hankel_quadrature, delta_exp, "delta_exp", 1, 2, s_vals,
                  "s", 1e-300, 20.0)


def hankel_decay_transform(delta_exp: float, s: float) -> float:
    """H(delta, s) for scalar arguments; see hankel_decay_transform_many."""
    return float(hankel_decay_transform_many(delta_exp, s))
