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
Measured against mpmath, K's series is within 7e-14 and H's within 1.4e-13
(7e-14 at random delta); each docstring states its quadrature's bounds.  Both
quadratures and C(kappa) share one driver, ``_transform_many``: Gauss-Legendre
panels on a geometric head from the oscillator's first zero z1 down to the
sample's scale x, depth clip(ceil(ln z1 - ln x) + 1, 1, 8 + ceil(26/decay)) with
decay 1 - kappa for K and 2 - delta for H (16 for C); then shared zero-to-zero
tail panels, summed by iterated averaging, applied as one fixed weight table on
the partial sums.  Every Gauss-Legendre rule in the package comes from ``_gl``.

J0 and J1: Bessel's integral below x = 17, one 32-node folded midpoint sum within
5e-16 of them; the Hankel expansion, truncated per point, from 17 on.  Both stay
within 2e-15 of scipy.special.j0/j1 through x = 1e7.
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
# values per batch chunk (Bessel's integral, the root scan grid, the tail or one head
# depth of a transform, the series of K and H): keeps each temporary at 256 KiB,
# cache-sized, whatever the batch
_CHUNK_NODES = 2**15


# ---------------------------------------------------------------------------
# J0 and J1 evaluation
# ---------------------------------------------------------------------------

# sin((k + 1/2) pi/64), k < 32: the nodes of the 128-point midpoint rule for Bessel's
# integral over a full period, folded by theta -> pi - theta and theta -> theta + pi
_BESSEL_NODES = np.sin((np.arange(32) + 0.5) * (math.pi / 64))


def _hankel_pq(x: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Hankel expansion sums P_nu, Q_nu for x >= _ASYMP_CUT.

    P = sum_m (-1)^m a_{2m}(nu)/x^{2m}, Q = sum_m (-1)^m a_{2m+1}(nu)/x^{2m+1}
    with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2)/(8 j); each point stops at its own
    first term below 1e-18 or at the 23rd; measured within 4e-16 of mpmath on [17, 40].
    """
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    four_nu2 = 4 * nu * nu
    for k in range(1, 24):
        term = term * (four_nu2 - (2 * k - 1) ** 2) / (8 * k) / x
        signed = term if (k // 2) % 2 == 0 else -term
        if k % 2 == 1:
            q += signed
        else:
            p += signed
        term[np.abs(term) < 1e-18] = 0.0  # per point: a zeroed term stays zero
        if not term.any():
            break
    return p, q


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


def _bisect_roots(f, lo: np.ndarray, hi: np.ndarray, iters: int = 64) -> np.ndarray:
    """Vectorized bisection; f(lo) and f(hi) must have opposite signs and f acts
    point by point, so a bracket whose midpoint is one of its ends is final."""
    out, live, flo = np.empty_like(lo), np.arange(lo.size), f(lo)
    for _ in range(iters):
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
    out[live] = 0.5 * (lo + hi)
    return out


def _scan_grid(stop: float):
    """np.arange(0.5, stop, pi/8) bit for bit (it fills 0.5 + i ((0.5 + pi/8) - 0.5)), in
    blocks of _CHUNK_NODES + 1 points, each starting at the last point of the one before."""
    size, step = math.ceil((stop - 0.5) / (math.pi / 8)), (0.5 + math.pi / 8) - 0.5
    for start in range(0, size - 1, _CHUNK_NODES):
        yield 0.5 + np.arange(start, min(start + _CHUNK_NODES + 1, size)) * step


def _first_roots(f, df, n: int, what: str) -> np.ndarray:
    """First n positive roots of f: sign changes on a pi/8-spaced grid scanned in blocks
    until n are found (memory O(n)), narrowed by Newton steps (f' = df(x, f(x))) that keep
    a sign-change bracket, then bisected to the bits plain bisection of that bracket gives."""
    if n < 1:
        raise ValueError("need n >= 1")
    # the n-th root of J0 or J0' lies within pi/4 of n pi; scan a margin beyond it
    stop = (n + 2) * math.pi
    brackets, found = [], 0
    for grid in _scan_grid(stop):
        vals = f(grid)
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][: n - found]
        brackets.append((grid[flips], grid[flips + 1], vals[flips] <= 0))
        found += flips.size
        if found == n:
            break
    else:
        raise NumericalError(f"found only {found} {what} below {stop:.1f}")
    lo, hi, lo_neg = (np.concatenate(a) for a in zip(*brackets))
    x = 0.5 * (lo + hi)
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

    Roots are located as sign changes of the evaluated derivative on a
    pi/8-spaced scan grid and narrowed, by bracketed Newton then bisection, to
    the bits of plain bisection; no asymptotic guess is used without a bracket.
    """
    z = _first_roots(_j1, _dj1, n, "extrema")
    table = ExtremaTable(z=z, values=_j0(z))
    table.validate()
    return table


def j0_zeros(n: int) -> np.ndarray:
    """First n positive zeros of J0, bracketed and refined like the extrema."""
    return _first_roots(_j0, _dj0, n, "zeros")


# ---------------------------------------------------------------------------
# quadrature: Gauss-Legendre panels, head/tail driver, acceleration
# ---------------------------------------------------------------------------


def _accelerate_rows(
    terms: np.ndarray, rtol: float, context: Callable[[int], str]
) -> np.ndarray:
    """Sum alternating series rows by iterated averaging of partial sums.

    ``terms`` has shape (batch, n); each row is the signed tail of an
    alternating series with smoothly decaying envelope.  Repeated averaging
    of the partial-sum sequence converges geometrically for such rows; it is
    linear, so it is applied as the fixed ``_averaging_weights`` functionals,
    by einsum: a BLAS matmul's summation order depends on the batch size.
    Raises :class:`NumericalError` when the last averaging step still moves
    the answer by more than ``rtol`` relative to the result scale; the
    message names the worst row's residual, the tolerance and
    ``context(row)``, which describes that row's arguments.
    """
    sums = np.cumsum(terms, axis=1)
    result, last = np.einsum("bj,jc->cb", sums, _averaging_weights(terms.shape[1]))
    move = np.abs(result - last)
    scale = np.maximum(np.abs(result), np.max(np.abs(terms), axis=1) * 1e-6)
    floor = np.maximum(scale, 1e-300)
    if np.any(move > rtol * floor):
        resid = move / floor
        worst = int(np.argmax(resid))
        raise NumericalError(
            f"averaging acceleration did not converge in {context(worst)}: "
            f"relative residual {resid[worst]:.3e} > tolerance {rtol:.0e}"
        )
    return result


@functools.cache
def _averaging_weights(n: int) -> np.ndarray:
    """(n, 2) weights on n partial sums S_j, read-only: n - 1 averagings leave
    sum_j C(n-1, j) S_j / 2^{n-1}, and one averaging earlier the last value
    was sum_{j>=1} C(n-2, j-1) S_j / 2^{n-2}."""
    final = [math.comb(n - 1, j) for j in range(n)]
    earlier = [0] + [2 * math.comb(n - 2, j) for j in range(n - 1)]
    return _frozen(np.array([final, earlier], dtype=float).T / 2.0 ** (n - 1))[0]


@functools.cache
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only (shared)."""
    return _frozen(*np.polynomial.legendre.leggauss(n))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _panel_nodes(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for stacked panels [a_i, b_i]."""
    x, w = _gl(n)
    mid = 0.5 * (a + b)[..., None]
    half = 0.5 * (b - a)[..., None]
    return mid + half * x, half * w


_GL_PANEL = 12


@functools.cache
def _zeros(osc: str) -> np.ndarray:
    """First zeros of the oscillator: 49 of cos, 41 of J0 (48 and 40 tail panels)."""
    return _frozen((np.arange(49) + 0.5) * math.pi if osc == "cos" else j0_zeros(41))[0]


def _panel_table(osc: str, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nodes, weights and the oscillator at the nodes, each (panels, _GL_PANEL)."""
    nodes, w = _panel_nodes(a, b, _GL_PANEL)
    return _frozen(nodes, w, np.cos(nodes) if osc == "cos" else _j0(nodes))


@functools.cache
def _tail_panels(osc: str) -> tuple[np.ndarray, ...]:
    """Zero-to-zero tail panels of the oscillator, "cos" or "j0"."""
    return _panel_table(osc, _zeros(osc)[:-1], _zeros(osc)[1:])


@functools.cache
def _head_panels(osc: str, depth: int) -> tuple[np.ndarray, ...]:
    """Ratio-e panels from the oscillator's first zero z1 down to z1 e^{-depth},
    plus the floor panel [0, z1 e^{-depth}]."""
    edges = _zeros(osc)[0] * np.exp(-np.arange(depth + 1.0))
    return _panel_table(osc, np.concatenate(([0.0], edges[1:][::-1])), edges[::-1])


def _cap(decay) -> np.ndarray:
    return 8 + np.ceil(26.0 / np.asarray(decay)).astype(int)


def _take(a, idx):
    return a[idx] if np.ndim(a) else a


def _transform_many(
    osc: str, x: np.ndarray, decay, env: Callable, rtol: float, context: Callable
) -> np.ndarray:
    """int_0^inf env(u) osc(u) du for each sample of scale x > 0.

    ``env(nodes, idx)`` is the envelope of samples ``idx`` at the nodes,
    shape (len(idx),) + nodes.shape.  The shared tail panels are summed at
    ``rtol`` for row chunks of the samples; a failure names ``context(i)`` of
    the worst sample i.  The head, grouped by depth, follows each sample down
    clip(ceil(ln z1 - ln x) + 1, 1, 8 + ceil(26/decay)) e-foldings: the
    envelope's mass vanishes at 0 like u^decay, so below the cap the floor
    panel holds less than e^{-26} of it.  ``decay`` is one float or one per
    sample, so samples of different exponents share one call; each sample's
    cap is its own.  Every reduction runs row by row, so results do not
    depend on batching.
    """
    out = np.empty_like(x)
    depths = np.ceil(math.log(_zeros(osc)[0]) - np.log(x)).astype(int) + 1
    depths = np.clip(depths, 1, _cap(decay))
    tail_u, tail_w, tail_osc = _tail_panels(osc)
    rows = _CHUNK_NODES // tail_u.size
    for start in range(0, x.size, rows):
        idx = np.arange(start, min(start + rows, x.size))
        tail_terms = np.einsum("bjk,jk->bj", env(tail_u, idx) * tail_osc, tail_w)
        out[idx] = _accelerate_rows(tail_terms, rtol, lambda i: context(idx[i]))
    for depth in np.unique(depths):
        sel = np.flatnonzero(depths == depth)
        head_u, head_w, head_osc = _head_panels(osc, int(depth))
        rows = max(1, _CHUNK_NODES // head_u.size)
        for start in range(0, sel.size, rows):
            idx = sel[start : start + rows]
            out[idx] += np.einsum("bjk,jk->b", env(head_u, idx) * head_osc, head_w)
    return out


# ---------------------------------------------------------------------------
# decaying-cosine kernel, Fresnel-type constant and Hankel transform
# ---------------------------------------------------------------------------


def _rows(a: np.ndarray, idx) -> np.ndarray:
    """Per-sample exponents of samples ``idx``, shaped to meet (rows, panels,
    nodes); a scalar (0-d) exponent as it is, so its arithmetic is unchanged."""
    return a[idx][:, None, None] if np.ndim(a) else a


def _batch(series: Callable, quadrature: Callable, exponent, name: str, lo: float,
           hi: float, x, x_name: str, x_min: float, x_max: float) -> np.ndarray:
    """A transform at every (exponent, x) of a broadcast batch: ``series(exponent, x)`` ->
    (values, held) in chunks of _CHUNK_NODES, and ``quadrature(exponent, x)`` where the
    series does not hold, so each sample's route and value depend on its own arguments
    alone.  ValueError naming the argument unless the exponent lies in (lo, hi) and every
    x in [x_min, x_max], where the error bounds hold.  A scalar exponent stays 0-d, so
    that its arithmetic stays scalar."""
    exponent = np.asarray(exponent, dtype=float)
    if not np.all((lo < exponent) & (exponent < hi)):
        raise ValueError(f"{name} must lie in ({lo:g},{hi:g})")
    x = np.asarray(x, dtype=float)
    if not np.all((x_min <= x) & (x <= x_max)):
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
    out, held = np.empty_like(x), np.empty(x.shape, dtype=bool)
    for start in range(0, x.size, _CHUNK_NODES):
        part = slice(start, start + _CHUNK_NODES)
        out[part], held[part] = series(_take(exponent, part), x[part])
    rest = np.flatnonzero(~held)
    if rest.size:  # else its tables, J0's zeros among them, are not built
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
    F = Gamma(1-kappa) lambda^{kappa-1} / |K| <= _SERIES_GUARD."""
    coef = [1.0 / (1.0 - kap)]
    for m in range(1, _SERIES_TERMS):
        coef.append(-coef[-1] / ((2 * m - kap) * (2 * m + 1 - kap)))
    lam2, poly = lam * lam, coef[-1]
    for c in coef[-2::-1]:
        poly = poly * lam2 + c
    lead = _gamma(1.0 - kap) * lam**kap / lam  # not lam^(kappa - 1): kappa - 1 would be rounded
    value = lead * np.sin(lam + 0.5 * math.pi * kap) - poly
    return value, (lam <= _SERIES_LAM) & (lead / _SERIES_GUARD <= np.abs(value))


def _kernel_quadrature(kap, lam: np.ndarray) -> np.ndarray:
    """K by ``_transform_many``, written in rho = lambda r: (1/lambda) int_0^inf
    (1+rho/lambda)^{-kappa} cos(rho) d(rho) over the cosine's half-period panels; the
    head [0, pi/2] follows lambda down at most 8 + ceil(26/(1-kappa)) e-foldings."""
    def env(rho, idx):
        return (1.0 + rho / lam[idx][:, None, None]) ** -_rows(kap, idx)

    return _transform_many("cos", lam, 1.0 - kap, env, 1e-9, lambda i: (
        f"cosine_weight_kernel(kappa={float(np.take(kap, i))!r}, lambda={float(lam[i])!r})")) / lam


def cosine_weight_kernel_many(kappa, lams: np.ndarray) -> np.ndarray:
    """Vectorized K(kappa, lambda) = int_0^inf (1+r)^{-kappa} cos(lambda r) dr.

    Its closed form Re e^{-i lambda} (-i lambda)^{kappa-1} Gamma(1-kappa, -i lambda),
    with gamma(a, z) = z^a sum_n (-z)^n / (n! (a+n)) (DLMF 8.7.1) and e^{-i lambda}
    folded in term by term, is the convergent series

      K = Gamma(1-kappa) lambda^{kappa-1} sin(lambda + pi kappa/2) - sum_M c_M lambda^{2M},
      c_0 = 1/(1-kappa),  c_M = -c_{M-1} / ((2M - kappa)(2M + 1 - kappa)),

    summed to M = 12.  It is taken for lambda <= 2 wherever the cancellation factor
    F = Gamma(1-kappa) lambda^{kappa-1} / |K| is at most 2^7; every other lambda (above
    2, or where the two terms cancel, as near kappa = 1 or for kappa below about 0.005)
    takes the quadrature, ``_kernel_quadrature``.  Each lambda's route and value depend
    on its own (kappa, lambda) alone, never on the batch.  ``kappa`` broadcasts against
    ``lams``; kappa in (0, 1), lambda in [1e-300, 100] (any other lambda raises: below
    1e-300, rho/lambda overflows in the quadrature and lambda^{kappa-1} in the series).

    Relative error against the closed form (mpmath, kappa - 1 exact): the series' is
    about (1-7) F u, u = 2^-53, so <= 1e-13 under the guard, measured <= 7e-14 for
    kappa in [1e-3, 0.99999] and lambda in [1e-300, 2], <= 1e-14 at kappa = 5/9.  The
    quadrature's, where it is taken: <= 1e-13 for kappa in [0.3, 0.99999] and lambda in
    [1e-20, 10], <= 1e-11 below, and <= 1e-10 for kappa down to 1e-3; growing about like
    lambda above 10, it is <= 3e-12 (<= 1e-9 for kappa down to 1e-3) up to lambda = 100.
    """
    return _batch(_kernel_series, _kernel_quadrature, kappa, "kappa", 0, 1, lams, "lambda",
                  1e-300, 100.0)


def cosine_weight_kernel(kappa: float, lam: float) -> float:
    """K(kappa, lambda) for scalar arguments; see cosine_weight_kernel_many."""
    return float(cosine_weight_kernel_many(kappa, lam))


def fresnel_constant(kappa: float) -> float:
    """C(kappa) = int_0^inf rho^{-kappa} cos(rho) d(rho) > 0 for 0 < kappa < 1.

    The cosine transform of rho^{-kappa} by ``_transform_many``, 16 e-foldings
    deep.  On the floor panel [0, e], where Gauss-Legendre misses the singular
    envelope and cos = 1 + O(e^2), the envelope is its mean e^{-kappa}/(1-kappa).
    Relative error <= 1e-11 for kappa >= 1e-3, <= 1e-8 below.
    """
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0,1)")
    floor = _zeros("cos")[0] * math.exp(-16)  # the floor panel is [0, floor]
    return float(_transform_many(
        "cos",
        np.array([floor * math.exp(1.5)]),  # the scale x: depth ceil(ln z1 - ln x) + 1 = 16
        1.0 - kappa,
        lambda rho, idx: np.where(rho < floor, floor**-kappa / (1 - kappa), rho**-kappa)[None],
        1e-9,
        lambda i: f"fresnel_constant(kappa={kappa!r})",
    )[0])


def _hankel_series(delta, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H by its series, where that value holds): s <= _SERIES_LAM and F = (the first of
    its two terms) / |H| <= _SERIES_GUARD.  H = (pi/a) (first - p_high), with
    first = Gamma(1+a)/Gamma(1-a) (2/s)^{2a} p_low and p_-+ = sum_k z^k / (k! (1-+a)_k):
    pi/a stays out of the difference, and 2a = 2 - delta is exact."""
    a, z = 1.0 - 0.5 * delta, 0.25 * s * s
    p_low = p_high = 1.0  # nested from the last term in
    for k in range(_SERIES_TERMS - 1, 0, -1):
        p_low, p_high = 1.0 + z / (k * (k - a)) * p_low, 1.0 + z / (k * (k + a)) * p_high
    first = _gamma(1.0 + a) / _gamma(1.0 - a) * (2.0 / s) ** (2.0 - delta) * p_low
    inner = first - p_high
    return math.pi / a * inner, (s <= _SERIES_LAM) & (first / _SERIES_GUARD <= np.abs(inner))


def _hankel_quadrature(delta, s: np.ndarray) -> np.ndarray:
    """H by ``_transform_many``, written in u = r s: 2 pi s^{delta-2} int_0^inf
    u (s^2 + u^2)^{-delta/2} J0(u) du over J0's zero-to-zero panels.  The envelope is
    (u/h) h^{1-delta}, h = hypot(u, s), which cannot overflow for a normal s; the head
    [0, j_1] follows s down at most 8 + ceil(26/(2-delta)) e-foldings."""
    power = 1.0 - delta

    def env(u, idx):
        h = np.hypot(u, s[idx][:, None, None])
        return (u / h) * h ** _rows(power, idx)

    integral = _transform_many("j0", s, 2.0 - delta, env, 1e-7, lambda i: (
        f"hankel_decay_transform(delta={float(np.take(delta, i))!r}, s={float(s[i])!r})"))
    return 2 * math.pi * s ** (delta - 2) * integral


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

    Relative error against the closed form (mpmath): the series' is about (1-10) F u,
    u = 2^-53, most of it from math.gamma's Gamma(1+a)/Gamma(1-a), so <= 1.5e-13;
    measured <= 7e-14 at 290 random delta in [1.0005, 1.9999] and s in [1e-300, 2], and
    1.35e-13 where that ratio errs most.  The quadrature's: <= 5e-13 for delta in
    [1.001, 1.999] and s in [1e-12, 5], <= 1e-11 down to s = 1e-300, and where H is
    exponentially small <= 1e-10 at s = 10, 1e-6 at s = 20.
    """
    return _batch(_hankel_series, _hankel_quadrature, delta_exp, "delta_exp", 1, 2, s_vals,
                  "s", 1e-300, 20.0)


def hankel_decay_transform(delta_exp: float, s: float) -> float:
    """H(delta, s) for scalar arguments; see hankel_decay_transform_many."""
    return float(hankel_decay_transform_many(delta_exp, s))
