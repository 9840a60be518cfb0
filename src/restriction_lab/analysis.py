"""Bessel J0, its extrema, and one-dimensional oscillatory integrals.

The extension of the constant density on the circle is 2*pi*J0(|p|), so J0
and the table of its positive local extrema z_j (with |J0(z_j)| ~ j^{-1/2})
drive the constant-density divergence experiments.  The decaying-cosine
kernel K(kappa, lambda) = int_0^inf (1+r)^{-kappa} cos(lambda r) dr and the
Fresnel-type constant C(kappa) = int_0^inf rho^{-kappa} cos(rho) d(rho)
drive the dual and L2-endpoint experiments; their small-lambda law
K ~ C(kappa) * lambda^{kappa-1} is an acceptance target, so K is computed
directly and never through C(kappa).

K, the decaying Hankel transform H(delta, s) and C(kappa) share one driver,
``_transform_many``: Gauss-Legendre panels on a geometric head from the
oscillator's first zero z1 down to the sample's scale x, depth
clip(ceil(ln z1 - ln x) + 1, 1, 8 + ceil(26/decay)) with decay 1 - kappa
for K and 2 - delta for H (16 for C); then shared zero-to-zero tail panels,
summed by iterated averaging, applied as one fixed weight table on the
partial sums.  A sample so small that its envelope equals its argument-free
limit at every node, exactly in floating point, is scale-free: it is one
quadrature row per distinct exponent, scaled.  K, H, their scalar forms and
the kernel table check their arguments in one front end, ``_batch``.  Every
Gauss-Legendre rule in the package comes from ``_gl``.

CosineKernelTable serves one kappa from piecewise Chebyshev interpolation
of lambda^{1-kappa} K in ln(lambda), built lazily from the direct kernel and
checked against it; only the L2-endpoint scan uses it.  The scalar kernel,
the batched direct kernel, C(kappa) and everything the dual scans, the
oscint command and acceptance criterion 6 call stay direct.

J0 evaluation: float64 power series below x = 7; precomputed local Taylor
expansions (anchors every 0.5, seeded by exact rational series sums) on
[7, 17); Hankel asymptotic expansion with optimal truncation above.
J0 and J1 stay within 1e-14 of scipy.special.j0/j1 through x = 1e7.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalError

__all__ = [
    "bessel_j0",
    "bessel_j0_deriv",
    "j0_extrema",
    "j0_zeros",
    "ExtremaTable",
    "CosineKernelTable",
    "cosine_weight_kernel",
    "cosine_weight_kernel_many",
    "fresnel_constant",
    "hankel_decay_transform",
    "hankel_decay_transform_many",
]

_SERIES_CUT = 7.0
_ASYMP_CUT = 17.0
_ANCHOR_STEP = 0.5


# ---------------------------------------------------------------------------
# J0 and J1 evaluation
# ---------------------------------------------------------------------------


def _exact_j0_j1(a: Fraction) -> tuple[float, float]:
    """J0(a), J1(a) from their 80-term series, summed exactly over one integer
    denominator each by Horner's rule and rounded by one int / int division."""
    p, d = a.numerator, a.denominator
    c = 4 * d * d  # u = a^2/4 = p^2/c
    n0 = n1 = 0
    f0 = f1 = 1  # c^{79-m} (79!/m!)^2 and c^{79-m} (79!/m!) (80!/(m+1)!)
    for m in range(79, -1, -1):
        n0, n1 = n0 * -p * p + f0, n1 * -p * p + f1
        f0, f1 = f0 * c * m * m, f1 * c * m * (m + 1)
    base = c**79 * math.factorial(79)
    return n0 / (base * math.factorial(79)), p * n1 / (2 * d * base * math.factorial(80))


def _build_anchor_table() -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of J0 about anchors 7.0, 7.5, ..., 17.0.

    Seeded by exact series values of (J0, J1) at the anchor; the remaining
    coefficients follow from the Bessel ODE x y'' + y' + x y = 0:
        c_{m+2} = -((m+1)^2 c_{m+1} + a c_m + c_{m-1}) / (a (m+2)(m+1)).
    """
    n_anchor = int(round((_ASYMP_CUT - _SERIES_CUT) / _ANCHOR_STEP)) + 1
    n_terms = 20
    anchors = _SERIES_CUT + _ANCHOR_STEP * np.arange(n_anchor)
    coeffs = np.zeros((n_anchor, n_terms))
    for i, a in enumerate(anchors):
        af = Fraction(float(a))  # anchors are exact halves, conversion is lossless
        j0a, j1a = _exact_j0_j1(af)
        c = coeffs[i]
        c[0], c[1] = j0a, -j1a
        for m in range(n_terms - 2):
            prev = c[m - 1] if m >= 1 else 0.0
            c[m + 2] = -(((m + 1) ** 2) * c[m + 1] + a * c[m] + prev) / (
                a * (m + 2) * (m + 1)
            )
    return anchors, coeffs


_ANCHORS, _ANCHOR_COEFFS = _build_anchor_table()

# factorial-based series coefficients, fixed lengths chosen for x <= 7
_J0_SERIES = np.array(
    [(-1) ** m / (math.factorial(m) ** 2) for m in range(27)]
)
_J1_SERIES = np.array(
    [(-1) ** m / (math.factorial(m) * math.factorial(m + 1)) for m in range(27)]
)


def _hankel_pq(x: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Hankel expansion sums P_nu, Q_nu for x >= _ASYMP_CUT.

    P = sum_m (-1)^m a_{2m}(nu)/x^{2m}, Q = sum_m (-1)^m a_{2m+1}(nu)/x^{2m+1}
    with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2)/(8 j); each point stops at
    its own first term below 1e-18, and at x = 17 the error is below 2e-14.
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


def _eval_tiered(x: np.ndarray, nu: int) -> np.ndarray:
    """Vectorized J0 (nu=0) or J1 (nu=1) over nonnegative x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)

    low = x < _SERIES_CUT
    mid = (~low) & (x < _ASYMP_CUT)
    high = x >= _ASYMP_CUT

    if np.any(low):
        xs = x[low]
        u = xs * xs / 4
        series = _J0_SERIES if nu == 0 else _J1_SERIES
        acc = np.full_like(xs, series[-1])
        for c in series[-2::-1]:
            acc = acc * u + c
        out[low] = acc if nu == 0 else acc * xs / 2

    if np.any(mid):
        xs = x[mid]
        idx = np.clip(
            np.round((xs - _SERIES_CUT) / _ANCHOR_STEP).astype(int),
            0,
            len(_ANCHORS) - 1,
        )
        t = xs - _ANCHORS[idx]
        table = _ANCHOR_COEFFS[idx]
        if nu == 0:
            acc = table[:, -1].copy()
            for m in range(table.shape[1] - 2, -1, -1):
                acc = acc * t + table[:, m]
        else:
            n = table.shape[1]
            acc = table[:, n - 1] * (n - 1)
            for m in range(n - 2, 0, -1):
                acc = acc * t + table[:, m] * m
            acc = -acc  # J1 = -J0'
        out[mid] = acc

    if np.any(high):
        xs = x[high]
        p, q = _hankel_pq(xs, nu)
        omega = xs - (2 * nu + 1) * math.pi / 4
        amp = np.sqrt(2 / (math.pi * xs))
        out[high] = amp * (p * np.cos(omega) - q * np.sin(omega))

    return out


def _j0(x) -> np.ndarray:
    return _eval_tiered(np.abs(np.asarray(x, dtype=float)), 0)


def _j1(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sign(x) * _eval_tiered(np.abs(x), 1)


def bessel_j0(x: float) -> float:
    """J0(x) for finite x, within 1e-14 of scipy.special.j0 for |x| <= 1e7 (both
    reduce x - pi/4 in double, so both are up to 2e-13 from J0 near 1e7)."""
    if not math.isfinite(x):
        raise ValueError("bessel_j0 needs finite x")
    return float(_j0(np.array([x]))[0])


def bessel_j0_deriv(x: float) -> float:
    """J0'(x) = -J1(x), same accuracy budget as bessel_j0."""
    if not math.isfinite(x):
        raise ValueError("bessel_j0_deriv needs finite x")
    return float(-_j1(np.array([x]))[0])


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


def _first_roots(f, df, n: int, what: str) -> np.ndarray:
    """First n positive roots of f: sign changes on a pi/8-spaced scan grid,
    narrowed by Newton steps (f' = df(x, f(x))) that keep a sign-change bracket,
    then bisected to the bits that plain bisection of the scan bracket returns."""
    if n < 1:
        raise ValueError("need n >= 1")
    # the n-th root of J0 or J0' lies within pi/4 of n pi; scan a margin beyond it
    stop = (n + 2) * math.pi
    grid = np.arange(0.5, stop, math.pi / 8)
    vals = f(grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(flips) < n:
        raise NumericalError(f"found only {len(flips)} {what} below {stop:.1f}")
    lo, hi, lo_neg = grid[flips[:n]], grid[flips[:n] + 1], vals[flips[:n]] <= 0
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

    def __len__(self) -> int:
        return len(self.z)

    def envelope_margin(self) -> float:
        j = np.arange(1, len(self.z) + 1)
        return float(np.min(np.sqrt(j) * np.abs(self.values)))

    def validate(self) -> None:
        if not np.all(np.diff(self.z) > 0):
            raise NumericalError("extrema abscissae not strictly increasing")
        # |J1'| = |J0| at a J1 zero, so a root one ulp off leaves ulp(z) |J0(z)|;
        # measured <= 1.00 over 10^5 extrema, >= 4.7 for a root 8 ulp off
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


# quadrature nodes per batch chunk of the tail or of one head depth: keeps the
# (rows, panels, nodes) temporaries at 256 KiB, cache-sized, whatever the depth
_CHUNK_NODES = 2**15


def _cap(decay) -> np.ndarray:
    return 8 + np.ceil(26.0 / np.asarray(decay)).astype(int)


# log2 of the u/x beyond which 1 + u/x rounds to u/x ("cos") and hypot(u, x) to u ("j0")
_SCALE_FREE_BITS = {"cos": 54, "j0": 27}


@functools.cache
def _scale_free_bound(osc: str, cap: int) -> float:
    """2^-bits (bits = _SCALE_FREE_BITS[osc]) times the smallest node of the head at depth
    ``cap``: an x at or below it has u/x >= 2^bits at every node (its head is capped, ~40
    short of its depth); 0.0 where that is not a normal float, as for every cap > 700."""
    bits = _SCALE_FREE_BITS[osc]
    bound = float(_head_panels(osc, cap)[0].min()) * 2.0**-bits if cap <= 700 else 0.0
    return bound if bound >= np.finfo(float).tiny else 0.0


def _take(a, idx):
    return a[idx] if np.ndim(a) else a


def _transform_many(
    osc: str, x: np.ndarray, decay, env: Callable, rtol: float, context: Callable, free=None
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
    depend on batching.  With ``free = (power, degree)``, a sample at or
    below ``_scale_free_bound(osc, cap)`` has the envelope
    x^degree u^power at every node, exactly in floating point: it is x^degree
    times one quadrature of u^power, made by this driver once per distinct
    power and named in a failure by the first such sample.
    """
    out = np.empty_like(x)
    cap = _cap(decay)
    direct = np.arange(x.size)
    if free is not None:
        power, degree = free
        caps = np.unique(cap)
        bound = np.array([_scale_free_bound(osc, int(c)) for c in caps])
        is_free = x <= bound[np.searchsorted(caps, cap)]
        at, direct = np.nonzero(is_free)[0], np.nonzero(~is_free)[0]
        if at.size:
            powers, first, row = (
                np.unique(power[at], return_index=True, return_inverse=True)
                if np.ndim(power) else (power, [0], 0)
            )
            rep = at[first]
            p = _transform_many(
                osc, x[rep], _take(decay, rep), lambda u, idx: u[None] ** _rows(powers, idx),
                rtol, lambda i: context(rep[i]),
            )
            out[at] = x[at] ** _take(degree, at) * p[row]
    depths = np.ceil(math.log(_zeros(osc)[0]) - np.log(x[direct])).astype(int) + 1
    depths = np.clip(depths, 1, _take(cap, direct))
    tail_u, tail_w, tail_osc = _tail_panels(osc)
    rows = _CHUNK_NODES // tail_u.size
    for start in range(0, direct.size, rows):
        idx = direct[start : start + rows]
        tail_terms = np.einsum("bjk,jk->bj", env(tail_u, idx) * tail_osc, tail_w)
        out[idx] = _accelerate_rows(tail_terms, rtol, lambda i: context(idx[i]))
    for depth in np.unique(depths):
        sel = direct[depths == depth]
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


def _batch(exponent, name: str, lo: float, hi: float, x, x_name: str, x_max: float):
    """(exponent, flat x, shape) of a batched transform, or ValueError naming the argument
    unless the exponent lies in (lo, hi) and every x in (0, x_max], where its error bound
    holds.  A scalar exponent stays 0-d, so that the envelope's arithmetic stays scalar."""
    exponent = np.asarray(exponent, dtype=float)
    if not np.all((lo < exponent) & (exponent < hi)):
        raise ValueError(f"{name} must lie in ({lo:g},{hi:g})")
    x = np.asarray(x, dtype=float)
    if not np.all((0 < x) & (x <= x_max)):
        if np.all((0 < x) & (x < np.inf)):
            raise ValueError(f"{x_name} = {float(np.max(x))!r} is above {x_max:g}, "
                             f"the largest {x_name} its error bound covers")
        raise ValueError(f"{x_name} must be positive and finite")
    shape = np.broadcast_shapes(exponent.shape, x.shape)
    if exponent.ndim:
        exponent = np.broadcast_to(exponent, shape).reshape(-1)
    return exponent, np.broadcast_to(x, shape).reshape(-1), shape


def cosine_weight_kernel_many(kappa, lams: np.ndarray) -> np.ndarray:
    """Vectorized K(kappa, lambda) = int_0^inf (1+r)^{-kappa} cos(lambda r) dr.

    Written in rho = lambda r: K = (1/lambda) int_0^inf (1+rho/lambda)^{-kappa}
    cos(rho) d(rho), summed by ``_transform_many`` over the cosine's
    half-period panels; the head [0, pi/2] follows lambda down at most
    8 + ceil(26/(1-kappa)) e-foldings.  For lambda <= 2^-54 times that head's
    smallest node, 1 + rho/lambda rounds to rho/lambda at every node: such a
    lambda is scale-free, K = lambda^{kappa-1} P(kappa), P the quadrature of
    rho^{-kappa}, one row per distinct kappa.  ``kappa`` broadcasts against
    ``lams``; kappa in (0, 1), lambda in (0, 100] (a larger lambda raises).  Relative error
    against Re e^{-i lambda} (-i lambda)^{kappa-1} Gamma(1-kappa, -i lambda):
    <= 1e-13 for kappa in [0.3, 0.99999] and lambda
    in [1e-20, 10], <= 1e-11 below (the floor panel's e^{-26} share), and
    <= 1e-10 for kappa down to 1e-3; growing about like lambda above 10, it is
    <= 3e-12 (<= 1e-9 for kappa down to 1e-3) up to lambda = 100.
    """
    kap, flat, shape = _batch(kappa, "kappa", 0, 1, lams, "lambda", 100.0)
    integral = _transform_many(
        "cos",
        flat,
        1.0 - kap,
        lambda rho, idx: (1.0 + rho / flat[idx][:, None, None]) ** -_rows(kap, idx),
        1e-9,
        lambda i: f"cosine_weight_kernel(kappa={float(np.take(kap, i))!r}, "
        f"lambda={float(flat[i])!r})",
        free=(-kap, kap),  # (rho/lambda)^-kappa = lambda^kappa rho^-kappa
    )
    return (integral / flat).reshape(shape)


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


def hankel_decay_transform_many(delta_exp, s_vals: np.ndarray) -> np.ndarray:
    """Vectorized H(delta, s) = 2 pi int_0^inf r (1+r^2)^{-delta/2} J0(rs) dr.

    In u = r s: H = 2 pi s^{delta-2} int_0^inf u (s^2 + u^2)^{-delta/2} J0(u) du,
    summed by ``_transform_many`` over the zero-to-zero panels of J0.  The
    envelope is (u/h) h^{1-delta}, h = hypot(u, s), which cannot overflow for
    a normal s.  The head [0, j_1] follows each s down at most
    8 + ceil(26/(2-delta)) e-foldings (the cap grows without bound as
    delta -> 2).  For s <= 2^-27 times that head's smallest node, hypot(u, s)
    equals u at every node: such an s is scale-free, its integral the
    quadrature of u^{1-delta}, one row per distinct delta, equal bit for bit
    to its per-sample row.  ``delta_exp`` broadcasts against ``s_vals``;
    delta in (1, 2), s normal and at most 20 (any other s raises).  Relative error against
    2 pi s^nu K_nu(s) / (2^nu Gamma(nu+1)), nu = delta/2 - 1: <= 5e-13 for
    delta in [1.001, 1.999] and s in [1e-12, 5], <= 1e-11 down to s = 1e-300,
    and where H is exponentially small <= 1e-10 at s = 10, 1e-6 at s = 20.
    """
    delta, flat, shape = _batch(delta_exp, "delta_exp", 1, 2, s_vals, "s", 20.0)
    if np.any(flat < np.finfo(float).tiny):  # where h^{1-delta} may overflow
        raise ValueError(f"s = {float(np.min(flat))!r} is below the smallest normal float")
    power = 1.0 - delta

    def env(u, idx):
        h = np.hypot(u, flat[idx][:, None, None])
        return (u / h) * h ** _rows(power, idx)

    integral = _transform_many(
        "j0",
        flat,
        2.0 - delta,
        env,
        1e-7,
        lambda i: f"hankel_decay_transform(delta={float(np.take(delta, i))!r}, "
        f"s={float(flat[i])!r})",
        free=(power, 0.0),  # where hypot(u, s) = u the envelope is u^(1-delta)
    )
    return (2 * math.pi * flat ** (delta - 2) * integral).reshape(shape)


def hankel_decay_transform(delta_exp: float, s: float) -> float:
    """H(delta, s) for scalar arguments; see hankel_decay_transform_many."""
    return float(hankel_decay_transform_many(delta_exp, s))


# ---------------------------------------------------------------------------
# per-kappa Chebyshev table of the cosine kernel
# ---------------------------------------------------------------------------

_PIECE_DEGREE = 14
_PIECE_RTOL = 1e-10
# pieces floor(ln(lambda)/2) of every positive finite double, one column each
_PIECE_FIRST = math.floor(0.5 * math.log(5e-324))
_PIECE_COUNT = math.floor(0.5 * math.log(np.finfo(float).max)) + 1 - _PIECE_FIRST


def _clenshaw(coef: np.ndarray, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k, cols] T_k(x), elementwise over x."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for k in range(coef.shape[0] - 1, 0, -1):
        b1, b2 = coef[k, cols] + 2.0 * x * b1 - b2, b1
    return coef[0, cols] + x * b1 - b2


class CosineKernelTable:
    """K(kappa, lambda) for one kappa, interpolated in t = ln(lambda).

    g(t) = lambda^{1-kappa} K(kappa, lambda) is smooth in t (it tends to
    C(kappa) as t -> -inf), so it is fitted on fixed pieces [2j, 2j+2] of
    the t-axis at degree 14 on 15 first-kind Chebyshev points, evaluated by
    Clenshaw's recurrence and multiplied by lambda^{kappa-1}.  A piece is
    built the first time a call needs it, from the direct
    cosine_weight_kernel_many, and checked against it at the 14 points
    between its nodes: a relative residual over 1e-10 raises
    :class:`NumericalError`.  A lambda the direct kernel treats as scale-free
    (t below about -109 at kappa = 5/9), where one quadrature row serves them
    all, goes to it instead, and so does lambda in (50, 100], whose piece would
    need it past 100.  The pieces are fixed in t, so a value does not depend on
    how calls are batched.  Relative deviation from the direct kernel stays
    below 1e-12 for lambda in [1e-300, 1].
    """

    def __init__(self, kappa: float):
        if not 0 < kappa < 1:
            raise ValueError("kappa must lie in (0,1)")
        self.kappa = kappa
        n = _PIECE_DEGREE + 1
        theta = math.pi * (np.arange(n) + 0.5) / n
        self._nodes = np.cos(theta)
        self._held_out = np.cos(math.pi * np.arange(1, n) / n)
        # values at the nodes -> Chebyshev coefficients (discrete cosine transform)
        self._fit = (2.0 / n) * np.cos(np.outer(theta, np.arange(n)))
        self._fit[:, 0] *= 0.5
        self._free = _scale_free_bound("cos", int(_cap(1.0 - kappa)))
        self._coef = np.zeros((n, _PIECE_COUNT))  # piece j in column j - _PIECE_FIRST
        self._built = np.zeros(_PIECE_COUNT, dtype=bool)

    @property
    def n_pieces(self) -> int:
        return int(np.count_nonzero(self._built))

    def __call__(self, lams) -> np.ndarray:
        _, flat, shape = _batch(self.kappa, "kappa", 0, 1, lams, "lambda", 100.0)
        free = (flat <= self._free) | (flat > 50.0)
        g = self._interpolate(flat[~free])
        direct = cosine_weight_kernel_many(self.kappa, flat[free])
        out = np.empty_like(flat)
        out[~free], out[free] = g, direct
        return out.reshape(shape)

    def _interpolate(self, lam: np.ndarray) -> np.ndarray:
        t = np.log(lam)
        piece = np.floor(0.5 * t)
        x = t - (2.0 * piece + 1.0)  # position in the piece, in [-1, 1]
        cols = piece.astype(np.int64) - _PIECE_FIRST
        needed = np.zeros_like(self._built)
        needed[cols] = True
        missing = np.nonzero(needed & ~self._built)[0]
        if missing.size:
            self._build(missing + _PIECE_FIRST)
        return _clenshaw(self._coef, cols, x) * lam ** (self.kappa - 1.0)

    def _build(self, pieces: np.ndarray) -> None:
        n = _PIECE_DEGREE + 1
        centers = 2.0 * pieces + 1.0
        t = centers[:, None] + np.concatenate((self._nodes, self._held_out))[None, :]
        lam = np.exp(t)
        g = lam ** (1.0 - self.kappa) * cosine_weight_kernel_many(self.kappa, lam)
        # accumulated term by term, not by matmul, whose summation order
        # depends on how many pieces are built together
        coef = np.zeros((n, len(pieces)))
        for k in range(n):
            coef += self._fit[k][:, None] * g[:, k]
        rows = np.repeat(np.arange(len(pieces)), n - 1)
        fitted = _clenshaw(coef, rows, np.tile(self._held_out, len(pieces)))
        resid = np.abs(fitted.reshape(len(pieces), n - 1) / g[:, n:] - 1.0).max(axis=1)
        if not np.all(resid <= _PIECE_RTOL):  # NaN residuals fail too
            worst = int(np.argmax(resid))  # the first NaN, if any
            lo = 2.0 * pieces[worst]
            raise NumericalError(
                f"cosine kernel table (kappa={self.kappa!r}) failed its check on "
                f"t = ln(lambda) in [{lo:g}, {lo + 2:g}]: relative residual "
                f"{resid[worst]:.3e} > tolerance {_PIECE_RTOL:.0e}"
            )
        self._coef[:, pieces - _PIECE_FIRST] = coef
        self._built[pieces - _PIECE_FIRST] = True
