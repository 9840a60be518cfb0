"""Fourier extension of the test densities on the unit circle.

Density variants: the constant density, the Knapp cap (a single arc at the
north pole (0,1) of angular half-width arcsin(delta)), and the power-singular
profile phi^{-mu} supported on [0, delta].  The extension is

    extend(F, p) = int_{S^1} F(omega) e^{i p . omega} d sigma(omega)

with NO 1/(2 pi) prefactor; the counterexample computations drop it and all
ratios and fitted slopes are unaffected.  For the constant density the exact
reference is 2 pi J0(|p|).

The cap used here is the single arc around (0,1); the two-arc antipodal cap
changes constants only, not the delta-scaling that the experiments measure.
The grid form (``grid_factors``, ``y_factor``, ``extend_on_grid``) serves the
cap alone: its rule is symmetric in phi, so the x factor folds to a real one.
It returns e^{-iy} extend, of the same modulus, as a fixed-rank expansion in
powers of the rescaled y, held in two real planes (real and imaginary parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _gl, _j0, bessel_j0
from .errors import NumericalError
from .exponents import DomainError, ScalarLike, exact_in, float_of
from .norms import Grid2

__all__ = [
    "Density",
    "Point2",
    "extend",
    "extend_on_grid",
    "grid_factors",
    "y_factor",
    "circle_norm",
    "constant_reference",
    "effective_node_count",
]


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("points must be finite")

    @property
    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Density:
    """Symbolic test density on the circle, parametrized by omega(phi) =
    (sin phi, cos phi) so phi = 0 is the north pole."""

    kind: str
    delta: float = 0.0
    mu: float = 0.0

    @classmethod
    def constant(cls) -> "Density":
        return cls("constant")

    @classmethod
    def cap(cls, delta: float) -> "Density":
        if not 0 < delta < 1:
            raise DomainError("cap width delta must lie in (0,1)")
        return cls("cap", delta=delta)

    @classmethod
    def power_singular(cls, delta: float, mu: float) -> "Density":
        if not 0 < delta <= 1:
            raise DomainError("support width delta must lie in (0,1]")
        if not 0 < mu < 1:
            raise DomainError("singularity exponent mu must lie in (0,1)")
        return cls("power-singular", delta=delta, mu=mu)


def effective_node_count(budget: int, arc_length: float) -> int:
    """Scale a full-circle node budget down to a support arc.

    Keeps at least 16 nodes; for a budget of 8(|p|+10) this maintains at
    least 8 nodes per oscillation of e^{i p . omega} along the arc.
    """
    return max(16, int(math.ceil(budget * arc_length / (2 * math.pi))))


def _quad_rule(density: Density, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi_k, w_k) with sum_k w_k g(phi_k) ~= int F(phi) g(phi) dphi."""
    if nodes < 16:
        raise DomainError("need nodes >= 16")
    if density.kind == "constant":
        return 2 * math.pi * np.arange(nodes) / nodes, np.full(nodes, 2 * math.pi / nodes)
    if density.kind == "cap":
        a = math.asin(density.delta)
        t, w = _gl(effective_node_count(nodes, 2 * a))
        return a * t, a * w
    if density.kind == "power-singular":
        # substitution phi = u^{1/(1-mu)} removes the endpoint singularity:
        # int_0^d phi^{-mu} g dphi = 1/(1-mu) int_0^{d^{1-mu}} g(u^{1/(1-mu)}) du
        mu = density.mu
        upper = density.delta ** (1 - mu)
        n = effective_node_count(nodes, density.delta)
        t, w = _gl(n)
        u = upper / 2 * (t + 1)
        phi = u ** (1 / (1 - mu))
        return phi, (upper / 2) * w / (1 - mu)
    raise DomainError(f"unknown density kind {density.kind!r}")


def extend(density: Density, p: Point2, nodes: int) -> complex:
    """Extension integral of the density at frequency point p.

    Constant: trapezoid rule on the full circle (spectrally accurate).
    Cap and power-singular: Gauss-Legendre on the support arc, node count
    scaled to the arc so the budget ``nodes`` refers to the full circle.
    Relative accuracy 1e-8 for nodes >= 8(|p|+10) (1e-6 for power-singular).
    """
    phi, w = _quad_rule(density, nodes)
    phase = p.x * np.sin(phi) + p.y * np.cos(phi)
    return complex(np.sum(w * np.exp(1j * phase)))


def grid_factors(cap: Density, grid: Grid2) -> np.ndarray:
    """Planes (2, nx, R), real and imaginary parts, of the coefficients A of e^{-iy}
    extend(cap) = sum_n A[x, n] v^n at the grid's centres, y = mid + half v, |v| < 1.

    The cap's rule takes the budget 8(|p_max| + 10), |p_max| the grid's farthest corner.
    The cap's rule is symmetric in phi <-> -phi bit for bit, so each pair folds into the
    real c = 2 w cos(x sin phi) (an unpaired phi = 0 keeps w).  With eps = 2 sin^2(phi/2),
    e^{i y cos phi} = e^{iy} e^{-i mid eps} e^{-i half eps v}, and the Taylor series in v
    gives A[x, n] = sum_k c[x, k] e^{-i mid eps_k} (-i half eps_k)^n / n!.  The terms
    n >= R add at most theta^R/R! e^theta sum_k |c[x, k]|, theta = half max eps, and R is
    the smallest with that factor <= 2^-56 (R = 12, theta ~ pi/16, on every Knapp quadrant
    of delta = 2^-2..2^-8).  R above 16 raises NumericalError naming theta, any density
    but the cap DomainError, and a rule that is not symmetric NumericalError."""
    if cap.kind != "cap":
        raise DomainError(f"grid factors need the cap density, not {cap.kind!r}")
    p_max = math.hypot(max(-grid.x0, grid.x1), max(-grid.y0, grid.y1))
    phi, w = _quad_rule(cap, int(8 * (p_max + 10)))
    if not (np.array_equal(phi, -phi[::-1]) and np.array_equal(w, w[::-1])):
        raise NumericalError(f"the cap's {phi.size}-node rule is not symmetric in phi")
    phi, w = phi[phi >= 0], np.where(phi == 0, w, 2 * w)[phi >= 0]
    c = np.cos(grid.centers()[0][:, None] * np.sin(phi)) * w
    eps, mid, half = 2 * np.sin(phi / 2) ** 2, (grid.y0 + grid.y1) / 2, (grid.y1 - grid.y0) / 2
    theta = half * float(np.max(eps))
    rank = next((n for n in range(1, 17)  # ln(theta^n/n! e^theta) <= ln 2^-56
                 if theta + n * math.log(theta) - math.lgamma(n + 1) <= -56 * math.log(2)), 0)
    if not rank:
        raise NumericalError(f"the y expansion at theta = {theta:g} needs over 16 terms")
    steps = (-1j * half * eps)[:, None] / np.arange(1, rank)
    t = np.cumprod(np.column_stack((np.exp(-1j * mid * eps), steps)), axis=1)
    return np.stack((c @ t.real, c @ t.imag))


def y_factor(grid: Grid2, ys: np.ndarray, rank: int) -> np.ndarray:
    """The basis v^n, n < rank, shape (rank, len(ys)), at centres ys = mid + half v
    of the grid, by repeated products: no pow and no trig call."""
    p = np.empty((rank, ys.size))
    p[0], p[1:] = 1.0, (ys - (grid.y0 + grid.y1) / 2) / ((grid.y1 - grid.y0) / 2)
    return np.cumprod(p, axis=0, out=p)


def extend_on_grid(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Planes (2, nx, ny) of e^{-iy} extend = sum_n a[:, x, n] p[n, y] from the planes
    of ``grid_factors`` and the basis of ``y_factor``: one real product of 2 nx ny R
    multiply-adds, |e^{-iy} extend| = |extend|."""
    return (a.reshape(-1, a.shape[-1]) @ p).reshape(2, a.shape[1], -1)


def circle_norm(density: Density, r: ScalarLike) -> float:
    """Exact closed-form L^r norm of the density on the circle.

    Constant: (2 pi)^{1/r}.  Cap: (2 arcsin delta)^{1/r}, sup-norm 1.
    Power-singular: (delta^{1-mu r}/(1-mu r))^{1/r}, requiring mu r < 1.
    """
    r = exact_in(r, "r", "[1, inf]")
    if density.kind in ("constant", "cap"):
        arc = 2 * math.pi if density.kind == "constant" else 2 * math.asin(density.delta)
        return 1.0 if r.is_infinite else arc ** (1 / float_of(r, "r"))
    if density.kind == "power-singular":
        rf = float_of(exact_in(r, "r", "[1, inf)"), "r")  # phi^-mu is unbounded: no finite sup-norm
        if density.mu * rf >= 1:
            raise DomainError("need mu r < 1 for a finite L^r norm")
        return (density.delta ** (1 - density.mu * rf) / (1 - density.mu * rf)) ** (1 / rf)
    raise DomainError(f"unknown density kind {density.kind!r}")


def constant_reference(p: Point2) -> float:
    """2 pi J0(|p|): the exact extension of the constant density."""
    return 2 * math.pi * bessel_j0(p.norm)


def constant_reference_radii(radii: np.ndarray) -> np.ndarray:
    """Vectorized 2 pi J0(rho) over an array of radii."""
    return 2 * math.pi * _j0(np.asarray(radii, dtype=float))
