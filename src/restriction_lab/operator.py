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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _gl, _j0, bessel_j0
from .errors import NumericalError
from .exponents import DomainError, ExtScalar, ScalarLike
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
        phi = 2 * math.pi * np.arange(nodes) / nodes
        w = np.full(nodes, 2 * math.pi / nodes)
        return phi, w
    if density.kind == "cap":
        a = math.asin(density.delta)
        n = effective_node_count(nodes, 2 * a)
        t, w = _gl(n)
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


SPLIT_PHASES = 64  # fine phases per coarse phase of a split-phase table (Knapp y, Pitt)


def grid_factors(cap: Density, grid: Grid2, nodes: int) -> tuple[np.ndarray, ...]:
    """Low-rank factors of extend(cap) on the grid's cell centres: extend = sum_k
    c[x, k] e[k, y], e = e^{i y cos phi_k} of shape (K', ny).  The cap's Gauss-Legendre
    rule is symmetric in phi <-> -phi bit for bit, so each pair folds into the real
    c = 2 w cos(x sin phi), K' = ceil(K/2), an unpaired phi = 0 keeping w.  Any density
    but the cap raises DomainError, and a rule that is not symmetric NumericalError.
    e comes in split form, (cos phi, the fine table e^{i m dy cos phi} for
    m < SPLIT_PHASES), from which ``y_factor`` builds it for any run of the grid's centres."""
    if cap.kind != "cap":
        raise DomainError(f"grid factors need the cap density, not {cap.kind!r}")
    phi, w = _quad_rule(cap, nodes)
    if not (np.array_equal(phi, -phi[::-1]) and np.array_equal(w, w[::-1])):
        raise NumericalError(f"the cap's {phi.size}-node rule is not symmetric in phi")
    phi, w = phi[phi >= 0], np.where(phi == 0, w, 2 * w)[phi >= 0]
    c = np.cos(grid.centers()[0][:, None] * np.sin(phi)) * w
    cos_phi = np.cos(phi)
    return c, cos_phi, np.exp(1j * np.outer(cos_phi, grid.dy * np.arange(SPLIT_PHASES)))


def y_factor(cos_phi: np.ndarray, fine: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """e = e^{i y cos phi} of shape (K', len(ys)) for consecutive centres ys of the grid whose
    fine table this is, by split phases y_{aM+m} = y_{aM} + m dy (M = SPLIT_PHASES): a
    coarse table at every M-th y times the fine table, one complex product per cell and
    no trig call, within a few ulp of max |y| of the direct phases."""
    coarse = np.exp(1j * np.outer(cos_phi, ys[::SPLIT_PHASES]))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(cos_phi.size, -1)[:, : ys.size]


def extend_on_grid(c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The field sum_k c[x, k] e[k, y] of ``grid_factors`` and ``y_factor``, shape (nx, ny),
    identical to pointwise ``extend`` up to roundoff: the real c meets e's interleaved
    (cos, sin) rows in one real product of O(nx ny K/2) multiply-adds."""
    return (c @ e.view(np.float64)).view(np.complex128)


def circle_norm(density: Density, r: ScalarLike) -> float:
    """Exact closed-form L^r norm of the density on the circle.

    Constant: (2 pi)^{1/r}.  Cap: (2 arcsin delta)^{1/r}, sup-norm 1.
    Power-singular: (delta^{1-mu r}/(1-mu r))^{1/r}, requiring mu r < 1.
    """
    r = ExtScalar.coerce(r)
    if r < 1:
        raise DomainError("r must lie in [1, inf]")
    if density.kind == "constant":
        if r.is_infinite:
            return 1.0
        return (2 * math.pi) ** (1 / float(r))
    if density.kind == "cap":
        if r.is_infinite:
            return 1.0
        return (2 * math.asin(density.delta)) ** (1 / float(r))
    if density.kind == "power-singular":
        if r.is_infinite:
            raise DomainError("power-singular density is unbounded (mu r < 1 fails)")
        rf = float(r)
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
