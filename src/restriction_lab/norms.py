"""Weighted Lebesgue (quasi-)norms on truncated planar grids and the
one-dimensional weak-Lorentz quasinorm.

Grids use the midpoint rule: one evaluation per cell at its center, so the
weight factors never sit on cell corners.  Reductions are deterministic:
fixed-size row chunks are summed by numpy's pairwise scheme, or for a
separable weight a(x) b(y) by the matrix-vector products a @ (mass @ b), and
the chunk partials by numpy's pairwise sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "Grid2",
    "WeightSpec",
    "Sampled1",
    "weighted_lq_2d",
    "weak_lq_1d",
]

_CHUNK = 1 << 15


@dataclass(frozen=True)
class Grid2:
    """Midpoint-rule rectangle grid: nx-by-ny cells on [x0,x1] x [y0,y1]."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need nx, ny >= 2")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("empty grid ranges")

    @classmethod
    def centered(cls, half_x: float, half_y: float, step: float) -> "Grid2":
        """Symmetric grid |x| <= half_x, |y| <= half_y at resolution step."""
        nx = max(2, int(round(2 * half_x / step)))
        ny = max(2, int(round(2 * half_y / step)))
        return cls(-half_x, half_x, -half_y, half_y, nx, ny)

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def dy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def cell_measure(self) -> float:
        return self.dx * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = self.x0 + self.dx * (np.arange(self.nx) + 0.5)
        ys = self.y0 + self.dy * (np.arange(self.ny) + 0.5)
        return xs, ys


@dataclass(frozen=True)
class WeightSpec:
    """Weight family: separable (1+|x|)^a (1+|y|)^b or radial (1+|x|+|y|)^g."""

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("separable", "radial"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not all(0 <= e < math.inf for e in (self.alpha, self.beta, self.gamma)):
            raise ValueError("weight exponents must lie in [0, inf)")  # nan fails too

    @classmethod
    def separable(cls, alpha: float, beta: float) -> "WeightSpec":
        return cls("separable", alpha=alpha, beta=beta)

    @classmethod
    def radial(cls, gamma: float) -> "WeightSpec":
        return cls("radial", gamma=gamma)

    def inverse_factor(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """w^{-1} at the points (x, y), broadcast against each other; w^{-q} is
        the inverse factor of the same family with every exponent times q.  A zero
        exponent's factor is 1 (t ** -0.0 is exactly 1.0): it takes no abs and no pow."""
        if self.kind == "separable":
            parts = [(1 + np.abs(t)) ** -e for t, e in ((x, self.alpha), (y, self.beta)) if e]
        else:
            parts = [(1 + np.abs(x) + np.abs(y)) ** -self.gamma] if self.gamma else []
        if len(parts) == 2:
            return parts[0] * parts[1]
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if not parts:
            return np.ones(shape)
        return parts[0] if np.shape(parts[0]) == shape else parts[0] * np.ones(shape)


def weighted_lq_2d(values: np.ndarray, grid: Grid2, weight: WeightSpec, q: float) -> float:
    """(sum_cells |f w^{-1}|^q cell_measure)^{1/q}.

    ``values`` holds f at the cell centers, shape (nx, ny), or its real and
    imaginary planes, shape (2, nx, ny); q > 0 may be below 1 (quasinorm, same formula).
    By row chunks, |f|^q is |f|^2 raised in place to q/2 (no pow at q = 2) and reduced as
    a @ (|f|^q @ b) for a separable weight, a and b its inverse factors to the q, or for
    a radial one divided per cell by (1 + |x| + |y|)^{gamma q} (no pow at gamma q = 1).
    """
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be positive and finite")
    vals = np.asarray(values)
    planes = vals if vals.ndim == 3 else (vals.real, vals.imag)
    if len(planes) != 2 or planes[0].shape != (grid.nx, grid.ny) or np.iscomplexobj(planes[0]):
        raise ValueError(f"values shape {vals.shape} != grid shape {(grid.nx, grid.ny)}")

    xs, ys = grid.centers()
    separable, power = weight.kind == "separable", q * weight.gamma
    if separable:
        a, b = weight.inverse_factor(xs, 0.0) ** q, weight.inverse_factor(0.0, ys) ** q
    else:
        ax, ay = 1 + np.abs(xs[:, None]), np.abs(ys)
    rows, parts = max(1, _CHUNK // grid.ny), []
    for r in range(0, grid.nx, rows):
        mass = np.square(planes[0][r : r + rows], dtype=float)
        mass += np.square(planes[1][r : r + rows])
        if q != 2:
            mass **= q / 2
        if separable:
            parts.append(a[r : r + rows] @ (mass @ b))
        else:
            base = ax[r : r + rows] + ay
            if power != 1:
                base **= power
            parts.append(np.sum(np.divide(mass, base, out=mass)))
    total = float(np.sum(parts)) * grid.cell_measure
    if not math.isfinite(total):  # as it always is where a value is not finite
        if not np.all(np.isfinite(vals)):
            raise NumericalError("non-finite density values on the grid")
        raise NumericalError("q-th power mass is not finite")
    return total ** (1 / q)


@dataclass(frozen=True)
class Sampled1:
    """Discrete distribution data: nonnegative values with positive measures."""

    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.measures, dtype=float)
        if v.shape != m.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and measures must be equal-length 1-D arrays")
        if np.any(v < 0) or np.any(m <= 0) or not np.all(np.isfinite(v + m)):
            raise ValueError("need finite values >= 0 and measures > 0")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)


def weak_lq_1d(sample: Sampled1, q) -> float:
    """Weak-L^q quasinorm sup_t t mu(|f| > t)^{1/q} of sampled data.

    The supremum over thresholds is attained approaching a sample value from
    below, so it equals max over distinct values u of
    u * (measure of {value >= u})^{1/q}, which at q = inf is the max value.
    """
    q = float(q)
    if not q > 0:
        raise ValueError("q must be positive")
    order = np.argsort(sample.values)[::-1]
    v = sample.values[order]
    m = np.cumsum(sample.measures[order])
    # keep the last occurrence of each distinct value: cumulative measure of {>= v}
    distinct = np.append(v[:-1] != v[1:], True)
    vv, mm = v[distinct], m[distinct]
    if vv[-1] == 0:  # zero threshold contributes nothing
        vv, mm = vv[:-1], mm[:-1]
    if vv.size == 0:
        return 0.0
    return float(np.max(vv * mm ** (1 / q)))
