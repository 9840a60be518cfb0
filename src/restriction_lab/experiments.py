"""End-to-end reproductions of the counterexample and estimate scalings.

Each experiment produces a :class:`ScanResult`: the scanned parameter values
with left-hand side, right-hand side and their ratio, a least-squares
log2-log2 slope fit, and the exact predicted exponent with its logarithmic
correction flag.  Predictions are exact rationals; the scans are honest
numerical computations of the underlying integrals and norms.

Scaling conventions:

* Knapp scans measure ratio(delta) ~ delta^slope as the cap width shrinks.
* The L2-endpoint and dual scans measure blow-up in a small parameter eps;
  the singular mass of those integrals spreads over exponentially many
  scales (the integrands behave like t^{-1+c*eps} near an endpoint), so the
  meshes there are logarithmic in the distance to the endpoint rather than
  polynomially graded, with panel depth growing like 1/eps.  Power-law
  grading cannot represent that mass at any polynomial mesh size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .analysis import (
    CosineKernelTable,
    _gl,
    _panel_nodes,
    cosine_weight_kernel_many,
    hankel_decay_transform_many,
    j0_extrema,
)
from .errors import ConfigurationError
from .exponents import (
    DomainError, ExtScalar, ScalarLike, inv_conjugate, inv_conjugate_ratio, scaled, to_fraction,
    weight_exponents,
)
from .norms import Grid2, Sampled1, WeightSpec, weak_lq_1d, weighted_lq_2d
from .operator import (Density, circle_norm, constant_reference_radii, extend_on_grid,
                       grid_factors, y_factor)

__all__ = [
    "PredictedExponent",
    "SlopeFit",
    "ScanSample",
    "ScanResult",
    "predicted_exponent",
    "fit_loglog_slope",
    "knapp_scan",
    "ConstantSumResult",
    "constant_density_sums",
    "l2_endpoint_scan",
    "PittResult",
    "pitt_sweep",
    "dual_scan",
]

KNAPP_CELL_BUDGET = 30_000_000
KNAPP_RESOLUTION = 0.25
KNAPP_BLOCK_CELLS = 1 << 16  # cells per streamed column block: 1 MB of planes, cache-sized
RING_BLOCK = 1024  # rings per block of the constant-density cross-check: about 15 MB
PITT_CELL_BUDGET = 30_000_000  # sum of n_xi n_x over a Pitt sweep; scales 2^-10..2^-6 take 20.5 M
SPLIT_PHASES = 64  # fine phases per coarse phase of Pitt's split-phase transform


@dataclass(frozen=True, slots=True)
class PredictedExponent:
    """Exact predicted power-law slope with logarithmic-correction flag."""

    slope: Fraction
    log_flag: str = "none"  # none | single | double

    def __str__(self) -> str:
        suffix = {"none": "", "single": " (log)", "double": " (log^2)"}[self.log_flag]
        return f"{self.slope}{suffix}"


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    r_squared: float


@dataclass(frozen=True)
class ScanSample:
    param: float
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class ScanResult:
    samples: tuple[ScanSample, ...]
    fitted: SlopeFit
    predicted: PredictedExponent | None
    metadata: dict[str, str]

    def __post_init__(self):
        params = [s.param for s in self.samples]
        if len(params) >= 2 and not (
            all(a < b for a, b in zip(params, params[1:]))
            or all(a > b for a, b in zip(params, params[1:]))
        ):
            raise ValueError("scan parameters must be strictly monotone")


def predicted_exponent(
    kind: str,
    *,
    alpha: ScalarLike | None = None,
    beta: ScalarLike | None = None,
    gamma: ScalarLike | None = None,
    weight_sum: ScalarLike | None = None,
    r: ScalarLike | None = None,
    q: ScalarLike | None = None,
) -> PredictedExponent:
    """Exact Knapp-ratio slope (separable/radial) or partial-sum exponent.

    Clipped linear, on integers over one denominator (``exponents.scaled``):
    separable slope = 1/r' + min(M - 1/q, 0) + 2 min(m - 1/q, 0) for M, m the max
    and min weight, a log factor for each of M = 1/q, m = 1/q; radial slope =
    1/r' + min(gamma - 2/q, 0) + min(gamma - 1/q, 0), a log at gamma = 2/q or 1/q.
    constant: the index exponent 1 - q(1/2 + weight_sum) of the constant-density
    partial sums.
    """
    qf = to_fraction(q)
    if qf <= 0:
        raise DomainError("q must be positive and finite")
    if kind == "constant":
        return PredictedExponent(Fraction(1) - qf * (Fraction(1, 2) + to_fraction(weight_sum)))

    exps = weight_exponents(kind, alpha, beta, gamma)
    # 1, 1/q, 1/r' and the weights as integers over one denominator
    one, inv_q, inv_rc, *ws = scaled(
        1, qf.as_integer_ratio()[::-1], inv_conjugate_ratio(ExtScalar.coerce(r)),
        *(w.as_integer_ratio() for w in exps.values()))
    if kind == "separable":
        big, small = max(ws), min(ws)
        slope = inv_rc + min(big - inv_q, 0) + 2 * min(small - inv_q, 0)
        logs = (big == inv_q) + (small == inv_q)
    else:
        (g,) = ws
        slope = inv_rc + min(g - 2 * inv_q, 0) + min(g - inv_q, 0)
        logs = int(g == 2 * inv_q or g == inv_q)
    return PredictedExponent(Fraction(slope, one), ("none", "single", "double")[logs])


def fit_loglog_slope(points: list[tuple[float, float]]) -> SlopeFit:
    """Ordinary least squares on (log2 param, log2 value)."""
    if len(points) < 3:
        raise DomainError("need at least 3 points")
    params = np.array([p for p, _ in points], dtype=float)
    values = np.array([v for _, v in points], dtype=float)
    if np.any(params <= 0) or len(set(params.tolist())) != len(points):
        raise DomainError("params must be positive and distinct")
    if np.any(values <= 0):
        raise DomainError("values must be positive for a log-log fit")
    x = np.log2(params)
    y = np.log2(values)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(max(ss_res, 0.0) / (len(points) - 2) / sxx)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope, stderr, r_squared)


def _scan_result(samples: list[ScanSample], predicted: PredictedExponent, meta: dict,
                 fit_variable: str | None = None) -> ScanResult:
    """The scan's result: the log-log slope of ratio against param, or against
    1/param when ``fit_variable`` names it, and ``meta`` completed with the
    prediction and rendered with str()."""
    fitted = fit_loglog_slope(
        [(1 / s.param if fit_variable else s.param, s.ratio) for s in samples]
    )
    meta = {**meta, "predicted_slope": predicted.slope, "log_flag": predicted.log_flag}
    if fit_variable:
        meta["fit_variable"] = fit_variable
    return ScanResult(tuple(samples), fitted, predicted, {k: str(v) for k, v in meta.items()})


# ---------------------------------------------------------------------------
# Knapp cap scans
# ---------------------------------------------------------------------------


def _knapp_quadrant(delta: float) -> tuple[Grid2, int]:
    """The closed quadrant x, y >= 0 of the centred Knapp grid, same cells, and its node
    budget 8(|p_max| + 10); an odd axis starts half a cell below 0 to keep its centre line."""
    half_y = max(4.0, math.pi / 4 / delta / delta)
    if half_y > KNAPP_CELL_BUDGET:  # a column's 4 half_y cells; inf where delta^-2 overflows
        raise ConfigurationError(f"delta={delta:g} needs a column over budget {KNAPP_CELL_BUDGET}")
    grid = Grid2.centered(4 / delta, half_y, KNAPP_RESOLUTION)
    x0 = -grid.dx / 2 if grid.nx % 2 else 0.0
    y0 = -grid.dy / 2 if grid.ny % 2 else 0.0
    quadrant = Grid2(x0, grid.x1, y0, grid.y1, (grid.nx + 1) // 2, (grid.ny + 1) // 2)
    return quadrant, int(8 * (math.hypot(grid.x1, grid.y1) + 10))


def _column_blocks(grid: Grid2) -> list[tuple[int, int]]:
    """The grid's column blocks [j0, j1) of KNAPP_BLOCK_CELLS cells; the last takes the rest."""
    step = max(2, KNAPP_BLOCK_CELLS // grid.nx)
    edges = [*range(0, max(grid.ny - step, 0) + 1, step), grid.ny]
    return list(zip(edges, edges[1:]))


def _gram_mass(cap: Density, grid: Grid2, weight: WeightSpec, q: float, nodes: int) -> float:
    """A folded quadrant's sum of |f w^{-1}|^2 cell_measure for a separable weight a(x) b(y)
    (q = 2 only), as sum_x a(x)^2 sum_s a_s(x)^T G a_s(x) over the ``grid_factors`` planes
    a_s, G = sum_y b(y)^2 p(y) p(y)^T the R x R Gram of the ``y_factor`` basis, by blocks."""
    xs, ys = grid.centers()
    a2, b2 = weight.inverse_factor(xs, 0.0) ** 2, weight.inverse_factor(0.0, ys) ** 2
    a2[: int(grid.x0 < 0)] /= 2  # an odd axis's centre line has one mirror image
    b2[: int(grid.y0 < 0)] /= 2
    planes = grid_factors(cap, grid, nodes)
    gram = 0
    for j0, j1 in _column_blocks(grid):
        p = y_factor(grid, ys[j0:j1], planes.shape[-1])
        gram = gram + (p * b2[j0:j1]) @ p.T
    rows = np.einsum("sxn,sxn->x", planes @ gram, planes)
    return float(np.sum(a2 * rows)) * grid.cell_measure


def _streamed_mass(cap: Density, grid: Grid2, weight: WeightSpec, q: float, nodes: int) -> float:
    """The same sum for any q and weight: each column block's planes come from
    ``extend_on_grid`` and go through ``weighted_lq_2d`` (one matrix-vector reduction per
    row chunk for a separable weight); block masses add by numpy's pairwise sum."""
    ys = grid.centers()[1]
    planes = grid_factors(cap, grid, nodes)
    masses = []
    for j0, j1 in _column_blocks(grid):
        field = extend_on_grid(planes, y_factor(grid, ys[j0:j1], planes.shape[-1]))
        field[:, : int(grid.x0 < 0)] *= 2 ** (-1 / q)  # the Gram form's halving, on |f|^q
        field[:, :, : int(j0 == 0 and grid.y0 < 0)] *= 2 ** (-1 / q)
        block = replace(grid, y0=grid.y0 + j0 * grid.dy, y1=grid.y0 + j1 * grid.dy, ny=j1 - j0)
        masses.append(weighted_lq_2d(field, block, weight, q) ** q)
    return float(np.sum(masses))


def knapp_scan(
    kind: str,
    *,
    r: ScalarLike,
    q: ScalarLike,
    alpha: ScalarLike | None = None,
    beta: ScalarLike | None = None,
    gamma: ScalarLike | None = None,
    delta_exps: list[int],
) -> ScanResult:
    """Weighted-norm over circle-norm ratio of the cap density as it shrinks.

    For each delta = 2^{-k}: ratio = || extend(Cap(delta)) w^{-1} ||_{L^q}
    over the rectangle |x| <= 4/delta, |y| <= max(4, (pi/4)/delta^2),
    divided by ||Cap(delta)||_{L^r}.  The separable weight puts the larger
    exponent on the short (x) axis and the smaller on the long (y) axis,
    matching the cap's concentration geometry.

    |extend(Cap)| and both weights are even in x and in y (the cap's nodes
    are symmetric, phi <-> -phi), so only the grid's closed quadrant x, y >= 0
    is summed, with an odd axis's centre line halved, and the sum quadrupled.
    The same symmetry folds the cap's K nodes into ceil(K/2) real columns, and e^{-iy} f
    is a polynomial of degree R - 1 <= 15 in the rescaled y (R = 12 at delta = 2^-2..2^-8):
    ``grid_factors`` returns its coefficients as two real planes.  For q = 2 and a
    separable weight the real R x R Gram form (``_gram_mass``) sums it at cost
    O((nx + ny) R^2); every other case streams the planes in column blocks
    (``_streamed_mass``), each one real product of 2 nx ny R multiply-adds, reduced with
    no per-cell pow where q/2 is 1 to 4, no weight array for a separable weight and one
    divide per cell for gamma q = 1.  Memory is bounded by one block of KNAPP_BLOCK_CELLS
    cells, not by the grid.  KNAPP_CELL_BUDGET counts the quadrant cells summed, about
    delta^{-3}; it and the delta window (``_eps_window``) are checked before any evaluation.
    """
    r = ExtScalar.coerce(r)
    q = ExtScalar.coerce(q)
    if q.is_infinite:
        raise DomainError("q must be finite")
    qf = float(to_fraction(q))
    exps = weight_exponents(kind, alpha, beta, gamma)
    weight = getattr(WeightSpec, kind)(*sorted(map(float, exps.values()), reverse=True))
    predicted = predicted_exponent(kind, **exps, r=r, q=q)
    mass = _gram_mass if qf == 2 and kind == "separable" else _streamed_mass

    deltas = [float(d) for d in _eps_window(delta_exps, "delta", points=0)]
    quadrants = [_knapp_quadrant(d) for d in deltas]
    for d, (quadrant, _) in zip(deltas, quadrants):
        if quadrant.n_cells > KNAPP_CELL_BUDGET:
            raise ConfigurationError(f"delta={d:g} needs {quadrant.n_cells} quadrant cells, "
                                     f"over budget {KNAPP_CELL_BUDGET}")
    _eps_window(delta_exps, "delta")  # the count last, so that a window over budget says so

    samples = []
    for d, (quadrant, nodes) in zip(deltas, quadrants):
        lhs = (4 * mass(Density.cap(d), quadrant, weight, qf, nodes)) ** (1 / qf)
        rhs = circle_norm(Density.cap(d), r)
        samples.append(ScanSample(d, lhs, rhs, lhs / rhs))

    return _scan_result(samples, predicted, {
        "experiment": f"knapp-{kind}",
        "r": r,
        "q": q,
        **exps,
        "delta_exps": ",".join(str(k) for k in sorted(delta_exps)),
        "resolution": KNAPP_RESOLUTION,
        "grid_policy": "|x|<=4/delta, |y|<=max(4,(pi/4)/delta^2)",
        "node_policy": "8*(|p_max|+10) scaled to the support arc",
    })


# ---------------------------------------------------------------------------
# constant-density partial sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSumResult:
    exponent: Fraction
    divergent: bool
    sums: tuple[tuple[int, float], ...]
    ring_sums: tuple[tuple[int, float], ...] | None = None


def constant_density_sums(
    kind: str,
    *,
    q: ScalarLike,
    alpha: ScalarLike | None = None,
    beta: ScalarLike | None = None,
    gamma: ScalarLike | None = None,
    n_list: list[int],
    cross_check_rings: int = 0,
) -> ConstantSumResult:
    """Partial sums S_N = sum_{j<=N} j^s for the constant-density index series.

    The exponent s = 1 - q(1/2 + weight_sum) is exact and the divergence
    verdict is the exact test s >= -1.  With ``cross_check_rings`` = J > 0
    the result also carries the weighted q-th-power mass of 2 pi J0(|.|)
    over the extrema annuli |rho - z_j| <= 0.5 for j <= J (polar quadrature,
    16 radial times 64 angular nodes per ring, folded onto the 16 of the first
    quadrant since both weight families see only |x| and |y|: (J, 16, 16) points,
    RING_BLOCK rings at a time, each ring reduced within itself, so blocks change
    no sum), whose growth reproduces the same index exponent.
    """
    if cross_check_rings < 0:
        raise DomainError("cross_check_rings must be non-negative")
    if list(n_list) != sorted(set(n_list)) or not n_list or n_list[0] < 1:
        raise DomainError("n_list must be strictly increasing positive integers")
    qf = float(to_fraction(q))
    exps = weight_exponents(kind, alpha, beta, gamma)
    weight_q = getattr(WeightSpec, kind)(*[qf * float(v) for v in exps.values()])
    pred = predicted_exponent("constant", weight_sum=sum(exps.values()), q=q)
    s = pred.slope

    n_max = n_list[-1]
    powers = np.arange(1, n_max + 1, dtype=float) ** float(s)
    cumulative = np.cumsum(powers)
    sums = tuple((n, float(cumulative[n - 1])) for n in n_list)

    ring_sums = None
    if cross_check_rings > 0:
        theta = (np.arange(16) + 0.5) * (2 * math.pi / 64)
        sin, cos = np.sin(theta), np.cos(theta)
        t16, w16 = _gl(16)
        z, masses = j0_extrema(cross_check_rings).z, []
        for start in range(0, z.size, RING_BLOCK):
            # annulus half-width 0.5 (delta_env) around each extremum z_j
            rho = z[start : start + RING_BLOCK, None] + 0.5 * t16
            wfac = weight_q.inverse_factor(rho[:, :, None] * sin, rho[:, :, None] * cos)
            angular = np.sum(wfac, axis=2) * (2 * math.pi / 16)
            vals = np.abs(constant_reference_radii(rho)) ** qf
            masses.append(np.sum(0.5 * w16 * rho * vals * angular, axis=1))
        ring_cum = np.cumsum(np.concatenate(masses))
        marks = [n for n in n_list if n <= cross_check_rings]
        ring_sums = tuple((n, float(ring_cum[n - 1])) for n in marks)

    return ConstantSumResult(s, s >= -1, sums, ring_sums)


# ---------------------------------------------------------------------------
# L2 endpoint blow-up
# ---------------------------------------------------------------------------


def _tau_panels(tau_max: float, fine_until: float = 12.0) -> tuple[np.ndarray, np.ndarray]:
    """Panels in tau = ln(scale/endpoint distance): ln2-wide until fine_until,
    then width 6; Gauss-Legendre 10 points each."""
    edges = [0.0]
    step = math.log(2.0)
    while edges[-1] < min(fine_until, tau_max):
        edges.append(min(edges[-1] + step, tau_max))
    while edges[-1] < tau_max:
        edges.append(min(edges[-1] + 6.0, tau_max))
    nodes, weights = _panel_nodes(np.array(edges[:-1]), np.array(edges[1:]), 10)
    return nodes.reshape(-1), weights.reshape(-1)


def _inner_s_mesh() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature for int_0^1 s^{-mu} (diagonal-singular factor)(s) ds.

    Returns (s_nodes, s_weights, v_nodes, v_weights): the half [0, 1/2] is
    graded with exponent 3 towards s = 0 (the s^{-mu} corner); the half
    near s = 1 is parametrized by v = 1 - s with dyadic levels
    [2^{-j-1}, 2^{-j}] down to 2^{-61}, resolving the
    (1-s)^{2(alpha+beta)-2} diagonal corner without the catastrophic
    cancellation of forming 1 - v in floats.  As v -> 0 the integrand behaves like
    v^{2(alpha+beta)-2} at every outer phi, so the neglected sliver v < 2^{-61} holds
    about 2^{-60(2(alpha+beta)-1)} of the corner mass (0.98% at criterion 10's alpha + beta
    = 5/9, 2^-6 at the scan's bound 11/20), a share set by alpha + beta alone: fitted
    slopes are unaffected.
    """
    i, j = np.arange(8.0), np.arange(1.0, 61.0)
    s_part = _panel_nodes(0.5 * (i / 8) ** 3, 0.5 * ((i + 1) / 8) ** 3, 6)
    v_part = _panel_nodes(2.0 ** -(j + 1), 2.0**-j, 4)
    return tuple(a.reshape(-1) for a in (*s_part, *v_part))


def _eps_window(exps: list[int], name: str = "eps", points: int = 3) -> list[Fraction]:
    """``name`` = 2^{-k} over the sorted exponents: distinct, in [0, 1022] (where 2^{-k}
    is a normal float), and at least ``points`` of them, enough to fit."""
    if len(set(exps)) != len(exps):
        raise DomainError(f"duplicate {name} exponents")
    if min(exps, default=0) < 0:
        raise DomainError(f"{name} exponents must be non-negative")
    if max(exps, default=0) > 1022:
        raise DomainError(f"{name} exponents must be at most 1022, where 2^-k is a normal float")
    if len(exps) < points:
        raise DomainError(f"need at least {points} points")
    return [Fraction(1, 2**k) for k in sorted(exps)]


_TRUNC_LN = math.log(1e3)  # ln of the inverse truncated share of both eps-scans
_L2_TAU_CAP = 300.0


def l2_endpoint_scan(
    alpha: ScalarLike,
    beta: ScalarLike,
    r: ScalarLike,
    delta: float,
    eps_exps: list[int],
) -> ScanResult:
    """Blow-up of ||extend(F_delta)||_2^2 / ||F_delta||_r^2 as mu -> 1/r.

    Exact preconditions: 0 < 2 beta <= 2 alpha < 1, alpha + beta >= 11/20 and
    alpha + 2 beta = 3/2 - 1/r' with 1 < r < inf.  The theorem needs alpha + beta > 1/2;
    the stricter 11/20 bounds the corner mass the inner mesh drops, about
    2^{-60(2(alpha+beta)-1)} (``_inner_s_mesh``), by 2^-6.  For eps = 2^{-k} the
    profile exponent is mu = 1/r - eps and

      LHS = 8 int_0^delta phi^{-mu} int_0^phi varphi^{-mu}
            K(2 alpha, sin phi - sin varphi) K(2 beta, cos varphi - cos phi)
            d varphi d phi,

    an exact identity for the squared L2 norm.  The outer integral
    concentrates like phi^{-1+2 eps}, so it is integrated in
    tau = ln(delta/phi) out to tau_max = min(ln(1e3)/(2 eps), 300); the
    truncated share of the mass is e^{-2 eps tau_max}: 1e-3 wherever the cap
    300 does not bind, and e^{-600/128} ~ 0.92% at eps = 2^-7, where it does.
    K is read from a CosineKernelTable per distinct kappa, built for this
    call only.  The ratio against the exact circle norm is fitted versus eps.

    Nothing in K(2 alpha, .) K(2 beta, .) depends on eps, so phi and both
    kernels are evaluated once, over the distinct tau nodes of the union of
    all eps rules, and each eps gathers its rows.  That is exact: the panel
    edges of ``_tau_panels`` are the same float sums whatever tau_max is, so
    a smaller eps's rule is bit for bit a prefix of a larger one's except for
    its clipped last panel, and a table value does not depend on its batch.
    The eps window (distinct, non-negative exponents, mu in (0,1)) is checked
    before any kernel work.
    """
    a = to_fraction(alpha)
    b = to_fraction(beta)
    r = ExtScalar.coerce(r)
    if r.is_infinite or r <= 1:
        raise DomainError("need 1 < r < inf")
    rf = r.as_fraction()
    inv_rc = inv_conjugate(r)
    if not (0 < 2 * b <= 2 * a < 1):
        raise DomainError("need 0 < 2 beta <= 2 alpha < 1")
    if a + b < Fraction(11, 20):
        share = min(2.0 ** (-60 * (2 * float(a + b) - 1)), 1.0)
        raise DomainError(f"need alpha + beta >= 11/20, where the sliver v < 2^-61 the inner "
                          f"mesh drops holds at most 2^-6 of the corner mass; at alpha + beta "
                          f"= {a + b} it holds {share:.1%}")
    if a + 2 * b != Fraction(3, 2) - inv_rc:
        raise DomainError("need alpha + 2 beta = 3/2 - 1/r' exactly")
    if not 0 < delta < 1:
        raise DomainError("need 0 < delta < 1")

    epss = _eps_window(eps_exps)
    if not all(0 < 1 / rf - eps < 1 for eps in epss):
        raise DomainError("need mu = 1/r - eps in (0,1) for every eps")

    s_nodes, s_weights, v_nodes, v_weights = _inner_s_mesh()
    diff_half = np.concatenate([1.0 - s_nodes, v_nodes])  # 1 - s, exact near s = 1
    sum_half = np.concatenate([1.0 + s_nodes, 2.0 - v_nodes])  # 1 + s
    sing = np.concatenate([s_nodes, 1.0 - v_nodes])  # s itself for s^{-mu}
    all_weights = np.concatenate([s_weights, v_weights])
    kap1, kap2 = float(2 * a), float(2 * b)
    kernel1 = CosineKernelTable(kap1)
    kernel2 = kernel1 if kap2 == kap1 else CosineKernelTable(kap2)

    rules = [_tau_panels(min(_TRUNC_LN / (2 * float(eps)), _L2_TAU_CAP)) for eps in epss]
    tau, rows = np.unique(np.concatenate([nodes for nodes, _ in rules]), return_inverse=True)
    phi = delta * np.exp(-tau)
    half_diff = 0.5 * phi[:, None] * diff_half[None, :]
    half_sum = 0.5 * phi[:, None] * sum_half[None, :]
    k1 = kernel1(2.0 * np.sin(half_diff) * np.cos(half_sum))
    k2 = kernel2(2.0 * np.sin(half_sum) * np.sin(half_diff))

    samples = []
    bounds = np.cumsum([len(w_tau) for _, w_tau in rules])[:-1]
    for eps, (_, w_tau), at in zip(epss, rules, np.split(rows, bounds)):
        mu = float(1 / rf - eps)
        inner = (sing ** (-mu) * all_weights)[None, :] * k1[at] * k2[at]
        profile = phi[at] ** (2.0 - 2.0 * mu) * np.sum(inner, axis=1)
        lhs = 8.0 * float(np.sum(w_tau * profile))

        rhs = circle_norm(Density.power_singular(delta, mu), r) ** 2
        samples.append(ScanSample(float(eps), lhs, rhs, lhs / rhs))

    return _scan_result(samples, PredictedExponent(2 / rf - 1), {
        "experiment": "l2-endpoint",
        "alpha": a,
        "beta": b,
        "r": r,
        "delta": delta,
        "eps_exps": ",".join(str(k) for k in sorted(eps_exps)),
        "tau_cap": _L2_TAU_CAP,
    })


# ---------------------------------------------------------------------------
# Pitt-type dilation sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PittResult:
    ratios: tuple[tuple[float, str, float], ...]  # (scale, variant, ratio)
    max_ratio: float
    metadata: dict[str, str]


def _pitt_axes(s: float) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """(start, stop, step) of the x grid and of the xi grid at scale s."""
    xi_max = 1.0 + 10.0 / s
    # spacing must keep the alias images at 2 pi / dx outside the
    # sampled band [0, xi_max] plus the transform's spread of ~10/s
    dx = min(s / 8, math.pi / (xi_max + 10.0 / s))
    dxi = min(1 / 8, 1 / (8 * s))
    return (-8 * s, 8 * s + dx / 2, dx), (dxi / 2, xi_max, dxi)


def _split_phase_cosine(xis: np.ndarray, dxi: float, xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """sum_j cos(xi_i x_j) f(x_j) for each row f of fs, xis in steps of dxi: with
    xi_{aM+m} = xi_{aM} + m dxi (M = SPLIT_PHASES), two real matmuls of coarse and
    fine cosines and sines, 2 (n_xi/M + M) n_x phases in place of n_xi n_x."""
    coarse = np.outer(xis[::SPLIT_PHASES], xs)
    fine = np.outer(dxi * np.arange(SPLIT_PHASES), xs).T
    out = (np.cos(coarse) * fs[:, None]) @ np.cos(fine)
    out -= (np.sin(coarse) * fs[:, None]) @ np.sin(fine)
    return out.reshape(len(fs), -1)[:, : xis.size]


def pitt_sweep(
    beta: ScalarLike, p: ScalarLike, q: ScalarLike, scales: list[float]
) -> PittResult:
    """Uniformity of the weighted weak-norm bound over a dilation family.

    For f_s(x) = exp(-(x/s)^2) and its modulation f_s(x) cos(x):
    ratio(s) = weak-L^q of (1+|xi|)^{-beta} |f_s^(xi)| over ||f_s||_p, with
    the transform computed by trapezoid quadrature on an x-grid adapted to s
    and sampled on a xi-grid covering the spread 1/s (plus the modulation
    shift).  Returns all ratios and their maximum.  The transform splits
    phases (``_split_phase_cosine``), in memory O((n_xi/64 + 64) n_x + n_xi).
    The hypothesis 0 <= 1/q - 1/p' <= beta is decided exactly; every scale must be
    positive and finite and the sweep's sum of n_xi n_x at most PITT_CELL_BUDGET, all
    checked before any transform.
    """
    b_x, p_x, q_x = (to_fraction(v) for v in (beta, p, q))
    if not 1 <= p_x <= 2:
        raise DomainError("need 1 <= p <= 2")
    if q_x <= 0:
        raise DomainError("need q > 0")
    if not 0 <= 1 / q_x - (1 - 1 / p_x) <= b_x:  # 1/p' = 1 - 1/p
        raise DomainError("need 0 <= 1/q - 1/p' <= beta")
    bf, pf, qf = float(b_x), float(p_x), float(q_x)
    if not scales:
        raise DomainError("need at least one scale")
    if not all(0 < s < math.inf for s in scales):  # NaN fails too
        raise DomainError("scales must be positive and finite")
    # (scale, x or xi, start/stop/step)
    ax = np.array([_pitt_axes(s) for s in scales]).reshape(-1, 2, 3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # s ~ 1e-320 or 1e300
        cells = np.sum(np.prod(np.ceil((ax[..., 1] - ax[..., 0]) / ax[..., 2]), axis=1))
    if not cells <= PITT_CELL_BUDGET:
        raise ConfigurationError(f"scales need {cells:.0f} transform cells (n_xi n_x), "
                                 f"over budget {PITT_CELL_BUDGET}")

    entries = []
    for s, ((x0, x1, dx), (xi0, xi1, dxi)) in zip(scales, ax):
        xs = np.arange(x0, x1, dx)
        xis = np.arange(xi0, xi1, dxi)
        base = np.exp(-((xs / s) ** 2))
        fs = np.array([base, base * np.cos(xs)])
        fhats = np.abs(_split_phase_cosine(xis, dxi, xs, fs)) * dx  # even f: real cosine transform
        for variant, fx, fhat in zip(("plain", "modulated"), fs, fhats):
            weighted = (1 + xis) ** (-bf) * fhat
            weak = weak_lq_1d(Sampled1(weighted, np.full(xis.shape, 2 * dxi)), qf)
            denom = (dx * np.sum(np.abs(fx) ** pf)) ** (1 / pf)
            entries.append((s, variant, weak / denom))

    meta = {
        "experiment": "pitt-sweep",
        "beta": str(ExtScalar.coerce(beta)),
        "p": str(ExtScalar.coerce(p)),
        "q": str(ExtScalar.coerce(q)),
        "scales": ",".join(repr(s) for s in scales),
        "grid_policy": (
            "x in [-8s,8s] step min(s/8, pi/(xi_max+10/s)); "
            "xi in (0, 1+10/s) step min(1/8, 1/(8s))"
        ),
    }
    return PittResult(tuple(entries), max(e[2] for e in entries), meta)


# ---------------------------------------------------------------------------
# dual blow-up scans
# ---------------------------------------------------------------------------

_DUAL_TAU_CAP = 340.0


def dual_scan(
    kind: str,
    *,
    r: ScalarLike,
    q: ScalarLike,
    alpha: ScalarLike | None = None,
    beta: ScalarLike | None = None,
    gamma: ScalarLike | None = None,
    eps_exps: list[int],
) -> ScanResult:
    """Blow-up of the dual restricted norm against its source-side bound.

    separable: LHS(eps) = (int_0^{2pi} |chihat(sin t)|^{r'}
    |K(beta + (1+eps)/q', cos t - 1)|^{r'} dt)^{1/r'} with a Gaussian chi
    (chihat(u) = sqrt(pi) e^{-u^2/4}), requiring beta = 1/q - 1/(2r') and
    alpha > 1/q exactly.  radial: the kernel factor is
    |H(gamma + 2/q' + eps, |omega(t) - (0,1)|)|^{r'} with H the decaying
    Hankel transform, requiring gamma = 2/q - 1/r' on its max branch
    (r' >= q).  RHS = eps^{-1/q'}; the fitted growth exponent of LHS/RHS
    against 1/eps is compared with the predicted 1/r' - 1/q'.

    The integrand behaves like t^{-1+rate} at t -> 0, so the t-integral is
    taken in tau = -ln t out to tau_max = min(ln(1e3)/rate, 340) (beyond 340,
    1 - cos t underflows).  The truncated share e^{-rate tau_max} is 1e-3 where
    the cap does not bind and ~2.9% for separable r = 4, q = 2 at eps = 2^-7,
    where it does; the metadata records only tau_cap.  All eps rules are built
    (and checked) first; one kernel call takes all their nodes, each with its
    eps's kappa (or delta), and each eps sums its slice.
    """
    r = ExtScalar.coerce(r)
    q = ExtScalar.coerce(q)
    if r.is_infinite or r <= 1:
        raise DomainError("need 1 < r < inf")
    if q.is_infinite or q <= 1:
        raise DomainError("need 1 < q < inf")
    qf = q.as_fraction()
    inv_rc = inv_conjugate(r)
    inv_qc = inv_conjugate(q)
    rc = float(1 / inv_rc)

    exps = weight_exponents(kind, alpha, beta, gamma)
    if kind == "separable":
        a, b = exps.values()
        if b != 1 / qf - inv_rc / 2:
            raise DomainError("need beta = 1/q - 1/(2r') exactly")
        if not a > 1 / qf:
            raise DomainError("need alpha > 1/q")
    else:
        (g,) = exps.values()
        if g != 2 / qf - inv_rc:
            raise DomainError("need gamma = 2/q - 1/r' exactly")
        if 2 / qf - inv_rc < Fraction(3, 2) / qf - inv_rc / 2:  # max branch: r' >= q
            raise DomainError("need 2/q - 1/r' to be the max branch (r' >= q)")

    rules = []  # (eps, tau weights, t nodes, kernel exponents): every check before any transform
    for eps in _eps_window(eps_exps):
        epsf = float(eps)
        if kind == "separable":
            exponent = float(b + (1 + eps) * inv_qc)  # kappa
            rate = 2 * rc * epsf * float(inv_qc)
        else:
            exponent = float(g + 2 * inv_qc + eps)  # delta
            if not 1 < exponent < 2:
                raise DomainError("gamma + 2/q' + eps must lie in (1,2)")
            rate = rc * epsf
        tau, w_tau = _tau_panels(min(_TRUNC_LN / rate, _DUAL_TAU_CAP), fine_until=10.0)
        rules.append((epsf, w_tau, math.pi * np.exp(-tau), np.full(tau.size, exponent)))

    t, exponents = (np.concatenate([rule[i] for rule in rules]) for i in (2, 3))
    if kind == "separable":
        lam = 2.0 * np.sin(t / 2) ** 2  # 1 - cos t, stable for tiny t
        kernel = np.abs(cosine_weight_kernel_many(exponents, lam)) ** rc
        integrand = (math.sqrt(math.pi) * np.exp(-np.sin(t) ** 2 / 4)) ** rc * kernel
    else:
        svals = 2.0 * np.abs(np.sin(t / 2))  # |omega(t) - (0,1)|
        integrand = np.abs(hankel_decay_transform_many(exponents, svals)) ** rc

    samples = []
    bounds = np.cumsum([w_tau.size for _, w_tau, _, _ in rules])[:-1]
    for (epsf, w_tau, t_eps, _), part in zip(rules, np.split(integrand, bounds)):
        lhs = (2.0 * float(np.sum(w_tau * part * t_eps))) ** (1 / rc)
        rhs = epsf ** (-float(inv_qc))
        samples.append(ScanSample(epsf, lhs, rhs, lhs / rhs))

    return _scan_result(samples, PredictedExponent(inv_rc - inv_qc), {
        "experiment": f"dual-{kind}",
        "r": r,
        "q": q,
        **exps,
        "eps_exps": ",".join(str(k) for k in sorted(eps_exps)),
        "tau_cap": _DUAL_TAU_CAP,
    }, fit_variable="1/eps")
