import math

import numpy as np
import pytest

from restriction_lab.analysis import _gl, j0_extrema
from restriction_lab.errors import NumericalError
from restriction_lab.experiments import _column_blocks, _knapp_quadrant
from restriction_lab.exponents import DomainError
from restriction_lab import operator
from restriction_lab.norms import Grid2
from restriction_lab.operator import (
    Density,
    Point2,
    circle_norm,
    constant_reference,
    effective_node_count,
    extend,
    extend_on_grid,
    grid_factors,
    y_factor,
)

# centres x = -3..7 and y = -2..2 in unit and half-unit steps
GRID = Grid2(-3.5, 7.5, -2.25, 2.25, 11, 9)


def budget(grid):
    # grid_factors' full-circle node budget 8(|p_max| + 10), p_max the farthest corner
    return int(8 * (math.hypot(max(-grid.x0, grid.x1), max(-grid.y0, grid.y1)) + 10))


def field_on(density, grid):
    # the planes of e^{-iy} extend, put back together and turned by e^{iy}
    planes, ys = grid_factors(density, grid), grid.centers()[1]
    field = extend_on_grid(planes, y_factor(grid, ys, planes.shape[-1]))
    return (field[0] + 1j * field[1]) * np.exp(1j * ys)


class TestExtend:
    def test_constant_at_origin(self):
        assert abs(extend(Density.constant(), Point2(0, 0), 64) - 2 * math.pi) < 1e-12

    def test_constant_is_bessel(self):
        p = Point2(3.0, 4.0)
        val = extend(Density.constant(), p, 8 * 15)
        assert abs(val - constant_reference(p)) < 1e-10
        assert abs(val.imag) < 1e-12

    def test_cap_at_origin_is_arc_length(self):
        val = extend(Density.cap(0.5), Point2(0, 0), 64)
        assert abs(val - 2 * math.asin(0.5)) < 1e-12

    def test_power_singular_at_origin(self):
        ps = Density.power_singular(0.25, 0.4)
        exact = 0.25**0.6 / 0.6
        assert abs(extend(ps, Point2(0, 0), 400) - exact) < 1e-9 * exact

    def test_agreement_with_reference_sampled(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            rad = rng.uniform(0, 50)
            ang = rng.uniform(0, 2 * math.pi)
            p = Point2(rad * math.cos(ang), rad * math.sin(ang))
            nodes = int(8 * (p.norm + 10))
            err = abs(extend(Density.constant(), p, nodes) - constant_reference(p))
            assert err < 1e-8

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(19)
        for density in (Density.constant(), Density.cap(0.3),
                        Density.power_singular(0.5, 0.3)):
            for _ in range(10):
                p = Point2(*rng.uniform(-20, 20, size=2))
                plus = extend(density, p, 400)
                minus = extend(density, Point2(-p.x, -p.y), 400)
                assert abs(plus - minus.conjugate()) < 1e-12

    def test_modulus_bound_by_l1_norm(self):
        rng = np.random.default_rng(23)
        for density in (Density.constant(), Density.cap(0.25),
                        Density.power_singular(0.5, 0.4)):
            bound = circle_norm(density, 1)
            for _ in range(25):
                p = Point2(*rng.uniform(-30, 30, size=2))
                assert abs(extend(density, p, 500)) <= bound + 1e-10

    def test_minimum_node_requirement(self):
        with pytest.raises(DomainError):
            extend(Density.constant(), Point2(0, 0), 8)


class TestKnappBoxLowerBound:
    @pytest.mark.parametrize("delta", [0.25, 0.125])
    def test_real_part_on_dual_boxes(self, delta):
        # box around y = 2 pi j of height pi/8 and |x| <= (pi/8)/delta: the
        # phase stays within pi/4, so Re extend >= cos(pi/4) * arc length / 2
        c = math.pi / 8
        arc = 2 * math.asin(delta)
        floor = math.cos(math.pi / 4) * arc * 0.5
        rng = np.random.default_rng(5)
        for j in range(1, 9):
            for _ in range(8):
                x = rng.uniform(-c / delta, c / delta)
                y = rng.uniform(2 * math.pi * j - c / math.sqrt(1 - delta**2),
                                2 * math.pi * j + c)
                val = extend(Density.cap(delta), Point2(x, y), 600)
                assert val.real >= floor

    def test_extension_magnitude_scales_like_delta_on_boxes(self):
        vals = []
        for delta in (0.25, 0.125, 0.0625):
            v = extend(Density.cap(delta), Point2(0.0, 2 * math.pi), 600)
            vals.append(abs(v))
        assert 1.7 < vals[0] / vals[1] < 2.3
        assert 1.7 < vals[1] / vals[2] < 2.3


class TestGridEvaluation:
    def test_matches_pointwise(self):
        xs, ys = GRID.centers()
        cap = Density.cap(0.25)
        grid = field_on(cap, GRID)
        for i in (0, 5, 10):
            for j in (0, 4, 8):
                direct = extend(cap, Point2(xs[i], ys[j]), budget(GRID))
                assert abs(grid[i, j] - direct) < 1e-12

    def test_first_bessel_zero(self):
        p = Point2(2.404825557695773, 0.0)
        assert abs(constant_reference(p)) < 1e-8

    def test_first_extremum_is_negative(self):
        z1 = j0_extrema(1).z[0]
        assert constant_reference(Point2(z1, 0.0)) < 0


class TestFoldedCapFactors:
    # the cap's rule is symmetric under phi <-> -phi, so extend_on_grid sums each
    # pair as one real cosine column; pointwise extend sums all K nodes apart

    @pytest.mark.parametrize("k, n_nodes", [(2, 20), (3, 23)])
    def test_folded_grid_matches_pointwise_extend(self, monkeypatch, k, n_nodes):
        delta = 2.0**-k
        grid = _knapp_quadrant(delta)
        nodes, cap, arc = budget(grid), Density.cap(delta), 2 * math.asin(delta)
        assert effective_node_count(nodes, arc) == n_nodes
        xs, ys = grid.centers()
        budgets, rule = [], operator._quad_rule
        monkeypatch.setattr(operator, "_quad_rule", lambda d, n: budgets.append(n) or rule(d, n))
        planes = grid_factors(cap, grid)
        assert budgets == [nodes]  # grid_factors' own budget, from the quadrant's far corner
        assert planes.dtype == np.float64 and planes.shape == (2, grid.nx, 12)
        field = field_on(cap, grid)
        rng = np.random.default_rng(k)
        rows = [0, grid.nx - 1, *rng.integers(grid.nx, size=60)]
        cols = [0, grid.ny - 1, *rng.integers(grid.ny, size=60)]
        for i, j in zip(rows, cols):
            direct = extend(cap, Point2(xs[i], ys[j]), nodes)
            assert abs(field[i, j] - direct) <= 1e-13 * arc, (i, j)

    def test_gauss_legendre_rules_are_symmetric_bit_for_bit(self):
        for k in range(1, 8):
            delta = 2.0**-k
            n = effective_node_count(budget(_knapp_quadrant(delta)), 2 * math.asin(delta))
            t, w = _gl(n)
            assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1]), n

    def test_an_asymmetric_rule_is_refused(self, monkeypatch):
        phi, w = np.array([-0.5, 0.0, 0.5]), np.array([0.3, 0.4, 0.3 + 1e-16])
        monkeypatch.setattr(operator, "_quad_rule", lambda density, nodes: (phi, w))
        with pytest.raises(NumericalError, match="not symmetric"):
            grid_factors(Density.cap(0.25), GRID)

    def test_other_densities_are_refused(self):
        for density in (Density.constant(), Density.power_singular(0.3, 0.5)):
            with pytest.raises(DomainError, match=f"cap density, not {density.kind!r}"):
                grid_factors(density, GRID)


class TestYExpansion:
    # e^{-iy} extend = sum_n A[x, n] v^n over the grid's y range, y = mid + half v, its
    # truncation at R terms bounded by theta^R/R! e^theta of the folded weights' sum

    @staticmethod
    def direct(cap, nodes, x, y):
        # the whole rule, with phases taken relative to e^{iy}: x sin phi - y (1 - cos phi)
        # spans a few radians at most, so its roundoff stays far below that of y cos phi
        phi, w = operator._quad_rule(cap, nodes)
        eps = 2 * np.sin(phi / 2) ** 2
        return np.exp(1j * (np.outer(x, np.sin(phi)) - np.outer(y, eps))) @ w

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_direct_phases_on_every_knapp_quadrant(self, k):
        delta = 2.0**-k
        grid = _knapp_quadrant(delta)
        cap, arc = Density.cap(delta), 2 * math.asin(delta)
        planes = grid_factors(cap, grid)
        xs, ys = grid.centers()
        rng = np.random.default_rng(k)
        rows = np.array([0, grid.nx - 1, *rng.integers(grid.nx, size=60)])
        cols = np.array([0, grid.ny - 1, *rng.integers(grid.ny, size=60)])
        p = y_factor(grid, ys[cols], planes.shape[-1])
        got = np.einsum("sin,ni->si", planes[:, rows], p)
        err = np.abs(got[0] + 1j * got[1] - self.direct(cap, budget(grid), xs[rows], ys[cols]))
        assert np.max(err) <= 1e-13 * arc, (k, np.max(err))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_rank_is_the_smallest_within_the_bound_and_at_most_16(self, k):
        delta = 2.0**-k
        grid = _knapp_quadrant(delta)
        rank = grid_factors(Density.cap(delta), grid).shape[-1]
        phi = operator._quad_rule(Density.cap(delta), budget(grid))[0]
        theta = (grid.y1 - grid.y0) / 2 * np.max(2 * np.sin(phi / 2) ** 2)
        assert 0.19 < theta < 0.2
        tail = [theta**n / math.factorial(n) * math.exp(theta) for n in (rank - 1, rank)]
        assert tail[1] <= 2.0**-56 < tail[0] and rank <= 16, (rank, theta)

    def test_a_theta_above_the_bound_raises(self):
        # half = 60 and max eps = 0.0317 on the 84-node rule of delta = 1/4 that the
        # grid's budget 8(|p_max| + 10) = 1042 gives: theta = 1.90
        grid = Grid2(0.0, 8.0, 0.0, 120.0, 16, 16)
        with pytest.raises(NumericalError, match=r"theta = 1\.9\d* needs over 16 terms$"):
            grid_factors(Density.cap(0.25), grid)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_each_column_block_is_the_quadrant_factor_bit_for_bit(self, k):
        # v = (y - mid)/half is one division per centre, so a block's basis is the same
        # columns of the whole quadrant's, wherever the block starts
        grid = _knapp_quadrant(2.0**-k)
        rank = grid_factors(Density.cap(2.0**-k), grid).shape[-1]
        ys = grid.centers()[1]
        whole = y_factor(grid, ys, rank)
        assert whole.shape == (rank, grid.ny) and np.all(np.abs(whole) <= 1)
        blocks = _column_blocks(grid)
        assert len(blocks) >= 3 and blocks[0][0] == 0 and blocks[-1][1] == grid.ny
        for j0, j1 in blocks:
            assert np.array_equal(y_factor(grid, ys[j0:j1], rank), whole[:, j0:j1]), j0


class TestCircleNorm:
    def test_constant(self):
        assert abs(circle_norm(Density.constant(), 2) - math.sqrt(2 * math.pi)) < 1e-14
        assert circle_norm(Density.constant(), "inf") == 1.0

    def test_cap(self):
        assert abs(circle_norm(Density.cap(0.5), 1) - math.pi / 3) < 1e-14
        assert circle_norm(Density.cap(0.5), "inf") == 1.0

    def test_power_singular(self):
        assert abs(circle_norm(Density.power_singular(1.0, 0.5), 1) - 2.0) < 1e-14

    def test_power_singular_domain(self):
        with pytest.raises(DomainError):
            circle_norm(Density.power_singular(0.5, 0.5), 2)  # mu r = 1
        with pytest.raises(DomainError):
            circle_norm(Density.power_singular(0.5, 0.5), "inf")

    def test_r_below_one(self):
        with pytest.raises(DomainError):
            circle_norm(Density.constant(), "1/2")


class TestDensityValidation:
    def test_cap_width(self):
        with pytest.raises(DomainError):
            Density.cap(1.5)

    def test_power_exponent(self):
        with pytest.raises(DomainError):
            Density.power_singular(0.5, 1.0)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Point2(math.inf, 0), ValueError, "^points must be finite$"),
        (lambda: Density.power_singular(1.5, 0.3), DomainError,
         r"^support width delta must lie in \(0,1\]$"),
        (lambda: extend(Density("conic"), Point2(1, 2), 16), DomainError,
         "^unknown density kind 'conic'$"),
        (lambda: circle_norm(Density("conic"), 2), DomainError,
         "^unknown density kind 'conic'$"),
    ], ids=["point", "support-width", "extend-kind", "circle-norm-kind"])
    def test_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_node_scaling(self):
        assert effective_node_count(1000, 2 * math.pi) == 1000
        assert effective_node_count(1000, 0.001) == 16
