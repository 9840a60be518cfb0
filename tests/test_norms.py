import math

import numpy as np
import pytest

from restriction_lab.errors import NumericalError
from restriction_lab.norms import (
    Grid2,
    Sampled1,
    WeightSpec,
    weak_lq_1d,
    weighted_lq_2d,
)


def on_grid(f, grid):
    xs, ys = grid.centers()
    return f(xs[:, None], ys[None, :])


def ones(grid):
    return np.ones((grid.nx, grid.ny))


class TestWeightedLq2d:
    # the frame share these two once checked is gone; their norm checks stay
    def test_unit_mass_and_frame_share(self):
        grid = Grid2(0, 1, 0, 1, 100, 100)
        norm = weighted_lq_2d(ones(grid), grid, WeightSpec.separable(0, 0), 2)
        assert abs(norm - 1) < 1e-12

    def test_frame_share_counts_boundary_centers_as_inner(self):
        grid = Grid2(0, 10, 0, 10, 10, 10)
        norm = weighted_lq_2d(ones(grid), grid, WeightSpec.separable(0, 0), 2)
        assert abs(norm - 10) < 1e-12

    def test_quasinorm_below_one(self):
        grid = Grid2(0, 1, 0, 1, 64, 64)
        norm = weighted_lq_2d(ones(grid), grid, WeightSpec.separable(0, 0), 0.5)
        assert abs(norm - 1) < 1e-12

    def test_homogeneity(self):
        grid = Grid2(-2, 2, -1, 3, 37, 41)
        f = lambda x, y: np.cos(x) * np.exp(-(y**2)) + 0.3
        base = weighted_lq_2d(on_grid(f, grid), grid, WeightSpec.radial(0.7), 1.5)
        scaled = weighted_lq_2d(5.0 * on_grid(f, grid), grid,
                                   WeightSpec.radial(0.7), 1.5)
        assert abs(scaled - 5.0 * base) < 1e-12 * scaled

    def test_monotonicity(self):
        grid = Grid2(-1, 1, -1, 1, 33, 29)
        small = lambda x, y: np.abs(np.sin(3 * x + y))
        big = lambda x, y: np.abs(np.sin(3 * x + y)) + 0.1
        for w in (WeightSpec.separable(0, 0), WeightSpec.separable(1, 2),
                  WeightSpec.radial(1)):
            ns = weighted_lq_2d(on_grid(small, grid), grid, w, 2)
            nb = weighted_lq_2d(on_grid(big, grid), grid, w, 2)
            assert ns <= nb

    def test_refinement_is_second_order(self):
        f = lambda x, y: np.exp(x) * np.cos(2 * y)
        fine = Grid2(0, 1, 0, 1, 512, 512)
        exact_ref = weighted_lq_2d(on_grid(f, fine), fine, WeightSpec.separable(0, 0), 2)
        errs = []
        for n in (16, 32, 64):
            grid = Grid2(0, 1, 0, 1, n, n)
            val = weighted_lq_2d(on_grid(f, grid), grid, WeightSpec.separable(0, 0), 2)
            errs.append(abs(val - exact_ref))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_weight_factors(self):
        grid = Grid2(0, 2, 0, 2, 50, 50)
        xs, ys = grid.centers()
        sep = WeightSpec.separable(1.0, 2.0).inverse_factor(xs[:, None], ys[None, :])
        assert np.allclose(sep, (1 + xs[:, None]) ** -1 * (1 + ys[None, :]) ** -2)
        rad = WeightSpec.radial(0.5).inverse_factor(xs[:, None], ys[None, :])
        assert np.allclose(rad, (1 + xs[:, None] + ys[None, :]) ** -0.5)

    @pytest.mark.parametrize("weight", [
        WeightSpec.separable(0.0, 0.0), WeightSpec.separable(0.0, 0.8),
        WeightSpec.separable(4 / 3, 0.0), WeightSpec.separable(4 / 3, 0.8),
        WeightSpec.radial(0.0), WeightSpec.radial(1.5),
    ])
    def test_weight_factors_match_the_pow_form_bit_for_bit(self, weight):
        # a zero exponent skips its abs and pow: t ** -0.0 is exactly 1.0
        def pow_form(x, y):
            ax, ay = np.abs(x), np.abs(y)
            if weight.kind == "separable":
                return (1 + ax) ** -weight.alpha * (1 + ay) ** -weight.beta
            return (1 + ax + ay) ** -weight.gamma

        x, y = np.random.default_rng(7).normal(scale=40.0, size=(2, 6, 5))
        cases = [(x, y), (x[:, :1], y[:1]), (x[:, 0], 0.0), (0.0, y[0]), (x, 0.0),
                 (x[0, :, None], y[0, 0, None]), (1.5, -2.0), (np.array([np.nan, np.inf]), 3.0)]
        for a, b in cases:
            got, ref = weight.inverse_factor(a, b), pow_form(a, b)
            assert np.shape(got) == np.shape(ref) and np.result_type(got) == np.result_type(ref)
            assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("weight", [
        WeightSpec.separable(4 / 3, 4 / 5), WeightSpec.radial(1.5),
    ])
    def test_weight_factors_are_even_in_each_axis(self, weight):
        # the constant-density ring mass folds its angular nodes onto one
        # quadrant, which is exact only if w(+-x, +-y) has the same bits
        x, y = np.random.default_rng(5).normal(scale=40.0, size=(2, 10_000))
        ref = weight.inverse_factor(x, y)
        for sx, sy in ((-1, 1), (1, -1), (-1, -1)):
            assert np.array_equal(weight.inverse_factor(sx * x, sy * y), ref)

    def test_nan_raises(self):
        grid = Grid2(0, 1, 0, 1, 8, 8)
        bad = np.full((grid.nx, grid.ny), np.nan)
        with pytest.raises(NumericalError):
            weighted_lq_2d(bad, grid, WeightSpec.separable(0, 0), 2)

    def test_extension_norm_stable_under_refinement(self):
        # bounded weighted norm of the constant-density extension 2 pi J0(|p|) on a fixed box
        from restriction_lab.operator import constant_reference_radii

        vals = []
        for n in (320, 640):  # resolution 0.25 resolves the J0 period
            grid = Grid2(-40, 40, -40, 40, n, n)
            xs, ys = grid.centers()
            field = constant_reference_radii(np.hypot(xs[:, None], ys[None, :]))
            norm = weighted_lq_2d(field, grid, WeightSpec.separable(1, 1), 2)
            vals.append(norm)
        assert abs(vals[1] - vals[0]) < 0.01 * vals[1]


class TestWeakLq1d:
    def test_indicator(self):
        s = Sampled1(np.full(7, 1.0), np.full(7, 0.3))
        assert abs(weak_lq_1d(s, 2) - 2.1**0.5) < 1e-14

    def test_power_profile_on_unit_interval(self):
        # right-endpoint samples of x^{-1/2}: distribution min(1, t^{-2})
        n = 10**4
        xs = np.arange(1, n + 1) / n
        sample = Sampled1(xs ** (-0.5), np.full(n, 1.0 / n))
        assert abs(weak_lq_1d(sample, 2) - 1.0) < 0.02

    def test_weak_below_strong(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            vals = rng.exponential(1.0, size=300)
            meas = rng.uniform(0.01, 0.1, size=300)
            s = Sampled1(vals, meas)
            for q in (0.7, 1.0, 2.0, 3.5):
                strong = float(np.sum(meas * vals**q)) ** (1 / q)
                assert weak_lq_1d(s, q) <= strong + 1e-12

    def test_q_infinite_is_max(self):
        s = Sampled1(np.array([0.3, 2.5, 1.0]), np.array([1.0, 1e-6, 1.0]))
        assert weak_lq_1d(s, float("inf")) == 2.5

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 5, 100)
        meas = rng.uniform(0.1, 1, 100)
        a = weak_lq_1d(Sampled1(vals, meas), 1.5)
        b = weak_lq_1d(Sampled1(3 * vals, meas), 1.5)
        assert abs(b - 3 * a) < 1e-12 * b

    def test_all_zero(self):
        s = Sampled1(np.zeros(4), np.ones(4))
        assert weak_lq_1d(s, 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Sampled1(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Sampled1(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="^values and measures must be equal-length 1-D"):
            Sampled1(np.ones(2), np.ones(3))
        s = Sampled1(np.array([0.3, 2.5]), np.array([1.0, 1.0]))
        for q in (0.0, -1.0, float("nan")):  # NaN returned NaN
            with pytest.raises(ValueError, match="^q must be positive$"):
                weak_lq_1d(s, q)


class TestGrid2:
    def test_centers_midpoint(self):
        grid = Grid2(0, 1, 0, 2, 4, 8)
        xs, ys = grid.centers()
        assert xs[0] == 0.125 and ys[0] == 0.125
        assert grid.cell_measure == 0.25 * 0.25

    def test_centered_constructor(self):
        grid = Grid2.centered(16, 12.5, 0.25)
        assert grid.nx == 128 and grid.ny == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2(0, 1, 0, 1, 1, 8)
        with pytest.raises(ValueError):
            Grid2(1, 0, 0, 1, 4, 4)


class TestWeightSpec:
    EXPONENTS = r"^weight exponents must lie in \[0, inf\)$"

    @pytest.mark.parametrize("build, message", [
        (lambda: WeightSpec.separable(-0.1, 0), EXPONENTS),
        (lambda: WeightSpec.separable(0, -0.1), EXPONENTS),
        (lambda: WeightSpec.radial(-0.1), EXPONENTS),
        (lambda: WeightSpec.separable(math.nan, 0), EXPONENTS),
        (lambda: WeightSpec.separable(0, math.inf), EXPONENTS),
        (lambda: WeightSpec.radial(math.inf), EXPONENTS),
        (lambda: WeightSpec.radial(math.nan), EXPONENTS),
        (lambda: WeightSpec("conic"), "^unknown weight kind 'conic'$"),
    ], ids=["alpha", "beta", "gamma", "alpha-nan", "beta-inf", "gamma-inf", "gamma-nan",
            "kind"])
    def test_refused_when_built(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestWeightedLq2dOracle:
    # the direct formula (sum |f w^{-1}|^q cell)^{1/q}, weights written out, on a
    # grid of several row chunks; q/2 below one, one (no pow), integer and not an
    # integer, and the radial weight at gamma q = 1 (no pow of 1 + |x| + |y|) and above
    GRID = Grid2(-3.0, 5.0, -2.0, 7.0, 301, 257)
    WEIGHTS = [
        (WeightSpec.separable(0.3, 0.7),
         lambda x, y: (1 + np.abs(x)) ** -0.3 * (1 + np.abs(y)) ** -0.7),
        (WeightSpec.separable(0.0, 0.7), lambda x, y: (1 + np.abs(y)) ** -0.7 + 0 * x),
        (WeightSpec.radial(0.5), lambda x, y: (1 + np.abs(x) + np.abs(y)) ** -0.5),
    ]

    def field(self):
        rng = np.random.default_rng(20)
        shape = (self.GRID.nx, self.GRID.ny)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("weight, inverse", WEIGHTS)
    @pytest.mark.parametrize("q", [0.5, 2, 3, 4, 6])
    def test_matches_the_direct_formula(self, weight, inverse, q):
        grid, vals = self.GRID, self.field()
        xs, ys = grid.centers()
        mass = np.abs(vals * inverse(xs[:, None], ys[None, :])) ** q * grid.cell_measure
        norm = weighted_lq_2d(vals, grid, weight, q)
        assert norm == pytest.approx(math.fsum(mass.ravel()) ** (1 / q), rel=1e-13)

    @pytest.mark.parametrize("weight, inverse", WEIGHTS)
    @pytest.mark.parametrize("q", [0.5, 2, 6])
    def test_planes_are_the_complex_field(self, weight, inverse, q):
        vals = self.field()
        planes = np.stack((vals.real, vals.imag))
        got = weighted_lq_2d(planes, self.GRID, weight, q)
        assert got == pytest.approx(weighted_lq_2d(vals, self.GRID, weight, q), rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_one_non_finite_cell_raises(self, bad):
        vals = self.field()
        vals[150, 3] = bad
        with pytest.raises(NumericalError, match="non-finite density values"):
            weighted_lq_2d(vals, self.GRID, WeightSpec.radial(0.5), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_one_non_finite_cell_raises_through_the_separable_products(self, bad):
        vals = self.field()
        vals[150, 3] = bad
        with pytest.raises(NumericalError, match="non-finite density values"):
            weighted_lq_2d(vals, self.GRID, WeightSpec.separable(0.3, 0.7), 3)

    def test_non_finite_plane_raises(self):
        planes = np.stack((self.field().real, self.field().imag))
        planes[1, 150, 3] = np.nan
        with pytest.raises(NumericalError, match="non-finite density values"):
            weighted_lq_2d(planes, self.GRID, WeightSpec.separable(0.3, 0.7), 6)

    def test_wrong_shape_raises(self):
        vals = self.field()
        for bad in (vals.T, np.stack((vals.real,) * 3), np.stack((vals, vals))):
            with pytest.raises(ValueError, match="shape"):
                weighted_lq_2d(bad, self.GRID, WeightSpec.radial(0.5), 2)

    @pytest.mark.parametrize("q", [0.0, math.inf])
    def test_q_outside_zero_to_inf_raises(self, q):
        with pytest.raises(ValueError, match="^q must be positive and finite$"):
            weighted_lq_2d(self.field(), self.GRID, WeightSpec.radial(0.5), q)

    def test_finite_field_whose_mass_overflows_raises(self):
        vals = np.full((self.GRID.nx, self.GRID.ny), 1e200)  # |f|^2 overflows to inf
        with np.errstate(over="ignore"), pytest.raises(
                NumericalError, match="^q-th power mass is not finite$"):
            weighted_lq_2d(vals, self.GRID, WeightSpec.separable(0.3, 0.7), 2)
