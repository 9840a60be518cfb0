import ast
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, kv

from restriction_lab import analysis
from restriction_lab.analysis import (
    bessel_j0,
    cosine_weight_kernel,
    cosine_weight_kernel_many,
    fresnel_constant,
    hankel_decay_transform,
    hankel_decay_transform_many,
    j0_extrema,
    j0_zeros,
)
from restriction_lab.errors import NumericalError

# --- independent series oracles: straight float64 power series + bisection ---


def series_j0(x: float) -> float:
    u = x * x / 4
    total, term = 0.0, 1.0
    for m in range(40):
        total += term if m % 2 == 0 else -term
        term *= u / ((m + 1) * (m + 1))
    return total


def series_j0_deriv(x: float) -> float:
    # J0' = -J1 via the J1 power series
    u = x * x / 4
    total, term = 0.0, 1.0
    for m in range(40):
        total += term if m % 2 == 0 else -term
        term *= u / ((m + 1) * (m + 2))
    return -x / 2 * total


def incomplete_gamma_kernel(kappa: float, lam: float) -> float:
    """K(kappa, lambda) = Re e^{-i lambda} (-i lambda)^{kappa-1} Gamma(1-kappa, -i lambda),
    with kappa - 1 exact: rounded in floats, it moves K by about |ln lambda| 5.5e-17."""
    with mpmath.workdps(40):
        z, k = mpmath.mpc(0, -lam), mpmath.mpf(kappa)
        return float(mpmath.re(mpmath.exp(z) * z ** (k - 1) * mpmath.gammainc(1 - k, z)))


def full_kernel_series(kap, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K's series and its guard with the 13-term Horner sum and np.sin(lambda + t) at
    every lambda, as ``analysis._kernel_series`` summed it before it skipped both where
    lambda + t rounds to t = pi kappa/2."""
    coef = [1.0 / (1.0 - kap)]
    for m in range(1, 13):
        coef.append(-coef[-1] / ((2 * m - kap) * (2 * m + 1 - kap)))
    lam2, poly = lam * lam, coef[-1]
    for c in coef[-2::-1]:
        poly = poly * lam2 + c
    lead = np.vectorize(math.gamma, otypes=[float])(1.0 - kap) * lam**kap / lam
    value = lead * np.sin(lam + 0.5 * math.pi * kap) - poly
    return value, (lam <= 2.0) & (lead / 2.0**7 <= np.abs(value))


def hankel_nicholson(delta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """H(delta, s) = 2 pi s^nu K_nu(s) / (2^nu Gamma(nu+1)), nu = delta/2 - 1."""
    nu = delta / 2 - 1
    return 2 * np.pi * s**nu * kv(nu, s) / (2**nu * gamma(nu + 1))


def besselk_hankel(delta: float, s: float) -> float:
    """H(delta, s) = 2 pi s^nu K_nu(s) / (2^nu Gamma(nu+1)), nu = delta/2 - 1, in mpmath."""
    with mpmath.workdps(40):
        d, x = mpmath.mpf(delta), mpmath.mpf(s)
        nu = d / 2 - 1
        return float(2 * mpmath.pi * x**nu * mpmath.besselk(nu, x) / (2**nu * mpmath.gamma(nu + 1)))


def bisect(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) <= 0) == (flo <= 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero_from_series_bisection(self):
        root = bisect(series_j0, 2.0, 3.0)
        assert abs(root - 2.404825557695773) < 1e-12
        assert abs(bessel_j0(root)) < 1e-10

    def test_first_extremum_from_series_bisection(self):
        ext = bisect(series_j0_deriv, 3.0, 4.5)
        assert abs(ext - 3.8317059702075123) < 1e-12
        assert abs(float(analysis._j1(ext))) < 1e-10  # J0' = -J1

    def test_against_series_below_crossover(self):
        for x in np.linspace(0.01, 6.9, 113):
            assert abs(bessel_j0(x) - series_j0(x)) < 2e-13

    def test_modulus_bound_to_1e4(self):
        xs = np.linspace(0.0, 1e4, 200001)
        vals = np.array([0.0])
        from restriction_lab.analysis import _j0

        vals = _j0(xs)
        assert np.max(np.abs(vals)) <= 1.0

    def test_tier_seams_match_reference(self):
        import scipy.special as sp

        for seam in (7.0, 17.0):
            for x in (seam - 1e-9, seam, seam + 1e-9):
                assert abs(bessel_j0(x) - sp.j0(x)) < 1e-12

    def test_integral_tier_within_5e_16_of_mpmath(self):
        # measured 1.9e-16 (J0 and J1)
        xs = np.random.default_rng(7).uniform(0.0, 17.0, 300)
        with mpmath.workdps(40):
            j0 = np.array([float(mpmath.besselj(0, mpmath.mpf(x))) for x in xs])
            j1 = np.array([float(mpmath.besselj(1, mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(analysis._j0(xs) - j0)) <= 5e-16
        assert np.max(np.abs(analysis._j1(xs) - j1)) <= 5e-16

    def test_integral_tier_is_batch_independent(self):
        # chunked by rows, each row's node sum reduced within itself
        xs = np.random.default_rng(8).uniform(0.0, 17.0, 5000)
        for ev in (analysis._j0, analysis._j1):
            whole = ev(xs)
            for k in (1, 3, 1000, 1025):
                sliced = np.concatenate([ev(xs[i : i + k]) for i in range(0, xs.size, k)])
                assert np.array_equal(whole, sliced)

    @pytest.mark.parametrize("nu", [1, 0], ids=["extrema", "zeros"])
    def test_first_five_roots_within_one_ulp(self, nu):
        # measured at most 0.75 ulp (extrema) and 0.91 ulp (zeros)
        z = j0_extrema(5).z if nu else j0_zeros(5)
        with mpmath.workdps(40):
            exact = [mpmath.besseljzero(nu, k) for k in range(1, 6)]
            ulps = [abs(float((mpmath.mpf(a) - e) / np.spacing(a))) for a, e in zip(z, exact)]
        assert max(ulps) <= 1.0

    @pytest.mark.parametrize("nu", [1, 0], ids=["extrema", "zeros"])
    def test_asymptotic_tier_roots_within_one_ulp(self, nu):
        # roots past x = 17, where J0 and J1 take the Hankel expansion; measured 0.28, 0.22,
        # 0.96 and 0.23 ulp (extrema), 0.27, 0.15, 0.33 and 0.01 ulp (zeros)
        ks = [6, 10, 100, 1000]
        z = (j0_extrema(1000).z if nu else j0_zeros(1000))[np.array(ks) - 1]
        assert z.min() > analysis._ASYMP_CUT
        with mpmath.workdps(40):
            exact = [mpmath.besseljzero(nu, k) for k in ks]
            ulps = [abs(float((mpmath.mpf(a) - e) / np.spacing(a))) for a, e in zip(z, exact)]
        assert max(ulps) <= 1.0, ulps

    @pytest.mark.parametrize("nu", [0, 1])
    def test_hankel_coefficients_are_the_exact_rationals_rounded_once(self, nu):
        exact = [math.prod((Fraction(4 * nu**2 - (2 * j - 1) ** 2, 8 * j) for j in range(1, k + 1)),
                           start=Fraction(1)) for k in range(24)]
        p, q = analysis._HANKEL_COEFFICIENTS[nu]
        assert p == [float((-1) ** m * exact[2 * m]) for m in range(12)]
        assert q == [float((-1) ** m * exact[2 * m + 1]) for m in range(12)]

    def test_asymptotic_tier_within_1e_15_of_mpmath(self):
        # measured 3.5e-16 (J0) and 5.8e-16 (J1); the bound the _hankel_pq docstring states
        xs = np.random.default_rng(9).uniform(17.0, 200.0, 300)
        with mpmath.workdps(40):
            j0 = np.array([float(mpmath.besselj(0, mpmath.mpf(x))) for x in xs])
            j1 = np.array([float(mpmath.besselj(1, mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(analysis._j0(xs) - j0)) <= 1e-15
        assert np.max(np.abs(analysis._j1(xs) - j1)) <= 1e-15

    @pytest.mark.parametrize("x", [1e154, 1e200, 1e250, 1e300])
    def test_extreme_arguments_take_the_leading_term(self, x):
        # t = (1/x)^2 underflows quietly; 1/(x*x) would overflow past 1.3e154 and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [float(analysis._j0(np.array([x]))[0]), float(analysis._j1(np.array([x]))[0])]
        lead = [math.sqrt(2 / (math.pi * x)) * math.cos(x - (2 * nu + 1) * math.pi / 4)
                for nu in (0, 1)]
        assert got == pytest.approx(lead, rel=1e-15, abs=0.0)

    def test_extreme_arguments_pinned(self):
        assert float(analysis._j0(np.array([1e300]))[0]) == pytest.approx(-4.59e-151, rel=1e-3)
        assert float(analysis._j0(np.array([1e200]))[0]) == pytest.approx(6.10e-101, rel=1e-3)
        assert float(analysis._j1(np.array([1e250]))[0]) == pytest.approx(3.48e-126, rel=1e-3)

    def test_asymptotic_tier_is_batch_independent(self):
        # every point takes the same fixed-degree polynomial, so a value never depends
        # on its batch
        xs = np.geomspace(17, 1e4, 200000)
        whole = analysis._j0(xs)
        sliced = np.concatenate([analysis._j0(xs[i : i + 16]) for i in range(0, xs.size, 16)])
        assert np.array_equal(whole, sliced)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bessel_j0(float("inf"))

    def test_scipy_oracle_to_1e7(self):
        # measured 5.6e-16 (J0) and 3.7e-16 (J1)
        import scipy.special as sp

        xs = np.concatenate([np.linspace(0.0, 1e7, 200001), np.geomspace(1e-3, 1e7, 100001),
                             np.linspace(0.0, 40.0, 40001)])
        assert np.max(np.abs(analysis._j0(xs) - sp.j0(xs))) <= 2e-15
        assert np.max(np.abs(analysis._j1(xs) - sp.j1(xs))) <= 2e-15

    def test_reduced_argument_error_near_1e7(self):
        # x - pi/4 rounds to ulp(x)/2 ~ 1e-9 near 1e7, times the amplitude 2.5e-4;
        # measured 1.6e-13 against 40-digit J0 (scipy's error is the same)
        xs = np.random.default_rng(5).uniform(1e5, 1e7, 60)
        exact = np.array([float(mpmath.besselj(0, mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(analysis._j0(xs) - exact)) <= 3e-13


class TestExtrema:
    def test_first_extremum(self):
        table = j0_extrema(1)
        assert abs(table.z[0] - 3.8317059702) < 1e-9

    def test_spacing_near_pi(self):
        table = j0_extrema(50)
        assert 3.0 < table.z[1] - table.z[0] < 3.3
        assert abs(table.z[49] - table.z[48] - math.pi) < 1e-2

    def test_envelope_margin_1000(self):
        table = j0_extrema(1000)
        assert table.envelope_margin() >= 0.4

    def test_values_are_alternating_extrema(self):
        table = j0_extrema(12)
        signs = np.sign(table.values)
        assert np.all(signs[:-1] * signs[1:] == -1)
        assert table.values[0] < 0  # first extremum is the first minimum

    @staticmethod
    def scan_and_bisect_64(f, n):
        # the roots by definition: sign changes on the pi/8 scan grid, each
        # bracket halved 64 times
        grid = np.arange(0.5, (n + 2) * math.pi, math.pi / 8)
        vals = f(grid)
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][:n]
        lo, hi = grid[flips], grid[flips + 1]
        flo = f(lo)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            take_left = (flo <= 0) != (fmid <= 0)
            hi = np.where(take_left, mid, hi)
            lo, flo = np.where(take_left, lo, mid), np.where(take_left, flo, fmid)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 5000, 25_000])
    def test_roots_are_the_bits_of_plain_bisection(self, n):
        assert np.array_equal(j0_extrema(n).z, self.scan_and_bisect_64(analysis._j1, n))
        assert np.array_equal(j0_zeros(n), self.scan_and_bisect_64(analysis._j0, n))

    @pytest.mark.parametrize("wrong", [
        lambda d: lambda x, fx: np.ones_like(x),
        lambda d: lambda x, fx: -d(x, fx),
    ], ids=["constant", "negated"])
    def test_a_wrong_derivative_leaves_the_roots_alone(self, monkeypatch, wrong):
        # Newton only proposes points; the sign-change bracket decides the bits
        extrema, zeros = j0_extrema(1000).z, j0_zeros(41)
        monkeypatch.setattr(analysis, "_dj1", wrong(analysis._dj1))
        monkeypatch.setattr(analysis, "_dj0", wrong(analysis._dj0))
        assert np.array_equal(extrema, j0_extrema(1000).z)
        assert np.array_equal(zeros, j0_zeros(41))

    @pytest.fixture(scope="class")
    def extrema_25000(self):
        return j0_extrema(25_000)  # validates, or raises

    def test_validates_to_25000(self, extrema_25000):
        # at z ~ 7.9e4 a double holds z to 1.5e-11, so a 1e-11 |J0| residual
        # bound failed from j = 20,861 on: the residual is now read in ulp(z) |J0(z)|
        z, values = extrema_25000.z, extrema_25000.values
        assert np.max(np.abs(analysis._j1(z)) / (np.spacing(z) * np.abs(values))) <= 1.0

    @pytest.mark.parametrize("j", [0, 9_999, 24_999])
    @pytest.mark.parametrize("ulps", [8, -8])
    def test_a_root_moved_by_8_ulp_fails(self, extrema_25000, j, ulps):
        z = extrema_25000.z.copy()
        z[j] += ulps * np.spacing(z[j])
        with pytest.raises(NumericalError, match=r"ulp\(z\) \|J0\(z\)\| > 2"):
            analysis.ExtremaTable(z=z, values=analysis._j0(z)).validate()

    def test_zeros_interlace(self):
        zeros = j0_zeros(10)
        table = j0_extrema(9)
        assert np.all(zeros[:-1] < table.z[:9])
        assert np.all(table.z[:9] < zeros[1:])

    def test_no_roots_is_refused(self):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            j0_extrema(0)

    def test_a_bracket_without_a_sign_change_is_refused_before_newton(self):
        # J1 up to 3 pi, then 1: the ends of bracket 3, (5 pi/2, 7 pi/2), are both positive
        def f(x):
            return np.where(x < 3 * math.pi, analysis._j1(x), 1.0)

        def df(x, fx):
            raise AssertionError("a Newton step ran")

        with pytest.raises(NumericalError, match=r"^extrema bracket k = 3: f has one sign"):
            analysis._first_roots(f, df, 5, "extrema")


class TestCosineKernel:
    def test_small_lambda_law_half(self):
        # lambda^{1/2} K -> sqrt(pi/2); at lambda = 1e-3 the exact finite-lambda
        # correction is ~5%, within the paper's one-sided constant
        val = 1e-3**0.5 * cosine_weight_kernel(0.5, 1e-3)
        assert abs(val - 1.2533141) / 1.2533141 < 0.06

    def test_against_adaptive_quadrature(self):
        for kappa, lam in [(0.9, 1.0), (0.3, 0.07), (0.5, 12.0)]:
            oracle, err = quad(
                lambda r: (1 + r) ** (-kappa), 0, np.inf, weight="cos", wvar=lam,
                limit=400,
            )
            mine = cosine_weight_kernel(kappa, lam)
            assert abs(mine - oracle) <= 1e-6 * abs(oracle) + 2 * err

    def test_homogeneity_of_limit_law(self):
        # exact finite-lambda correction is (sqrt(2)-1) lambda^{1/2}/((1-k)C),
        # i.e. ~2.1% at lambda = 1e-3, and shrinks like sqrt(lambda)
        ratio = cosine_weight_kernel(0.5, 1e-3) / cosine_weight_kernel(0.5, 2e-3)
        assert abs(ratio - 2**0.5) / 2**0.5 < 0.03
        ratio4 = cosine_weight_kernel(0.5, 1e-5) / cosine_weight_kernel(0.5, 2e-5)
        assert abs(ratio4 - 2**0.5) / 2**0.5 < 0.003

    def test_law_converges_at_deep_lambda(self):
        # the limit itself, far below the slow O(lambda^{1-kappa}) transient
        for kappa in (0.3, 0.5, 0.7):
            lam = 1e-9
            val = lam ** (1 - kappa) * cosine_weight_kernel(kappa, lam)
            assert abs(val / fresnel_constant(kappa) - 1) < 0.02

    def test_batch_matches_scalar_and_is_batch_independent(self):
        lams = np.array([0.003, 1.0, 40.0, 1e-7])
        batch = cosine_weight_kernel_many(0.45, lams)
        for lam, got in zip(lams, batch):
            assert got == cosine_weight_kernel(0.45, lam)

    def test_batch_independent_across_chunks_and_depths(self):
        # 3000 lambda span several row chunks and node counts of the quadrature
        lams = np.geomspace(1e-300, 30, 3000)
        batch = cosine_weight_kernel_many(5 / 9, lams)
        scalar = np.array([cosine_weight_kernel(5 / 9, lam) for lam in lams])
        assert np.array_equal(batch, scalar)

    # the bound the docstring states; measured 5.6e-16 at worst over this grid and 300
    # random points
    @pytest.mark.parametrize("kappa", [1e-5, 0.05, 0.5, 5 / 9, 0.9, 0.99, 0.99999])
    def test_quadrature_meets_the_closed_form(self, kappa):
        lams = [1e-300, 1e-200, 1e-100, 1e-40, 1e-12, 1e-05, 0.01, 0.3, 1.0, 2.0,
                math.nextafter(2.0, 3.0), 2.0000001, 3.0, 10.0, 31.4, 100.0]
        got = analysis._kernel_quadrature(kappa, np.array(lams))
        want = np.array([incomplete_gamma_kernel(kappa, lam) for lam in lams])
        assert np.max(np.abs(got / want - 1)) <= 1e-14

    def test_deep_batch_temporaries_are_bounded(self):
        # every lambda here takes a window of 1,315 to 1,317 nodes, 24 rows a chunk
        lams = np.geomspace(1e-300, 1e-200, 4096)
        tracemalloc.start()
        try:
            analysis._kernel_quadrature(5 / 9, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cosine_weight_kernel(1.5, 1.0)
        with pytest.raises(ValueError):
            cosine_weight_kernel(0.5, 0.0)
        for kappas in ([0.5, 1.0], [0.5, np.nan], [0.0, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
            with pytest.raises(ValueError, match="kappa"):
                cosine_weight_kernel_many(np.array(kappas), np.array([1.0, 2.0]))
        for lam in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                cosine_weight_kernel(0.5, lam)
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                cosine_weight_kernel_many(np.array([0.3, 0.5]), np.array([1.0, lam]))

    def test_rejects_lambda_past_its_error_bound(self):
        assert cosine_weight_kernel(0.5, 100.0) > 0
        for lam in (math.nextafter(100.0, math.inf), 1e3, 1e50):
            message = "^" + re.escape(f"lambda = {lam!r} is above 100, ")
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel(0.5, lam)
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel_many(np.array([0.3, 0.5]), np.array([1.0, lam]))

    def test_rejects_lambda_below_its_error_bound(self):
        # below 1e-300, lambda^{kappa-1} overflows in the series, and at 1e-310 it gave inf
        assert 0 < cosine_weight_kernel(0.001, 1e-300) < np.inf
        for lam in (math.nextafter(1e-300, 0.0), 2.2250738585072014e-308, 1e-310, 5e-324):
            message = "^" + re.escape(f"lambda = {lam!r} is below 1e-300, ") + "the smallest"
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel(0.001, lam)
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel_many(np.array([0.3, 0.5]), np.array([1.0, lam]))

    # the bounds the docstring states: 1e-13 where the series may serve, 1e-14 where
    # only the quadrature does; measured 5.3e-15, 3.3e-16, 5.7e-15, 2.2e-16 and 2.2e-16
    @pytest.mark.parametrize("kappas, lams, bound", [
        ([0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.99999], [1e-20, 1e-6, 1e-3, 0.1, 1.0, 10.0], 1e-13),
        ([0.3, 0.7, 0.87, 0.93, 0.95, 0.99999], [1e-300, 1e-200, 1e-100], 1e-13),
        ([1e-3, 0.01, 0.1], [1e-300, 1e-20, 1e-6, 1e-3, 0.1, 1.0, 10.0], 1e-13),
        ([0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.99999], [12.5, 31.4, 64.0, 77.7, 90.0, 100.0],
         1e-14),
        ([1e-3, 0.01, 0.1], [12.5, 31.4, 64.0, 90.0, 100.0], 1e-14),
    ])
    def test_incomplete_gamma_closed_form(self, kappas, lams, bound):
        # one call, a kappa per row: the per-sample exponents meet the oracle too
        got = cosine_weight_kernel_many(np.array(kappas)[:, None], np.array(lams))
        want = np.array([[incomplete_gamma_kernel(k, lam) for lam in lams] for k in kappas])
        assert np.max(np.abs(got / want - 1)) <= bound

    def test_per_sample_kappa_matches_one_call_per_kappa(self):
        kappas = np.array([0.05, 0.3, 5 / 9, 0.99])
        lams = np.geomspace(1e-300, 30, 300)
        got = cosine_weight_kernel_many(kappas[:, None], lams)
        for kappa, row in zip(kappas, got):
            want = cosine_weight_kernel_many(float(kappa), lams)
            assert np.max(np.abs(row / want - 1)) <= 1e-14

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.7])
    def test_law_deviation_is_the_finite_lambda_correction(self, kappa):
        # |lambda^{1-k} K / C - 1| at lambda = 1e-3 is not below 2% for every
        # kappa because it is the exact correction lambda^{1-k}/((1-k) C):
        # their quotient is near 1 and tends to 1 as lambda shrinks
        c = fresnel_constant(kappa)

        def quotient(lam):
            law_dev = abs(lam ** (1 - kappa) * cosine_weight_kernel(kappa, lam) / c - 1)
            return law_dev / (lam ** (1 - kappa) / ((1 - kappa) * c))

        at_3, at_4 = quotient(1e-3), quotient(1e-4)
        assert 0.85 <= at_3 <= 1.05
        assert abs(at_4 - 1) < abs(at_3 - 1)

    def test_non_convergence_names_kappa_and_lambda(self, monkeypatch):
        # a step of 2 leaves T_h and T_2h far apart; lambda = 3 is past the series'
        # domain, so it reaches the quadrature
        monkeypatch.setattr(analysis, "_STEP", 2.0)
        with pytest.raises(NumericalError, match=r"kappa=0\.4, lambda=3\.0\): relative residual "
                                                 r"[-+.e0-9]+ > tolerance 1e-09$"):
            cosine_weight_kernel_many(0.4, np.array([0.01, 3.0]))

    def test_a_subnormal_kappa_underflows_without_a_warning(self):
        # K ~ kappa/lambda^2 underflows to 0 there; the step check must not divide by it
        assert analysis._kernel_quadrature(5e-324, np.array([100.0]))[0] == 0.0

    @pytest.mark.parametrize("kappa", [5e-324, 1e-310])
    def test_a_subnormal_kappa_raises(self, kappa):
        # K's relative bound holds from kappa = 1e-300; below, K is subnormal or 0
        message = "^" + re.escape(f"kappa = {kappa!r} is below 1e-300, the smallest kappa its "
                                  "error bound covers") + "$"
        with pytest.raises(ValueError, match=message):
            cosine_weight_kernel(kappa, 100.0)
        with pytest.raises(ValueError, match=message):
            cosine_weight_kernel_many(np.array([0.5, kappa]), np.array([1.0, 1e-3]))
        assert cosine_weight_kernel(1e-300, 100.0) > 0

    def test_non_convergence_names_a_deep_lambda(self, monkeypatch):
        # K's deep lambda take the series; its quadrature still names them when called
        monkeypatch.setattr(analysis, "_STEP", 2.0)
        with pytest.raises(NumericalError, match=r"kappa=0\.4, lambda=1e-200\b"):
            analysis._kernel_quadrature(0.4, np.array([1e-200]))

    @pytest.mark.parametrize("kappa", [0.3, 5 / 9, 0.9])
    def test_deep_lambda_take_the_series_within_its_bound(self, kappa):
        # at every lambda below 1e-20 these kappa take the series, which meets the
        # quadrature within the series' bound; measured 1.2e-14
        lams = np.geomspace(1e-300, 1e-20, 302)
        got = cosine_weight_kernel_many(kappa, lams)
        value, held = analysis._kernel_series(kappa, lams)
        assert held.all() and np.array_equal(got, value)
        assert np.max(np.abs(got / analysis._kernel_quadrature(kappa, lams) - 1)) <= 1e-13

    # the bound the docstring states for the series, where it holds; measured 3.7e-14
    # at worst (kappa 0.9) and 3.8e-15 at kappa = 5/9.  The kernel takes the
    # quadrature where it does not, at the quadrature's own bounds
    @pytest.mark.parametrize("kappa", [1e-3, 0.3, 5 / 9, 0.9, 0.99, 0.999, 0.9999])
    def test_series_meets_the_closed_form(self, kappa):
        lams = np.concatenate([np.geomspace(1e-300, 2.0, 31), np.linspace(0.05, 1.95, 20)])
        value, held = analysis._kernel_series(kappa, lams)
        want = np.array([incomplete_gamma_kernel(kappa, lam) for lam in lams])
        assert np.all(np.abs(value / want - 1)[held] <= (1e-14 if kappa == 5 / 9 else 1e-13))
        got = cosine_weight_kernel_many(kappa, lams)
        assert np.array_equal(got[held], value[held])
        assert np.all(np.abs(got / want - 1) <= np.where(held, 1e-13, 1e-14))
        # F = Gamma(1-kappa) lambda^{kappa-1} / K: about 2/(pi kappa) at small lambda,
        # and large near kappa = 1 where K is small
        assert held.all() == (0.3 <= kappa <= 0.9)
        assert held.any() == (kappa > 1e-3)

    @settings(max_examples=100, deadline=None)
    @given(kappa=st.floats(1e-300, 1.0, exclude_max=True),
           lam=st.floats(math.log(1e-300), math.log(100.0)).map(math.exp))
    def test_positive_over_the_whole_domain(self, kappa, lam):
        # kappa from 1e-300: below, K ~ kappa/lambda^2 itself underflows at lambda = 100
        lam = min(max(lam, 1e-300), 100.0)
        assert cosine_weight_kernel(kappa, lam) > 0
        assert analysis._kernel_quadrature(kappa, np.array([lam]))[0] > 0

    @settings(max_examples=150, deadline=None)
    @given(kappa=st.floats(0.3, 0.99), ln_lam=st.floats(math.log(1e-20), math.log(2.0)))
    def test_series_matches_the_quadrature_on_their_overlap(self, kappa, ln_lam):
        # each within 1e-13 of the closed form there
        lam = np.array([math.exp(ln_lam)])
        value, held = analysis._kernel_series(kappa, lam)
        assume(held[0])
        assert abs(value[0] / analysis._kernel_quadrature(kappa, lam)[0] - 1) <= 2e-13

    @pytest.mark.parametrize("kappa, lam, routed", [
        (0.5, 2.0, False),  # the domain's end takes the series
        (0.5, math.nextafter(2.0, math.inf), True),  # past it, the quadrature
        (0.9999, 0.5, True),  # F ~ 1e5: the terms cancel
        (1e-3, 1e-300, True),  # F ~ 2/(pi kappa) = 637
        (0.01, 1e-300, False),  # F ~ 64
    ])
    def test_a_lambda_over_the_guard_reaches_the_quadrature(self, monkeypatch, kappa, lam,
                                                            routed):
        seen, quadrature = [], analysis._kernel_quadrature

        def recorded(kap, lams):
            seen.extend(lams.tolist())
            return quadrature(kap, lams)

        monkeypatch.setattr(analysis, "_kernel_quadrature", recorded)
        got = cosine_weight_kernel(kappa, lam)
        assert seen == ([lam] if routed else [])
        if routed:
            assert got == quadrature(kappa, np.array([lam]))[0]

    # kappa within 3 ulps of 1/pi and 2/pi, where t = pi kappa/2 crosses 1/2 and 1 and
    # ulp(t) doubles: t runs 1/2 - 3 ulps .. 1/2 + 2 ulps and 1 - 3 ulps .. 1 + 2 ulps
    EDGE_KAPPAS = [c + j * math.ulp(c) for c in (1 / math.pi, 2 / math.pi) for j in range(-3, 4)]

    @settings(max_examples=200, deadline=None)
    @given(kappa=st.one_of(st.sampled_from(EDGE_KAPPAS), st.floats(1e-3, 0.999)),
           other=st.floats(1e-3, 0.999),
           ln_lams=st.lists(st.floats(math.log(1e-300), math.log(1e-12)), max_size=6))
    def test_rounded_away_lambda_is_bit_identical(self, kappa, other, ln_lams):
        # where lambda + t rounds to t the series is lead sin(t) - c_0, which must be
        # the full sum's value and guard bit for bit: lambda at the float neighbours of
        # ulp(t)/2, where that rounding starts, and across [1e-300, 1e-12]
        assert sorted({math.ulp(0.5 * math.pi * k) for k in self.EDGE_KAPPAS}) == [
            2.0**-54, 2.0**-53, 2.0**-52]
        t = 0.5 * math.pi * kappa
        edge = [math.ulp(t) / 2]
        for _ in range(2):
            edge = [math.nextafter(edge[0], 0.0)] + edge + [math.nextafter(edge[-1], 1.0)]
        lams = np.array(edge + [max(math.exp(x), 1e-300) for x in ln_lams])
        assert np.any(lams + t == t) and not np.all(lams + t == t)
        want = full_kernel_series(kappa, lams)
        for kap in (kappa, np.asarray(kappa)):
            assert all(map(np.array_equal, analysis._kernel_series(kap, lams), want))
        kappas = np.resize([kappa, math.nextafter(kappa, 0.0), math.nextafter(kappa, 1.0),
                            other], lams.size)  # a kappa per lambda, as the dual scan's
        got = analysis._kernel_series(kappas, lams)
        assert all(map(np.array_equal, got, full_kernel_series(kappas, lams)))
        for lam, value, held in zip(lams, *want):  # a 0-d lambda
            if held:
                assert cosine_weight_kernel(kappa, lam) == value

    def test_adding_a_lambda_changes_no_value(self, monkeypatch):
        # a lambda's route and value are its own: not the batch's largest lambda, not
        # its series chunk, not what else reaches the quadrature
        lams = np.concatenate([np.geomspace(1e-300, 2.0, 2500), [0.5, 3.0, 60.0]])
        base = cosine_weight_kernel_many(0.999, lams)
        for extra in (2.0, 1e-300, 0.7, 1.0, 99.0):
            grown = cosine_weight_kernel_many(0.999, np.append(lams, extra))
            assert grown[:-1].tobytes() == base.tobytes()
        monkeypatch.setattr(analysis, "_CHUNK_NODES", 1000)  # three series chunks
        assert cosine_weight_kernel_many(0.999, lams).tobytes() == base.tobytes()


class TestFresnelConstant:
    # kappa = i/20 and both ends of (0, 1); measured 2.8e-16 at worst
    @pytest.mark.parametrize("kappa", [0.5, 0.25, 0.75] + [
        i / 20 for i in range(1, 20) if i % 5] + [1e-5, 1e-3, 0.97, 0.99, 0.9999, 0.99999])
    def test_gamma_oracle(self, kappa):
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            oracle = mpmath.gamma(1 - k) * mpmath.sin(mpmath.pi * k / 2)
            assert abs(mpmath.mpf(fresnel_constant(kappa)) / oracle - 1) <= 1e-15

    def test_positive_on_grid(self):
        for i in range(1, 18):
            assert fresnel_constant(i / 18) > 0

    @pytest.mark.parametrize("kappa", [0.0, 1.0, math.nan])
    def test_kappa_outside_the_open_interval_is_refused(self, kappa):
        with pytest.raises(ValueError, match=r"^kappa must lie in \(0,1\)$"):
            fresnel_constant(kappa)


class TestHankelTransform:
    def test_scaling_ratio(self):
        h1 = hankel_decay_transform(1.5, 1e-2)
        h2 = hankel_decay_transform(1.5, 5e-3)
        assert abs(h1 / h2 - 2 ** (1.5 - 2)) / 2**-0.5 < 0.05

    def test_brute_force_oracle_at_s_one(self):
        import scipy.special as sp

        r = np.linspace(1e-9, 20000.0, 2_000_001)
        integrand = 2 * math.pi * r * (1 + r * r) ** -0.75 * sp.j0(r)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        oracle = trapezoid(integrand, r)
        mine = hankel_decay_transform(1.5, 1.0)
        assert abs(mine - oracle) < 1e-3 * abs(mine)

    def test_bounded_as_delta_approaches_two(self):
        val = hankel_decay_transform(1.999, 1e-2)
        assert math.isfinite(val)
        assert 0 < val < 1e3

    def test_batch_matches_scalar(self):
        svals = np.array([1e-3, 0.3, 1.9])
        batch = hankel_decay_transform_many(1.4, svals)
        for s, got in zip(svals, batch):
            assert got == hankel_decay_transform(1.4, s)

    def test_batch_independent_across_chunks_and_depths(self):
        svals = np.geomspace(1e-300, 1.9, 2000)
        batch = hankel_decay_transform_many(1.5, svals)
        scalar = np.array([hankel_decay_transform(1.5, s) for s in svals])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("delta", [1.2, 1.5, 1.9])
    def test_finite_down_to_1e_300_and_on_the_small_s_law(self, delta):
        s = np.geomspace(1e-300, 1.9, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hankel_decay_transform_many(delta, s)
        assert np.all(np.isfinite(h))
        # H s^{2-delta} -> 2 pi 2^{1-delta} Gamma(1-delta/2) / Gamma(delta/2); the
        # correction scales like s^{2-delta}, still 3% at delta = 1.99, so delta <= 1.9
        law = 2 * math.pi * 2 ** (1 - delta) * math.gamma(1 - delta / 2) / math.gamma(delta / 2)
        small = s <= 1e-150
        assert np.max(np.abs(h[small] * s[small] ** (2 - delta) / law - 1)) < 1e-9

    @pytest.mark.parametrize("delta", [1.1, 1.5, 1.9])
    def test_growth_factor_is_one_power(self, monkeypatch, delta):
        # the quadrature's H = pi (s/2)^{delta-2} I / Gamma(delta/2); with I = 1 the factor
        # stands alone.  Against 40-digit mpmath (s/2) ** (delta - 2) reads at most 4.5e-16,
        # where exp((delta - 2) ln(s/2)) would carry about |(delta - 2) ln s| ulp
        monkeypatch.setattr(analysis, "_trapezoid", lambda f, lo, hi, context: np.ones_like(lo))
        s = np.geomspace(1e-300, 1e-250, 200)
        got = analysis._hankel_quadrature(delta, s)
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            exact = [mpmath.pi * (mpmath.mpf(x) / 2) ** (d - 2) / mpmath.gamma(d / 2) for x in s]
            err = max(abs(mpmath.mpf(g) / e - 1) for g, e in zip(got, exact))
        assert err <= 1e-15, float(err)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            hankel_decay_transform(2.5, 1.0)
        for deltas in ([1.5, 2.0], [1.5, np.nan], [1.0, 1.5], [1.5, np.inf], [-np.inf, 1.5]):
            with pytest.raises(ValueError, match="delta"):
                hankel_decay_transform_many(np.array(deltas), np.array([1.0, 2.0]))
        for s in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="s must be positive and finite"):
                hankel_decay_transform(1.5, s)
            with pytest.raises(ValueError, match="s must be positive and finite"):
                hankel_decay_transform_many(np.array([1.2, 1.5]), np.array([1.0, s]))

    def test_rejects_s_past_its_error_bound(self):
        assert hankel_decay_transform(1.5, 20.0) > 0
        for s in (math.nextafter(20.0, math.inf), 40.0, 100.0):
            message = "^" + re.escape(f"s = {s!r} is above 20, ")
            with pytest.raises(ValueError, match=message):
                hankel_decay_transform(1.5, s)
            with pytest.raises(ValueError, match=message):
                hankel_decay_transform_many(np.array([1.2, 1.9]), np.array([1.0, s]))

    @pytest.mark.parametrize("s", [1e-310, 5e-324])
    def test_a_subnormal_s_raises(self, s):
        # there 50/s overflows, and with it the quadrature's window arccosh(1 + 50/s)
        message = "^" + re.escape(f"s = {s!r} is below 1e-300, the smallest s its error bound")
        with pytest.raises(ValueError, match=message):
            hankel_decay_transform(1.999, s)
        with pytest.raises(ValueError, match="is below 1e-300"):
            hankel_decay_transform_many(np.array([1.2, 1.999]), np.array([1.0, s]))
        assert math.isfinite(hankel_decay_transform(1.999, 1e-300))

    @pytest.mark.parametrize("s", [math.nextafter(1e-300, 0.0), 1e-305, 2.3e-308])
    def test_s_below_the_floor_raises_where_h_would_overflow(self, s):
        # H grows like s^{delta-2}: at delta = 1.0001 and s = 2.3e-308 it is past the float
        # range, and this returned inf with an overflow warning; at s = 1e-300 it is finite
        with pytest.raises(ValueError, match="^" + re.escape(f"s = {s!r} is below 1e-300, ")):
            hankel_decay_transform(1.0001, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 6e300 < hankel_decay_transform(1.0000001, 1e-300) < 7e300

    ORACLE_DELTAS = [1.001, 1.01, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99, 1.999]

    # measured 1.1e-13 (3.2e-14 against mpmath: the rest is scipy's), 2.6e-14, 4.4e-16
    # and 1.3e-15
    @pytest.mark.parametrize("svals, bound", [
        ([1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0], 5e-13),
        ([1e-300, 1e-100, 1e-20], 1e-13),
        ([10.0], 1e-14),
        ([20.0], 1e-14),
    ])
    def test_hankel_nicholson_closed_form(self, svals, bound):
        # one call, a delta per row: the per-sample exponents meet the oracle too
        deltas, s = np.array(self.ORACLE_DELTAS)[:, None], np.array(svals)
        got = hankel_decay_transform_many(deltas, s)
        assert np.max(np.abs(got / hankel_nicholson(deltas, s) - 1)) <= bound

    def test_per_sample_delta_matches_one_call_per_delta(self):
        deltas = np.array([1.05, 1.5, 1.999])
        svals = np.geomspace(1e-300, 1.9, 300)
        got = hankel_decay_transform_many(deltas[:, None], svals)
        for delta, row in zip(deltas, got):
            want = hankel_decay_transform_many(float(delta), svals)
            assert np.max(np.abs(row / want - 1)) <= 1e-14

    def test_non_convergence_names_delta_and_s(self, monkeypatch):
        # a step of 2 leaves T_h and T_2h far apart; s = 3 is past the series' domain,
        # so it reaches the quadrature
        monkeypatch.setattr(analysis, "_STEP", 2.0)
        with pytest.raises(NumericalError, match=r"delta=1\.5, s=3\.0\): relative residual "
                                                 r"[-+.e0-9]+ > tolerance 1e-09$"):
            hankel_decay_transform_many(1.5, np.array([0.5, 3.0]))

    # the bound the docstring states for the series, where it holds; measured 3.4e-14 at
    # worst (delta 1.99).  H takes the quadrature where it does not, at the quadrature's
    # own bounds.  At delta = 1.4199 (a = 0.29005) math.gamma's Gamma(1+a)/Gamma(1-a)
    # errs most, by 9.3 u
    @pytest.mark.parametrize("delta", [1.001, 1.01, 1.1, 4 / 3, 1.4199, 1.5, 1.7, 1.9, 1.99,
                                       1.999, 1.9999])
    def test_series_meets_the_closed_form(self, delta):
        svals = np.concatenate([np.geomspace(1e-300, 2.0, 31), np.linspace(0.05, 1.95, 20)])
        value, held = analysis._hankel_series(delta, svals)
        want = np.array([besselk_hankel(delta, s) for s in svals])
        assert np.all(np.abs(value / want - 1)[held] <= 1e-13)
        got = hankel_decay_transform_many(delta, svals)
        assert np.array_equal(got[held], value[held])
        assert np.all(np.abs(got / want - 1) <= np.where(held, 1e-13, 1e-14))
        # F = (first term) / H: about 1 at small s for delta away from 2, 40-70 at s = 2
        # (H ~ e^-s, each term ~ e^s), and large near delta = 2, where both terms are
        # about 1/a, a = 1 - delta/2
        assert held.all() == (delta <= 1.7)
        assert held.any()

    def test_gamma_ratio_within_4_ulp_of_mpmath(self):
        # measured 3.5 u over 4,000 random a; the odd series, not math.gamma (9.3 u at
        # a = 0.29005)
        a = np.append(np.random.default_rng(4).uniform(1e-6, 0.5, 500), [0.29005, 1e-300])
        got = analysis._gamma_ratio(a)
        with mpmath.workdps(40):
            err = max(abs(mpmath.mpf(g) / (mpmath.gamma(1 + mpmath.mpf(x))
                                           / mpmath.gamma(1 - mpmath.mpf(x))) - 1)
                      for g, x in zip(got, a))
        assert err <= 4 * 2.0**-53, float(err)

    @settings(max_examples=100, deadline=None)
    @given(delta=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           s=st.floats(math.log(1e-300), math.log(20.0)).map(math.exp))
    def test_positive_over_the_whole_domain(self, delta, s):
        s = min(max(s, 1e-300), 20.0)
        assert hankel_decay_transform(delta, s) > 0
        assert analysis._hankel_quadrature(delta, np.array([s]))[0] > 0

    @settings(max_examples=150, deadline=None)
    @given(delta=st.floats(1.001, 1.999), ln_s=st.floats(math.log(1e-12), math.log(2.0)))
    def test_series_matches_the_quadrature_on_their_overlap(self, delta, ln_s):
        # the series within 1e-13 of the closed form, the quadrature within 5e-13
        s = np.array([math.exp(ln_s)])
        value, held = analysis._hankel_series(delta, s)
        assume(held[0])
        assert abs(value[0] / analysis._hankel_quadrature(delta, s)[0] - 1) <= 6e-13

    @pytest.mark.parametrize("delta, s, routed", [
        (1.5, 2.0, False),  # the domain's end takes the series (F ~ 43)
        (1.5, math.nextafter(2.0, math.inf), True),  # past it, the quadrature
        (1.9999, 0.5, True),  # F ~ 1e4: the terms cancel
        (1.9999, 1e-300, False),  # F ~ 15
        (1.999, 1.0, True),  # F ~ 3e3
        (1.95, 2.0, True),  # F ~ 400
        (1.001, 1e-300, False),  # F ~ 1
    ])
    def test_an_s_over_the_guard_reaches_the_quadrature(self, monkeypatch, delta, s, routed):
        seen, quadrature = [], analysis._hankel_quadrature

        def recorded(deltas, svals):
            seen.extend(svals.tolist())
            return quadrature(deltas, svals)

        monkeypatch.setattr(analysis, "_hankel_quadrature", recorded)
        got = hankel_decay_transform(delta, s)
        assert seen == ([s] if routed else [])
        if routed:
            assert got == quadrature(delta, np.array([s]))[0]

    def test_adding_an_s_changes_no_value(self, monkeypatch):
        # an s's route and value are its own: not the batch's largest s, not its series
        # chunk, not what else reaches the quadrature
        svals = np.concatenate([np.geomspace(1e-300, 2.0, 2500), [0.5, 3.0, 15.0]])
        base = hankel_decay_transform_many(1.999, svals)
        for extra in (2.0, 1e-300, 0.7, 1.0, 19.0):
            grown = hankel_decay_transform_many(1.999, np.append(svals, extra))
            assert grown[:-1].tobytes() == base.tobytes()
        monkeypatch.setattr(analysis, "_CHUNK_NODES", 1000)  # three series chunks
        assert hankel_decay_transform_many(1.999, svals).tobytes() == base.tobytes()

    def test_every_tiny_s_takes_the_series(self):
        deltas = np.linspace(1.001, 1.95, 60)[:, None]
        svals = np.geomspace(1e-300, 1e-40, 80)
        value, held = analysis._hankel_series(deltas, np.broadcast_to(svals, (60, 80)))
        assert held.all()
        assert np.array_equal(hankel_decay_transform_many(deltas, svals), value)

    # the bound the docstring states; measured 1.3e-15 at worst over this grid and 300
    # random points
    @pytest.mark.parametrize("delta", [1.001, 1.05, 1.5, 1.9, 1.999, 1.9999])
    def test_quadrature_meets_the_closed_form(self, delta):
        svals = [1e-300, 1e-150, 1e-20, 0.5, 2.0, math.nextafter(2.0, 3.0), 5.0, 10.0, 20.0]
        got = analysis._hankel_quadrature(delta, np.array(svals))
        want = np.array([besselk_hankel(delta, s) for s in svals])
        assert np.max(np.abs(got / want - 1)) <= 1e-14


class TestQuadratureTables:
    @pytest.mark.parametrize(
        "table",
        [lambda: analysis._gl(12)],
        ids=["gl"],
    )
    def test_cached_tables_are_read_only(self, table):
        # every caller shares the cached arrays, so none may write into them
        assert all(a is b for a, b in zip(table(), table()))
        for array in table():
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_single_gauss_legendre_source_and_cache_idiom(self):
        # one leggauss call (inside analysis._gl), no global statement and no
        # module-level dict filled at run time: every table cache is functools.cache,
        # and the grid and scan layers hold none, their factors passed down as values
        src = Path(analysis.__file__).parent
        sources = {p.name: p.read_text() for p in src.glob("*.py")}
        assert sum(text.count("leggauss") for text in sources.values()) == 1
        for name in ("operator.py", "norms.py", "experiments.py"):
            assert "functools" not in sources[name], name
        for name, text in sources.items():
            tree = ast.parse(text)
            assert not any(isinstance(n, ast.Global) for n in ast.walk(tree)), name
            for node in tree.body:
                value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
                empty_dict = isinstance(value, ast.Dict) and not value.keys
                dict_call = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"
                )
                assert not (empty_dict or dict_call), f"{name}:{node.lineno}"
