import ast
import math
import re
import tracemalloc
import warnings
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

    def test_asymptotic_tier_is_batch_independent(self):
        # the Hankel series stops per point, so a value never depends on its batch
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

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 5000])
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

    def test_scan_blocks_are_one_arange_grid(self, monkeypatch):
        monkeypatch.setattr(analysis, "_CHUNK_NODES", 1000)
        for n in (1, 999, 10**5):
            stop = (n + 2) * math.pi
            blocks = list(analysis._scan_grid(stop))
            assert all(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
            joined = np.concatenate([blocks[0]] + [b[1:] for b in blocks[1:]])
            assert np.array_equal(joined, np.arange(0.5, stop, math.pi / 8))

    def test_small_scan_blocks_leave_the_roots_alone(self, monkeypatch):
        # blocks of 64 grid steps: about 125 seams among the first 1000 roots
        monkeypatch.setattr(analysis, "_CHUNK_NODES", 64)
        assert np.array_equal(j0_extrema(1000).z, self.scan_and_bisect_64(analysis._j1, 1000))
        assert np.array_equal(j0_zeros(1000), self.scan_and_bisect_64(analysis._j0, 1000))


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
        # 3000 lambda span several tail chunks and every head depth up to the cap
        lams = np.geomspace(1e-300, 30, 3000)
        batch = cosine_weight_kernel_many(5 / 9, lams)
        scalar = np.array([cosine_weight_kernel(5 / 9, lam) for lam in lams])
        assert np.array_equal(batch, scalar)

    # recorded with the tail summed by explicit repeated averaging of the
    # partial sums, before the averaging became one weight table
    LAMS = [1e-300, 1e-200, 1e-100, 1e-40, 1e-12, 1e-05, 0.01, 0.3, 1.0]
    AVERAGED = {
        0.05: [8.092689454742603e283, 8.09268945474261e188, 8.092689454742744e93,
               8.092689454742564e36, 20327916834.994633, 4550.379321317477,
               6.192090251055815, 0.16015526314203776, 0.030207108656416404],
        0.5: [1.253314137315484e150, 1.2533141373154848e100, 1.2533141373154845e50,
              1.2533141373154846e20, 1253312.1373167462, 394.3366930681331,
              10.657897379188219, 0.9099718218780799, 0.2321993900552637],
        5 / 9: [3.289056966399651e133, 1.1820257866878921e89, 4.2479804231683855e44,
                9.15199638625032e17, 328903.4466402498, 252.41187277150362,
                9.668912669382028, 0.9439477663313031, 0.2495597126600655],
        0.9: [9.3963806321254e30, 9.39638063212545e20, 93963806311.37097,
              93953.80632137124, 138.92259697649968, 19.71401162068981,
              4.915534616953503, 1.0081641620414454, 0.3283632240633825],
        0.99: [99320.31836788254, 9842.03183678824, 894.203183678822,
               149.73254872464614, 31.061504637886227, 11.551449464587987,
               4.121928176708105, 0.9977621151280099, 0.34201223577135387],
    }

    @pytest.mark.parametrize("kappa", sorted(AVERAGED))
    def test_matches_the_explicitly_averaged_tail(self, kappa):
        got = analysis._kernel_quadrature(kappa, np.array(self.LAMS))
        assert np.all(np.abs(got / np.array(self.AVERAGED[kappa]) - 1) <= 1e-12)

    def test_deep_batch_temporaries_are_bounded(self):
        # every lambda here takes the deepest head (67 e-foldings at kappa = 5/9)
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
        # at lambda = 1e50 the quadrature gave -3.4e-65, where K ~ kappa/lambda^2 = 5e-101
        assert cosine_weight_kernel(0.5, 100.0) > 0
        for lam in (math.nextafter(100.0, math.inf), 1e3, 1e50):
            message = "^" + re.escape(f"lambda = {lam!r} is above 100, ")
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel(0.5, lam)
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel_many(np.array([0.3, 0.5]), np.array([1.0, lam]))

    def test_rejects_lambda_below_its_error_bound(self):
        # at lambda = 2.2e-308 the quadrature gave -1.5e307 (rho/lambda overflows), where
        # K ~ 3.5e304 > 0, and at 1e-310 the series gave inf
        assert 0 < cosine_weight_kernel(0.001, 1e-300) < np.inf
        for lam in (math.nextafter(1e-300, 0.0), 2.2250738585072014e-308, 1e-310, 5e-324):
            message = "^" + re.escape(f"lambda = {lam!r} is below 1e-300, ") + "the smallest"
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel(0.001, lam)
            with pytest.raises(ValueError, match=message):
                cosine_weight_kernel_many(np.array([0.3, 0.5]), np.array([1.0, lam]))

    # the bounds the docstring states; measured 6.7e-14, 2.5e-12 and 4.9e-11 at worst,
    # and above lambda = 10, up to the edge lambda = 100, 1.3e-12 and 4.8e-10
    @pytest.mark.parametrize("kappas, lams, bound", [
        ([0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.99999], [1e-20, 1e-6, 1e-3, 0.1, 1.0, 10.0], 1e-13),
        ([0.3, 0.7, 0.87, 0.93, 0.95, 0.99999], [1e-300, 1e-200, 1e-100], 1e-11),
        ([1e-3, 0.01, 0.1], [1e-300, 1e-20, 1e-6, 1e-3, 0.1, 1.0, 10.0], 1e-10),
        ([0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.99999], [12.5, 31.4, 64.0, 77.7, 90.0, 100.0],
         3e-12),
        ([1e-3, 0.01, 0.1], [12.5, 31.4, 64.0, 90.0, 100.0], 1e-9),
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
        # a tail without sign changes cannot be summed by averaging; lambda = 3 is
        # past the series' domain, so it reaches the quadrature
        rho, w, cos_rho = analysis._tail_panels("cos")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (rho, w, np.abs(cos_rho)))
        with pytest.raises(NumericalError, match=r"kappa=0\.4, lambda=3\.0\b"):
            cosine_weight_kernel_many(0.4, np.array([0.01, 3.0]))

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
        quadrature = np.where(lams < 1e-20, 1e-11, 1e-13) if kappa >= 0.3 else 1e-10
        assert np.all(np.abs(got / want - 1) <= np.where(held, 1e-13, quadrature))
        # F = Gamma(1-kappa) lambda^{kappa-1} / K: about 2/(pi kappa) at small lambda,
        # and large near kappa = 1 where K is small
        assert held.all() == (0.3 <= kappa <= 0.9)
        assert held.any() == (kappa > 1e-3)

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


def _hankel_env(u: np.ndarray, svals: np.ndarray, delta: float) -> np.ndarray:
    """u (s^2 + u^2)^{-delta/2} as (u/h) h^{1-delta}, h = hypot(u, s), one row per s."""
    h = np.hypot(u, svals[:, None, None])
    return (u / h) * h ** (1.0 - delta)


class TestScaleFree:
    KAPPAS = [0.3, 5 / 9, 0.9]

    @staticmethod
    def _straddle(bound: float) -> np.ndarray:
        return np.concatenate([np.geomspace(bound * 1e-40, bound * 1e6, 300),
                               [bound, np.nextafter(bound, np.inf)]])

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_kernel_matches_the_per_sample_envelope(self, kappa):
        # K has no scale-free row: about where 1 + rho/lambda rounds to rho/lambda at
        # every node of its head (2^-54 of the smallest), every lambda takes the series,
        # and the series meets the quadrature's per-sample envelope within the latter's
        # bound below lambda = 1e-20; measured 9.1e-15, 1.8e-14 and 1.2e-12
        cap = int(analysis._cap(1.0 - kappa))
        lams = self._straddle(float(analysis._head_panels("cos", cap)[0].min()) * 2.0**-54)
        got = cosine_weight_kernel_many(kappa, lams)
        value, held = analysis._kernel_series(kappa, lams)
        assert held.all() and np.array_equal(got, value)
        assert np.max(np.abs(got / analysis._kernel_quadrature(kappa, lams) - 1)) <= 1e-11

    def test_non_converging_row_names_kappa_and_lambda(self, monkeypatch):
        # K's deep lambda take the series; its quadrature still names them when called
        rho, w, cos_rho = analysis._tail_panels("cos")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (rho, w, np.abs(cos_rho)))
        with pytest.raises(NumericalError, match=r"kappa=0\.4, lambda=1e-200\b"):
            analysis._kernel_quadrature(0.4, np.array([1e-200]))


def _averaged(row: list[float]) -> tuple[float, float]:
    """Final and previous iterated averages of the partial sums of row."""
    sums = [sum(row[: i + 1]) for i in range(len(row))]
    prev = last = sums[-1]
    while len(sums) > 1:
        sums = [(a + b) / 2 for a, b in zip(sums, sums[1:])]
        prev, last = sums[-1], prev
    return sums[0], last


class TestAccelerateRows:
    def test_error_carries_worst_residual_and_tolerance(self):
        rows = [[(-1.0) ** j / (j + 1) for j in range(24)], [1.0 / (j + 1) for j in range(24)]]
        result, last = _averaged(rows[1])
        scale = max(abs(result), 1e-6)
        expected = abs(result - last) / scale
        with pytest.raises(NumericalError) as info:
            analysis._accelerate_rows(np.array(rows), 1e-9, lambda i: f"row {i}")
        message = str(info.value)
        assert "row 1" in message
        assert "tolerance 1e-09" in message
        found = float(re.search(r"residual ([-+.e0-9]+)", message).group(1))
        assert found == pytest.approx(expected, rel=1e-3)
        assert found > 1e-9

    @staticmethod
    def _rows(rng):
        """Seeded alternating rows of length 2..60 with random envelopes and
        scales, a few without sign changes, and real cos and J0 tails."""
        rows = []
        for n in range(2, 61):
            j = np.arange(n)
            for power in rng.uniform(0.05, 2.0, 4):
                envelope = (j + rng.uniform(0.5, 3.0)) ** -power * rng.uniform(0.9, 1.1, n)
                sign = (-1.0) ** j if rng.random() < 0.85 else 1.0
                rows.append(sign * envelope * 10.0 ** rng.uniform(-200, 200))
        rho, w, cos_rho = analysis._tail_panels("cos")
        for kappa, lam in zip(rng.uniform(0.05, 0.99, 40), 10.0 ** rng.uniform(-300, 1, 40)):
            rows.append(np.einsum("jk,jk->j", (1 + rho / lam) ** -kappa * cos_rho, w))
        u, w, j0_u = analysis._tail_panels("j0")
        for delta, ln_s in zip(rng.uniform(1.05, 1.95, 40), rng.uniform(-690, 0.6, 40)):
            env = _hankel_env(u, np.exp([ln_s]), delta)[0]
            rows.append(np.einsum("jk,jk->j", env * j0_u, w))
        return rows

    def test_matches_plain_averaging(self):
        eps = np.finfo(float).eps
        for row in self._rows(np.random.default_rng(9)):
            result, last = _averaged(row.tolist())
            scale = np.max(np.abs(np.cumsum(row)))
            got = analysis._accelerate_rows(row[None, :], np.inf, lambda i: "")[0]
            assert abs(got - result) <= 8 * eps * scale
            # the residual the raise decision reads: "previous" value agrees too
            floor = max(abs(result), np.max(np.abs(row)) * 1e-6, 1e-300)
            resid = abs(result - last) / floor
            for rtol in (1e-12, 1e-9, 1e-6, 1e-3):
                if rtol / 2 < resid < 2 * rtol:
                    continue  # too close to the threshold to pin
                if resid > rtol:
                    with pytest.raises(NumericalError):
                        analysis._accelerate_rows(row[None, :], rtol, lambda i: "")
                else:
                    analysis._accelerate_rows(row[None, :], rtol, lambda i: "")

    def test_alternating_row_converges(self):
        row = [(-1.0) ** j / (j + 1) for j in range(24)]
        got = analysis._accelerate_rows(np.array([row]), 1e-9, lambda i: "")
        assert abs(got[0] - math.log(2)) < 1e-9


class TestFresnelConstant:
    # kappa = i/20 and, past 0.96, where the cap's floor z1 e^{-cap} would underflow
    @pytest.mark.parametrize("kappa", [0.5, 0.25, 0.75] + [
        i / 20 for i in range(1, 20) if i % 5] + [0.97, 0.99, 0.9999])
    def test_gamma_oracle(self, kappa):
        oracle = math.gamma(1 - kappa) * math.sin(math.pi * kappa / 2)
        assert abs(fresnel_constant(kappa) / oracle - 1) <= 1e-11

    def test_positive_on_grid(self):
        for i in range(1, 18):
            assert fresnel_constant(i / 18) > 0


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
        # the quadrature's H = 2 pi s^{delta-2} I; with I = 1 the factor stands alone.
        # Against 40-digit mpmath at delta = 1.5, s ** (delta - 2) reads 2.2e-16 and
        # exp((delta - 2) ln s), which carries about |(delta - 2) ln s| ulp, 2.8e-14
        monkeypatch.setattr(analysis, "_transform_many", lambda osc, x, *a, **kw: np.ones_like(x))
        s = np.geomspace(1e-300, 1e-250, 200)
        got = analysis._hankel_quadrature(delta, s)
        with mpmath.workdps(40):
            exact = [2 * mpmath.mpf(math.pi) * mpmath.mpf(x) ** (mpmath.mpf(delta) - 2) for x in s]
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
        # at s = 40 the quadrature gave -7.2e-17 for delta = 1.5, where H = 2.0e-18 > 0
        assert hankel_decay_transform(1.5, 20.0) > 0
        for s in (math.nextafter(20.0, math.inf), 40.0, 100.0):
            message = "^" + re.escape(f"s = {s!r} is above 20, ")
            with pytest.raises(ValueError, match=message):
                hankel_decay_transform(1.5, s)
            with pytest.raises(ValueError, match=message):
                hankel_decay_transform_many(np.array([1.2, 1.9]), np.array([1.0, s]))

    @pytest.mark.parametrize("s", [1e-310, 5e-324])
    def test_a_subnormal_s_raises(self, s):
        # (u/h) h^{1-delta} overflows at h = s near delta = 2: these gave inf and NaN
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

    # the bounds the docstring states; measured 1.5e-13, 1.5e-12, 1.9e-11 and 3.7e-7
    @pytest.mark.parametrize("svals, bound", [
        ([1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0], 5e-13),
        ([1e-300, 1e-100, 1e-20], 1e-11),
        ([10.0], 1e-10),
        ([20.0], 1e-6),
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
        # a tail without sign changes cannot be summed by averaging; s = 3 is past the
        # series' domain, so it reaches the quadrature
        u, w, j0_u = analysis._tail_panels("j0")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (u, w, np.abs(j0_u)))
        with pytest.raises(NumericalError, match=r"delta=1\.5, s=3\.0\b"):
            hankel_decay_transform_many(1.5, np.array([0.5, 3.0]))

    # the bound the docstring states for the series, where it holds; measured 6.2e-14 at
    # worst (delta 1.99).  H takes the quadrature where it does not, at the quadrature's
    # own bounds
    @pytest.mark.parametrize("delta", [1.001, 1.01, 1.1, 4 / 3, 1.5, 1.7, 1.9, 1.99, 1.999,
                                       1.9999])
    def test_series_meets_the_closed_form(self, delta):
        svals = np.concatenate([np.geomspace(1e-300, 2.0, 31), np.linspace(0.05, 1.95, 20)])
        value, held = analysis._hankel_series(delta, svals)
        want = np.array([besselk_hankel(delta, s) for s in svals])
        assert np.all(np.abs(value / want - 1)[held] <= 1e-13)
        got = hankel_decay_transform_many(delta, svals)
        assert np.array_equal(got[held], value[held])
        quadrature = np.where(svals < 1e-12, 1e-11, 5e-13)
        assert np.all(np.abs(got / want - 1) <= np.where(held, 1e-13, quadrature))
        # F = (first term) / H: about 1 at small s for delta away from 2, 40-70 at s = 2
        # (H ~ e^-s, each term ~ e^s), and large near delta = 2, where both terms are
        # about 1/a, a = 1 - delta/2
        assert held.all() == (delta <= 1.7)
        assert held.any()

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
        # where the quadrature's scale-free row used to serve (s at most 2^-27 of its
        # capped head's smallest node: 1e-25 at delta = 1.001, 7e-127 at 1.9)
        deltas = np.linspace(1.001, 1.95, 60)[:, None]
        svals = np.geomspace(1e-300, 1e-40, 80)
        value, held = analysis._hankel_series(deltas, np.broadcast_to(svals, (60, 80)))
        assert held.all()
        assert np.array_equal(hankel_decay_transform_many(deltas, svals), value)

    # recorded with the head laddered all the way down to s (no depth cap); the
    # cap 8 + ceil(26/(2-delta)) leaves under e^{-26} of the mass to the floor panel
    UNCAPPED = {
        1.05: [6.695816875387609e285, 2.1174032121617033e143, 6.695816875387903e19,
               7.60953133230156],
        1.5: [1.3145047206597422e151, 1.3145047206597409e76, 131450472053.40195,
              6.963464765400588],
        1.9: [6.355813568863546e31, 6.355813568863957e16, 6292.98171579223,
              6.044579040663807],
    }

    @pytest.mark.parametrize("delta", sorted(UNCAPPED))
    def test_capped_head_matches_the_uncapped_head(self, delta):
        got = hankel_decay_transform_many(delta, np.array([1e-300, 1e-150, 1e-20, 0.5]))
        assert np.all(np.abs(got / np.array(self.UNCAPPED[delta]) - 1) <= 2e-12)


class TestQuadratureTables:
    @pytest.mark.parametrize(
        "table",
        [
            lambda: analysis._gl(12),
            lambda: analysis._tail_panels("cos"),
            lambda: analysis._tail_panels("j0"),
            lambda: analysis._head_panels("cos", 5),
            lambda: analysis._head_panels("j0", 5),
            lambda: (analysis._averaging_weights(48),),
        ],
        ids=["gl", "tail-cos", "tail-j0", "head-cos", "head-j0", "averaging"],
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
