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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, kv

from restriction_lab import analysis
from restriction_lab.analysis import (
    CosineKernelTable,
    bessel_j0,
    bessel_j0_deriv,
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


def fraction_j0_j1(a: Fraction) -> tuple[float, float]:
    """J0(a), J1(a) rounded from their 80-term series summed in Fractions."""
    u = a * a / 4
    s0 = s1 = Fraction(0)
    term = Fraction(1)  # u^m / (m!)^2
    for m in range(80):
        s0 += term if m % 2 == 0 else -term
        t1 = term / (m + 1)  # u^m / (m! (m+1)!)
        s1 += t1 if m % 2 == 0 else -t1
        term = term * u / ((m + 1) * (m + 1))
    return float(s0), float(a / 2 * s1)


def incomplete_gamma_kernel(kappa: float, lam: float) -> float:
    """K(kappa, lambda) = Re e^{-i lambda} (-i lambda)^{kappa-1} Gamma(1-kappa, -i lambda)."""
    with mpmath.workdps(40):
        z = mpmath.mpc(0, -lam)
        return float(mpmath.re(mpmath.exp(z) * z ** (kappa - 1) * mpmath.gammainc(1 - kappa, z)))


def hankel_nicholson(delta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """H(delta, s) = 2 pi s^nu K_nu(s) / (2^nu Gamma(nu+1)), nu = delta/2 - 1."""
    nu = delta / 2 - 1
    return 2 * np.pi * s**nu * kv(nu, s) / (2**nu * gamma(nu + 1))


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
        assert abs(bessel_j0_deriv(ext)) < 1e-10

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
        # measured 6.9e-15 (J0) and 7.6e-15 (J1), both near the series cut at 7
        import scipy.special as sp

        xs = np.concatenate([np.linspace(0.0, 1e7, 200001), np.geomspace(1e-3, 1e7, 100001),
                             np.linspace(0.0, 40.0, 40001)])
        assert np.max(np.abs(analysis._j0(xs) - sp.j0(xs))) <= 1e-14
        assert np.max(np.abs(analysis._j1(xs) - sp.j1(xs))) <= 1e-14

    def test_reduced_argument_error_near_1e7(self):
        # x - pi/4 rounds to ulp(x)/2 ~ 1e-9 near 1e7, times the amplitude 2.5e-4;
        # measured 1.6e-13 against 40-digit J0 (scipy's error is the same)
        xs = np.random.default_rng(5).uniform(1e5, 1e7, 60)
        exact = np.array([float(mpmath.besselj(0, mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(analysis._j0(xs) - exact)) <= 3e-13

    def test_anchor_table_is_the_fraction_build(self, monkeypatch):
        # one int / int division rounds the exact sum as float(Fraction) does
        monkeypatch.setattr(analysis, "_exact_j0_j1", fraction_j0_j1)
        anchors, coeffs = analysis._build_anchor_table()
        assert anchors.tobytes() == analysis._ANCHORS.tobytes()
        assert coeffs.tobytes() == analysis._ANCHOR_COEFFS.tobytes()

    @pytest.mark.parametrize("a", [Fraction(3, 7), Fraction(22, 3), Fraction(1), Fraction(-5, 2)])
    def test_integer_series_rounds_like_fractions_off_the_anchors(self, a):
        assert analysis._exact_j0_j1(a) == fraction_j0_j1(a)


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
        got = cosine_weight_kernel_many(kappa, np.array(self.LAMS))
        assert np.all(np.abs(got / np.array(self.AVERAGED[kappa]) - 1) <= 1e-12)

    def test_deep_batch_temporaries_are_bounded(self):
        # every lambda here takes the deepest head (67 e-foldings at kappa = 5/9)
        lams = np.geomspace(1e-300, 1e-200, 4096)
        tracemalloc.start()
        try:
            cosine_weight_kernel_many(5 / 9, lams)
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
        # a tail without sign changes cannot be summed by averaging
        rho, w, cos_rho = analysis._tail_panels("cos")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (rho, w, np.abs(cos_rho)))
        with pytest.raises(NumericalError, match=r"kappa=0\.4, lambda=0\.01\b"):
            cosine_weight_kernel_many(0.4, np.array([0.01]))


def _direct_kernel(kappa: float, lams: np.ndarray) -> np.ndarray:
    """K with the envelope (1 + rho/lambda)^-kappa at every sample, none scale-free."""
    def env(rho, idx):
        return (1.0 + rho / lams[idx][:, None, None]) ** -kappa

    return analysis._transform_many("cos", lams, 1.0 - kappa, env, 1e-9, str) / lams


def _hankel_env(u: np.ndarray, svals: np.ndarray, delta: float) -> np.ndarray:
    """u (s^2 + u^2)^{-delta/2} as (u/h) h^{1-delta}, h = hypot(u, s), one row per s."""
    h = np.hypot(u, svals[:, None, None])
    return (u / h) * h ** (1.0 - delta)


def _direct_hankel(delta: float, svals: np.ndarray) -> np.ndarray:
    """H with the envelope (u/h) h^{1-delta} at every sample, none scale-free."""
    integral = analysis._transform_many(
        "j0", svals, 2.0 - delta, lambda u, idx: _hankel_env(u, svals[idx], delta), 1e-7, str,
    )
    return 2 * math.pi * svals ** (delta - 2) * integral


def _bound(osc: str, exponent: float) -> float:
    """The scale-free bound of kappa ("cos") or delta ("j0")."""
    decay = 1.0 - exponent if osc == "cos" else 2.0 - exponent
    return analysis._scale_free_bound(osc, int(analysis._cap(decay)))


class TestScaleFree:
    KAPPAS = [0.3, 5 / 9, 0.9]
    DELTAS = [1.1, 4 / 3, 1.9]

    @staticmethod
    def _straddle(bound: float) -> np.ndarray:
        return np.concatenate([np.geomspace(bound * 1e-40, bound * 1e6, 300),
                               [bound, np.nextafter(bound, np.inf)]])

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_kernel_matches_the_per_sample_envelope(self, kappa):
        lams = self._straddle(_bound("cos", kappa))
        got = cosine_weight_kernel_many(kappa, lams)
        assert np.max(np.abs(got / _direct_kernel(kappa, lams) - 1)) <= 1e-14

    @pytest.mark.parametrize("delta", DELTAS)
    def test_hankel_matches_the_per_sample_envelope(self, delta):
        # at a scale-free s, hypot(u, s) is u, so the per-sample envelope is
        # 1.0 * u^{1-delta}: the scale-free row is the per-sample one bit for bit
        svals = self._straddle(_bound("j0", delta))
        got = hankel_decay_transform_many(delta, svals)
        assert np.array_equal(got, _direct_hankel(delta, svals))

    @pytest.mark.parametrize("delta", DELTAS[:2])
    def test_scale_free_hankel_meets_its_limit(self, delta):
        # below the bound H s^{2-delta} / (2 pi) is the quadrature of u^{1-delta},
        # int_0^inf u^{1-delta} J0(u) du = 2^{1-delta} Gamma(1-delta/2) / Gamma(delta/2);
        # measured 1.1e-15 (the per-sample envelope: 2.3e-14 and 5.8e-14)
        s = np.array([_bound("j0", delta) * 1e-100])
        # every sample is scale-free, so the per-sample envelope is never called
        integral = analysis._transform_many(
            "j0", s, 2.0 - delta, None, 1e-7, str, free=(1.0 - delta, 0.0))
        limit = 2 ** (1 - delta) * math.gamma(1 - delta / 2) / math.gamma(delta / 2)
        assert abs(integral[0] / limit - 1) <= 1e-14

    @pytest.mark.parametrize("osc, exponent", [("cos", k) for k in KAPPAS]
                             + [("j0", d) for d in DELTAS])
    def test_at_the_bound_the_envelope_is_its_limit_at_every_node(self, osc, exponent):
        x = _bound(osc, exponent)
        cap = int(analysis._cap(1.0 - exponent if osc == "cos" else 2.0 - exponent))
        nodes = np.concatenate([analysis._head_panels(osc, cap)[0].ravel(),
                                analysis._tail_panels(osc)[0].ravel()])
        if osc == "cos":
            assert np.all(1.0 + nodes / x == nodes / x)
        else:
            assert np.all(np.hypot(nodes, x) == nodes)

    def test_bound_is_zero_where_it_would_not_be_normal(self):
        # cap 8 + ceil(26/0.01) = 2608: no head table is built for it
        assert _bound("cos", 0.99) == 0.0 and _bound("j0", 1.99) == 0.0

    @staticmethod
    def _count_rows(monkeypatch) -> list[int]:
        rows, accelerate = [], analysis._accelerate_rows

        def counting(terms, rtol, context):
            rows.append(terms.shape[0])
            return accelerate(terms, rtol, context)

        monkeypatch.setattr(analysis, "_accelerate_rows", counting)
        return rows

    def test_one_kernel_row_per_distinct_kappa(self, monkeypatch):
        rows = self._count_rows(monkeypatch)
        deep = np.geomspace(1e-300, 1e-140, 90)  # below every bound of KAPPAS
        cosine_weight_kernel_many(np.repeat(self.KAPPAS, 30), deep)
        assert sum(rows) == 3
        rows.clear()
        cosine_weight_kernel_many(0.3, np.append(deep, [1e-3, 0.5]))
        assert sum(rows) == 1 + 2  # one row, and two direct samples

    def test_one_hankel_row_per_distinct_delta(self, monkeypatch):
        rows = self._count_rows(monkeypatch)
        deep = np.geomspace(1e-300, 1e-130, 90)
        hankel_decay_transform_many(np.repeat(self.DELTAS, 30), deep)
        assert sum(rows) == 3
        rows.clear()
        hankel_decay_transform_many(1.5, np.append(deep, [1e-3, 0.5]))
        assert sum(rows) == 1 + 2

    @pytest.mark.parametrize("osc, exponent", [("cos", k) for k in KAPPAS]
                             + [("j0", d) for d in DELTAS])
    def test_the_kernels_split_at_the_bound(self, monkeypatch, osc, exponent):
        # the bound itself takes the scale-free row, the next float up its own
        rows = self._count_rows(monkeypatch)
        x = _bound(osc, exponent)
        kernel = cosine_weight_kernel_many if osc == "cos" else hankel_decay_transform_many
        kernel(exponent, np.array([x, x, np.nextafter(x, np.inf)]))
        assert sum(rows) == 2

    def test_non_converging_row_names_kappa_and_lambda(self, monkeypatch):
        rho, w, cos_rho = analysis._tail_panels("cos")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (rho, w, np.abs(cos_rho)))
        with pytest.raises(NumericalError, match=r"kappa=0\.4, lambda=1e-200\b"):
            cosine_weight_kernel_many(0.4, np.array([1e-200]))

    def test_non_converging_row_names_delta_and_s(self, monkeypatch):
        u, w, j0_u = analysis._tail_panels("j0")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (u, w, np.abs(j0_u)))
        with pytest.raises(NumericalError, match=r"delta=1\.5, s=1e-200\b"):
            hankel_decay_transform_many(1.5, np.array([1e-200]))


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


_TABLES = {kappa: CosineKernelTable(kappa) for kappa in (0.3, 5 / 9, 2 / 3, 0.9)}


class TestCosineKernelTable:
    @settings(max_examples=150, deadline=None)
    @given(
        kappa=st.sampled_from(sorted(_TABLES)),
        ln_lams=st.lists(st.floats(math.log(1e-300), 0.0), min_size=1, max_size=8),
    )
    def test_matches_direct_kernel(self, kappa, ln_lams):
        lams = np.exp(np.array(ln_lams))
        direct = cosine_weight_kernel_many(kappa, lams)
        assert np.all(np.abs(_TABLES[kappa](lams) / direct - 1) <= 1e-12)

    def test_batch_independent(self):
        table = CosineKernelTable(0.45)
        lams = np.array([0.003, 0.9, 1e-7, 2.5e-200, np.exp(-4.0), 0.25])
        batch = table(lams)
        fresh = CosineKernelTable(0.45)
        for lam, got in zip(lams, batch):
            assert fresh(np.array([lam]))[0] == got
            assert table(lam) == got

    def test_builds_each_piece_once(self):
        table = CosineKernelTable(0.5)
        table(np.array([0.5, 0.3, 1e-3]))
        assert table.n_pieces == 2  # t in [-2, 0) and [-8, -6)
        table(np.array([0.4, 2e-3]))
        assert table.n_pieces == 2

    @pytest.mark.parametrize(
        "perturb",
        [
            # alternating in sign from one lambda to the next: no smooth fit
            lambda k: k * (1 + 1e-8 * (-1.0) ** np.arange(k.size).reshape(k.shape)),
            lambda k: np.where(k > np.median(k), np.nan, k),
        ],
        ids=["alternating-1e-8", "nan"],
    )
    def test_perturbed_piece_raises(self, monkeypatch, perturb):
        direct = analysis.cosine_weight_kernel_many
        monkeypatch.setattr(
            analysis, "cosine_weight_kernel_many", lambda kappa, lams: perturb(direct(kappa, lams))
        )
        with pytest.raises(NumericalError, match=r"kappa=0\.5.*\[-8, -6\].*residual"):
            CosineKernelTable(0.5)(np.array([1e-3]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            CosineKernelTable(1.0)
        with pytest.raises(ValueError):
            CosineKernelTable(0.5)(np.array([0.1, 0.0]))
        with pytest.raises(ValueError):
            CosineKernelTable(0.5)(np.array([np.nan]))
        with pytest.raises(ValueError, match=r"^lambda = 1000\.0 is above 100, "):
            CosineKernelTable(0.5)(np.array([0.1, 1e3]))

    def test_lambda_above_50_is_the_direct_kernel(self):
        # its piece, t in [4, 6), would be built from the direct kernel past lambda = 100
        table, lams = CosineKernelTable(0.5), np.array([50.5, 60.0, 99.0, 100.0])
        assert np.array_equal(table(lams), cosine_weight_kernel_many(0.5, lams))
        assert table.n_pieces == 0


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
        # H = 2 pi s^{delta-2} I; with I = 1 the factor stands alone.  Against 40-digit
        # mpmath at delta = 1.5, s ** (delta - 2) reads 2.2e-16 and exp((delta - 2) ln s),
        # which carries about |(delta - 2) ln s| ulp, 2.8e-14
        monkeypatch.setattr(analysis, "_transform_many", lambda osc, x, *a, **kw: np.ones_like(x))
        s = np.geomspace(1e-300, 1e-250, 200)
        got = hankel_decay_transform_many(delta, s)
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
        with pytest.raises(ValueError, match=rf"^s = {s!r} is below the smallest normal float$"):
            hankel_decay_transform(1.999, s)
        with pytest.raises(ValueError, match="is below the smallest normal float"):
            hankel_decay_transform_many(np.array([1.2, 1.999]), np.array([1.0, s]))
        assert math.isfinite(hankel_decay_transform(1.999, np.finfo(float).tiny))

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
        # a tail without sign changes cannot be summed by averaging
        u, w, j0_u = analysis._tail_panels("j0")
        monkeypatch.setattr(analysis, "_tail_panels", lambda osc: (u, w, np.abs(j0_u)))
        with pytest.raises(NumericalError, match=r"delta=1\.5, s=0\.5\b"):
            hankel_decay_transform_many(1.5, np.array([0.5]))

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
