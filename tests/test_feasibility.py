import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restriction_lab.exponents import INF, DomainError, ExtScalar
from restriction_lab.feasibility import (
    CertificateOne,
    CertificateTwo,
    Infeasible,
    solve_one,
    solve_two,
    verify_one,
    verify_two,
)


def rational(rng, lo, hi, max_den=30):
    den = rng.randint(1, max_den)
    lo_n = int(Fraction(lo) * den) + 1
    hi_n = int(Fraction(hi) * den)
    if hi_n < lo_n:
        return None
    return Fraction(rng.randint(lo_n, hi_n), den)


class TestSolveOne:
    def test_boundary_case_has_certificate(self):
        cert = solve_one("1/3", "1/3", 2, 2)
        assert isinstance(cert, CertificateOne)
        assert verify_one(cert, "1/3", "1/3", 2, 2).ok

    def test_infeasible_triple_inequality(self):
        out = solve_one("1/5", 0, 2, 2)
        assert isinstance(out, Infeasible)

    def test_infeasible_on_alpha_boundary(self):
        out = solve_one("1/100", 0, 1, 100)
        assert isinstance(out, Infeasible)
        assert "alpha+2beta" in out.reason

    def test_preconditions(self):
        with pytest.raises(DomainError):
            solve_one("1/3", "1/2", 2, 2)  # beta > alpha
        with pytest.raises(DomainError):
            solve_one(0, 0, 2, 8)  # alpha = 0 rejected
        with pytest.raises(DomainError):
            solve_one("1/3", "1/3", "inf", 2)  # r must be finite

    def test_determinism(self):
        a = solve_one("2/7", "1/9", "5/3", "7/4")
        b = solve_one("2/7", "1/9", "5/3", "7/4")
        assert a == b

    def test_record_format(self):
        cert = solve_one("1/3", "1/3", 2, 2)
        rec = cert.record()
        assert rec.split(" ")[0].startswith("theta=")
        assert all("=" in part for part in rec.split(" "))


class TestVerifyOne:
    def test_detects_forced_q0_equals_q1(self):
        # theta = alpha*q makes q1 = q and the back-substituted q0 = q as well
        a = Fraction(1, 3)
        q = Fraction(2)
        theta = a * q
        q0 = (1 - theta) / (Fraction(1) / q - a)
        bad = CertificateOne(
            theta=ExtScalar(theta),
            q0=ExtScalar(q0),
            q1=ExtScalar(theta / a),
            r0=ExtScalar(2),
            r1=ExtScalar(2),
        )
        result = verify_one(bad, a, Fraction(1, 3), 2, 2)
        assert not result.ok
        assert "q0-ne-q1" in result.violations

    def test_explicit_q0_equals_q1(self):
        cert = solve_one("1/3", "1/3", 2, 2)
        tampered = CertificateOne(cert.theta, cert.q1, cert.q1, cert.r0, cert.r1)
        result = verify_one(tampered, "1/3", "1/3", 2, 2)
        assert not result.ok and "q0-ne-q1" in result.violations

    def test_theta_out_of_range(self):
        cert = solve_one("1/3", "1/3", 2, 2)
        tampered = CertificateOne(ExtScalar(2), cert.q0, cert.q1, cert.r0, cert.r1)
        result = verify_one(tampered, "1/3", "1/3", 2, 2)
        assert result.violations == ("theta-range",)


class TestSolveTwo:
    def test_endpoint_case(self):
        cert = solve_two("2/3", "3/2", 2)
        assert isinstance(cert, CertificateTwo)
        assert verify_two(cert, "2/3", "3/2", 2).ok

    def test_infeasible(self):
        out = solve_two("1/10", 2, 2)
        assert isinstance(out, Infeasible)

    def test_r_one_feasible(self):
        cert = solve_two(1, 1, 4)
        assert isinstance(cert, CertificateTwo)
        assert verify_two(cert, 1, 1, 4).ok

    def test_r_infinite_allowed(self):
        out = solve_two(2, "inf", 2)
        assert isinstance(out, CertificateTwo)
        assert verify_two(out, 2, "inf", 2).ok

    def test_preconditions(self):
        with pytest.raises(DomainError):
            solve_two(0, 2, 2)
        with pytest.raises(DomainError):
            solve_two(1, 2, "inf")

    def test_determinism(self):
        assert solve_two("5/7", "4/3", "9/5") == solve_two("5/7", "4/3", "9/5")


class TestVerifyTwo:
    def test_gamma_split_violation(self):
        cert = solve_two("2/3", "3/2", 2)
        gamma1 = ExtScalar(cert.gamma1.as_fraction() + 1)
        tampered = CertificateTwo(cert.theta, cert.q0, cert.q1, cert.r0, cert.r1, gamma1)
        result = verify_two(tampered, "2/3", "3/2", 2)
        assert not result.ok and "gamma-split" in result.violations

    def test_theta_range_violation(self):
        cert = solve_two("2/3", "3/2", 2)
        tampered = CertificateTwo(
            ExtScalar("3/2"), cert.q0, cert.q1, cert.r0, cert.r1, cert.gamma1
        )
        result = verify_two(tampered, "2/3", "3/2", 2)
        assert result.violations == ("theta-range",)


class TestIffProperty:
    def test_solve_one_iff_sample(self):
        rng = random.Random(101)
        hits = {True: 0, False: 0}
        for _ in range(2000):
            q = rational(rng, Fraction(1, 6), 8)
            r = rational(rng, 1, 10)
            if q is None or r is None:
                continue
            a = rational(rng, 0, Fraction(1) / q)
            if a is None or a <= 0 or a >= 1 / q:
                continue
            b = rng.choice([Fraction(0), rational(rng, 0, a) or Fraction(0)])
            if b > a:
                continue
            feasible = (a + b > 2 / q - Fraction(1, 2)) and (
                a + 2 * b >= 3 / q - (1 - 1 / r)
            )
            out = solve_one(a, b, r, q)
            assert (not isinstance(out, Infeasible)) == feasible
            hits[feasible] += 1
            if feasible:
                assert verify_one(out, a, b, r, q).ok
        assert min(hits.values()) > 50  # both branches exercised

    def test_solve_two_iff_sample(self):
        rng = random.Random(103)
        hits = {True: 0, False: 0}
        for _ in range(2000):
            q = rational(rng, Fraction(1, 6), 8)
            if q is None:
                continue
            r = rng.choice(["inf", rational(rng, 1, 10) or Fraction(2)])
            g = rational(rng, 0, 3)
            if g is None or g <= 0:
                continue
            inv_rc = Fraction(1) if r == "inf" else 1 - 1 / r
            feasible = (
                g >= max(Fraction(3, 2) / q - inv_rc / 2, 2 / q - inv_rc)
                and g > 2 / q - Fraction(1, 2)
            )
            out = solve_two(g, r, q)
            assert (not isinstance(out, Infeasible)) == feasible
            hits[feasible] += 1
            if feasible:
                assert verify_two(out, g, r, q).ok
        assert min(hits.values()) > 50


# ---------------------------------------------------------------------------
# Plain-Fraction oracle: the solvers and verifiers written directly on
# Fractions (None is infinity), independent of the integer scaling.
# ---------------------------------------------------------------------------

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def o_inv(x):
    return Fraction(0) if x is None else 1 / x


def o_from_inv(v):
    return None if v == 0 else 1 / v


def o_ge1(x):
    return x is None or x >= 1


def o_shared(f, r, q, r1_finite):
    th = f["theta"]
    bad = []
    if not o_ge1(f["q0"]):
        bad.append("q0-range")
    if not (f["q1"] is not None and f["q1"] > 0):
        bad.append("q1-range")
    if not o_ge1(f["r0"]):
        bad.append("r0-range")
    if (r1_finite and f["r1"] is None) or not o_ge1(f["r1"]):
        bad.append("r1-range")
    iq0, iq1, ir0, ir1 = (o_inv(f[k]) for k in ("q0", "q1", "r0", "r1"))
    if (1 - th) * iq0 + th * iq1 != o_inv(q):
        bad.append("q-convexity")
    if (1 - th) * ir0 + th * ir1 != o_inv(r):
        bad.append("r-convexity")
    if iq0 > (1 - ir0) / 3:
        bad.append("q0-fz-region")
    if iq0 >= QUARTER:
        bad.append("q0-above-4")
    return bad, th, iq1, 1 - ir1


def oracle_verify_one(f, a, b, r, q):
    if f["theta"] is None or not 0 < f["theta"] < 1:
        return ("theta-range",)
    bad, th, iq1, ir1c = o_shared(f, r, q, True)
    if a / th != iq1:
        bad.append("alpha-split")
    if b / th < iq1 - ir1c / 2:
        bad.append("beta-split")
    if f["q0"] == f["q1"]:
        bad.append("q0-ne-q1")
    return tuple(bad)


def oracle_verify_two(f, g, r, q):
    if f["theta"] is None or not 0 < f["theta"] < 1:
        return ("theta-range",)
    bad, th, iq1, ir1c = o_shared(f, r, q, False)
    if f["q0"] == f["q1"]:
        bad.append("q0-ne-q1")
    g1 = f["gamma1"]
    if g1 is None or th * g1 != g:
        return tuple(bad + ["gamma-split"])
    if g1 < max(iq1, 2 * iq1 - ir1c, 2 * iq1 - HALF):
        bad.append("gamma1-floor")
    return tuple(bad)


def o_record(cls, values):
    return cls(*(INF if v is None else ExtScalar(v) for v in values)).record()


def oracle_solve_one(a, b, r, q):
    inv_q, inv_rc = 1 / q, 1 - 1 / r
    if a + b <= 2 * inv_q - HALF:
        return "alpha+beta <= 2/q - 1/2"
    if a + 2 * b < 3 * inv_q - inv_rc:
        return "alpha+2beta < 3/q - 1/r'"
    if a >= inv_q:
        return "DomainError"
    lo = max(2 * a - 2 * b, Fraction(0))
    hi = min(1 - 4 * inv_q + 4 * a, 1 - 3 * inv_q + 3 * a, Fraction(1))
    theta = (lo + hi) / 2
    if theta == a * q:
        theta = lo + (hi - lo) / 4
    t1 = max(2 * a - 2 * b, theta - (1 - inv_rc), Fraction(0))
    inv_r0c = (inv_rc - t1) / (1 - theta)
    values = (theta, o_from_inv((inv_q - a) / (1 - theta)), theta / a,
              o_from_inv(1 - inv_r0c), o_from_inv(1 - t1 / theta))
    return o_record(CertificateOne, values)


def oracle_solve_two(g, r, q):
    inv_q, inv_rc = 1 / q, 1 - o_inv(r)
    if g < max(Fraction(3, 2) * inv_q - inv_rc / 2, 2 * inv_q - inv_rc):
        return "gamma < max(3/(2q) - 1/(2r'), 2/q - 1/r')"
    if g <= 2 * inv_q - HALF:
        return "gamma <= 2/q - 1/2"
    lo = max(4 * inv_q - 2 * g - Fraction(4, 3) * inv_rc, 12 * inv_q - 6 * g - 4 * inv_rc,
             Fraction(0))
    hi = min(1 - 4 * inv_q + 4 * g, Fraction(1))
    for theta in (lo + (hi - lo) * w for w in (HALF, QUARTER, 3 * QUARTER)):
        low = max(inv_q - g, inv_q - g / 2 - theta / 4, Fraction(0))
        high = min(inv_q, inv_rc / 3, g - 2 * inv_q + inv_rc)
        strict_cap = min((1 - theta) / 4, inv_q)
        if low > high:
            continue
        for weight in (HALF, QUARTER):
            cap = min(high, strict_cap)
            u = low + (cap - low) * weight if low < cap else low
            if not (low <= u <= high and u < strict_cap):
                continue
            v = max(3 * u, inv_rc - theta)
            values = dict(theta=theta, q0=o_from_inv(u / (1 - theta)),
                          q1=o_from_inv((inv_q - u) / theta), r0=o_from_inv(1 - v / (1 - theta)),
                          r1=o_from_inv(1 - (inv_rc - v) / theta), gamma1=g / theta)
            if oracle_verify_two(values, g, r, q) == ():
                return o_record(CertificateTwo, values.values())
    return "no certificate"


def outcome(solve, *args):
    try:
        out = solve(*args)
    except DomainError:
        return "DomainError"
    return out.reason if isinstance(out, Infeasible) else out.record()


def fields(cert):
    return {f.name: (None if v.is_infinite else v.as_fraction())
            for f in dataclasses.fields(cert) for v in [getattr(cert, f.name)]}


@st.composite
def rationals(draw, lo, hi, max_den=24):
    # n/d in [lo, hi] with d <= max_den; lo itself when no such n exists for d
    den = draw(st.integers(1, max_den))
    lo_n, hi_n = math.ceil(lo * den), math.floor(hi * den)
    return Fraction(draw(st.integers(lo_n, hi_n)), den) if lo_n <= hi_n else Fraction(lo)


q_values = rationals(Fraction(1, 8), 10)
r_values = rationals(1, 12)
replacements = st.one_of(st.none(), st.sampled_from([Fraction(1), Fraction(2), Fraction(4)]),
                         rationals(Fraction(1, 60), 12))


@st.composite
def one_args(draw):
    q, r = draw(q_values), draw(r_values)
    a = draw(rationals(Fraction(1, 60), 1 / q, max_den=60))
    b = draw(st.one_of(st.just(Fraction(0)), st.just(a), rationals(0, a, max_den=60)))
    return a, b, r, q


@st.composite
def two_args(draw):
    g = draw(rationals(Fraction(1, 60), 3, max_den=60))
    return g, draw(st.one_of(st.none(), r_values)), draw(q_values)


@st.composite
def tampered(draw, cert, gamma=None):
    # replace some fields by other positive values or infinity; with gamma
    # given, often keep theta gamma1 = gamma so that the gamma1 floor is reached
    f = fields(cert)
    for key in f:
        choice = draw(st.integers(0, 3))
        if choice == 1:
            f[key] = draw(replacements)
        elif choice == 2 and f[key] is not None:
            f[key] = f[key] * Fraction(97, 96)
    if gamma is not None and f["theta"] and draw(st.booleans()):
        f["gamma1"] = gamma / f["theta"]
    return f


class TestFractionOracle:
    @settings(max_examples=200, deadline=None)
    @given(one_args())
    def test_solve_one_matches_oracle(self, args):
        a, b, r, q = args
        assert outcome(solve_one, a, b, r, q) == oracle_solve_one(a, b, r, q)

    @settings(max_examples=200, deadline=None)
    @given(two_args())
    def test_solve_two_matches_oracle(self, args):
        g, r, q = args
        assert outcome(solve_two, g, ExtScalar.coerce(r or "inf"), q) == oracle_solve_two(g, r, q)

    @settings(max_examples=200, deadline=None)
    @given(one_args(), st.data())
    def test_verify_one_matches_oracle(self, args, data):
        a, b, r, q = args
        cert = solve_one(a, b, r, q) if a < 1 / q else None
        if not isinstance(cert, CertificateOne):
            cert = solve_one("1/3", "1/3", 2, 2)
        f = data.draw(tampered(cert))
        result = verify_one(CertificateOne(**{k: ExtScalar.coerce(v or "inf")
                                              for k, v in f.items()}), a, b, r, q)
        assert result.violations == oracle_verify_one(f, a, b, r, q)

    @settings(max_examples=200, deadline=None)
    @given(two_args(), st.data())
    def test_verify_two_matches_oracle(self, args, data):
        g, r, q = args
        cert = solve_two(g, r or "inf", q)
        if not isinstance(cert, CertificateTwo):
            cert = solve_two("2/3", "3/2", 2)
        f = data.draw(tampered(cert, g))
        result = verify_two(CertificateTwo(**{k: ExtScalar.coerce(v or "inf")
                                              for k, v in f.items()}), g, r or "inf", q)
        assert result.violations == oracle_verify_two(f, g, r, q)

    def test_theta_at_alpha_q_moves_to_quarter_point(self):
        # the midpoint 1/4 of the window (0, 1/2) equals alpha q = 1/4
        record = "theta=1/8 q0=7 q1=3 r0=7/3 r1=1"
        assert solve_one("1/24", "1/24", 2, 6).record() == record
        assert oracle_solve_one(Fraction(1, 24), Fraction(1, 24), Fraction(2), Fraction(6)) == record

    def test_second_theta_candidate(self):
        # the window's midpoint leaves no u; its quarter point gives the certificate
        record = "theta=7/40 q0=11/2 q1=7/2 r0=11/5 r1=7/5 gamma1=2/7"
        assert solve_two("1/20", 2, 5).record() == record
        assert oracle_solve_two(Fraction(1, 20), Fraction(2), Fraction(5)) == record

    def test_gamma1_floor_through_its_half_term(self):
        # 1/q1 = 1, 1/r1' = 1: only 2/q1 - 1/2 = 3/2 lies above gamma1 = 5/4
        cert = CertificateTwo(*map(ExtScalar, ["1/2", 4, 1, 1, "inf", "5/4"]))
        assert "gamma1-floor" in verify_two(cert, "5/8", 2, 2).violations

    def test_zero_exponent_in_certificate_raises(self):
        cert = solve_two("2/3", "3/2", 2)
        with pytest.raises(DomainError):
            verify_two(CertificateTwo(cert.theta, ExtScalar(0), cert.q1, cert.r0, cert.r1,
                                      cert.gamma1), "2/3", "3/2", 2)
