"""Constructive solvers and exact verifiers for interpolation-exponent feasibility.

Two families of certificates are produced.  Both witness that a target
weighted estimate interpolates between an unweighted endpoint (the sharp
unweighted region, strictly inside) and a weak-type weighted endpoint:

* :func:`solve_one` / :func:`verify_one` for the separable weight with
  exponent pair (alpha, beta), alpha below 1/q;
* :func:`solve_two` / :func:`verify_two` for the radial weight exponent gamma.

Solvability is equivalent to explicit inequalities in the input exponents,
and the solvers are exact: they pick the interpolation parameter theta by a
deterministic midpoint rule inside the feasible window, back-substitute the
remaining exponents, and check every constraint with rational arithmetic.
A returned certificate always verifies; a constructed certificate failing
its verifier indicates an implementation bug and aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .exponents import (
    DomainError, ExtScalar, ScalarLike, exact_in, ext_ratio, finite_ratio, inv_conjugate_ratio,
    inv_ratio, scaled,
)

__all__ = [
    "CertificateOne",
    "CertificateTwo",
    "Infeasible",
    "InternalSolverError",
    "solve_one",
    "verify_one",
    "solve_two",
    "verify_two",
    "VerifyResult",
]


class InternalSolverError(RuntimeError):
    """A constructed certificate failed its own verifier (implementation bug)."""


@dataclass(frozen=True, slots=True)
class Infeasible:
    """Negative solver outcome with the inequality that rules a witness out."""

    reason: str


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


_VERIFIED = VerifyResult(True, ())  # the passing result, shared by every verified call


def _record(cert) -> str:
    """The certificate's fields as space-separated name=value pairs, in field order."""
    return " ".join(f"{f.name}={getattr(cert, f.name)}" for f in fields(cert))


@dataclass(frozen=True, slots=True)
class CertificateOne:
    """Witness (theta, q0, q1, r0, r1) for the separable-weight proposition."""

    theta: ExtScalar
    q0: ExtScalar
    q1: ExtScalar
    r0: ExtScalar
    r1: ExtScalar

    record = _record


@dataclass(frozen=True, slots=True)
class CertificateTwo:
    """Witness (theta, q0, q1, r0, r1, gamma1) for the radial-weight proposition."""

    theta: ExtScalar
    q0: ExtScalar
    q1: ExtScalar
    r0: ExtScalar
    r1: ExtScalar
    gamma1: ExtScalar

    record = _record


def _shared_checks(cert: CertificateOne | CertificateTwo, r: ScalarLike, q: ScalarLike,
                   r1_finite: bool, *extra: tuple[int, int]):
    """The constraints both propositions put on (theta, q0, q1, r0, r1).

    Returns the violated names so far and (1, theta, 1/q1, 1/r1', *extra), extra given
    as integer pairs, as integers over one denominator; the values are None, and the
    names final, when theta lies outside (0, 1) or an exponent is 0, which has no
    reciprocal.
    """
    theta = cert.theta.as_integer_ratio() if cert.theta.is_finite else (1, 0)
    if not 0 < theta[0] < theta[1]:  # 0 < theta < 1 over a positive denominator
        return ["theta-range"], None

    bad: list[str] = []
    if cert.q0 < 1:
        bad.append("q0-range")
    if not (cert.q1.is_finite and cert.q1 > 0):
        bad.append("q1-range")
    if cert.r0 < 1:
        bad.append("r0-range")
    if (r1_finite and cert.r1.is_infinite) or cert.r1 < 1:
        bad.append("r1-range")
    if bad and 0 in (cert.q0, cert.q1, cert.r0, cert.r1):
        return bad, None

    one, th, inv_q0, inv_q1, inv_r0, inv_r1, inv_q, inv_r, *extra = scaled(
        1, theta, *map(inv_ratio, (cert.q0, cert.q1, cert.r0, cert.r1, q, r)), *extra)
    if (one - th) * inv_q0 + th * inv_q1 != inv_q * one:
        bad.append("q-convexity")
    if (one - th) * inv_r0 + th * inv_r1 != inv_r * one:
        bad.append("r-convexity")
    if 3 * inv_q0 > one - inv_r0:
        bad.append("q0-fz-region")
    if 4 * inv_q0 >= one:
        bad.append("q0-above-4")
    return bad, (one, th, inv_q1, one - inv_r1, *extra)


# ---------------------------------------------------------------------------
# Proposition one: separable weight, alpha < 1/q
# ---------------------------------------------------------------------------


def solve_one(
    alpha: ScalarLike, beta: ScalarLike, r: ScalarLike, q: ScalarLike
) -> CertificateOne | Infeasible:
    """Construct an interpolation certificate for the separable weight.

    Preconditions, all exact: alpha in (0, inf), beta in [0, inf), r in [1, inf),
    q in (0, inf) and beta <= alpha < 1/q.  A certificate exists iff
    alpha + beta > 2/q - 1/2 and alpha + 2 beta >= 3/q - 1/r'.
    """
    a, b = exact_in(alpha, "alpha", "(0, inf)"), exact_in(beta, "beta", "[0, inf)")
    r, q = exact_in(r, "r", "[1, inf)"), exact_in(q, "q", "(0, inf)")
    if b > a:
        raise DomainError("solve_one needs beta <= alpha")

    # Feasibility is decided before the alpha < 1/q domain check so that
    # infeasible inputs sitting on that boundary still report Infeasible.
    # alpha, beta, 1/q, 1/r' and 1 as integers over one denominator; its
    # factor 4 keeps the midpoint and the quarter point of the theta window integral
    one, a, b, inv_q, inv_rc = scaled(
        4, a.as_integer_ratio(), b.as_integer_ratio(), inv_ratio(q), inv_conjugate_ratio(r))
    if 2 * (a + b) <= 4 * inv_q - one:
        return Infeasible("alpha+beta <= 2/q - 1/2")
    if a + 2 * b < 3 * inv_q - inv_rc:
        return Infeasible("alpha+2beta < 3/q - 1/r'")
    if a >= inv_q:
        raise DomainError("solve_one needs alpha < 1/q")

    # theta window (max(2a-2b, 0), 1 - 4/q + 4a), clipped by 1 - 3/q + 3a and 1
    lo = max(2 * a - 2 * b, 0)
    hi = min(one - 4 * inv_q + 4 * a, one - 3 * inv_q + 3 * a, one)
    if not lo < hi:
        raise InternalSolverError("empty theta window despite feasible inequalities")
    theta = (lo + hi) // 2
    if theta * inv_q == a * one:  # theta = alpha q would force q0 = q1; take the quarter point
        theta = lo + (hi - lo) // 4

    t1 = max(2 * a - 2 * b, theta - (one - inv_rc), 0)  # theta / r1'
    cert = CertificateOne(
        theta=ext_ratio(theta, one),
        q0=ext_ratio(one - theta, inv_q - a),
        q1=ext_ratio(theta, a),
        r0=ext_ratio(one - theta, one - theta - inv_rc + t1),
        r1=ext_ratio(theta, theta - t1),
    )
    check = verify_one(cert, alpha, beta, r, q)
    if not check.ok:
        raise InternalSolverError(f"constructed certificate fails: {check.violations}")
    return cert


def verify_one(
    cert: CertificateOne, alpha: ScalarLike, beta: ScalarLike,
    r: ScalarLike, q: ScalarLike,
) -> VerifyResult:
    """Check every constraint of the separable proposition exactly.

    Returns a pass/fail result; on failure the violated constraints are
    listed by name, one entry per failed constraint.
    """
    bad, values = _shared_checks(cert, r, q, True, finite_ratio(alpha), finite_ratio(beta))
    if values is None:
        return VerifyResult(False, tuple(bad))
    one, th, inv_q1, inv_r1c, a, b = values
    if a * one != inv_q1 * th:  # alpha / theta != 1/q1
        bad.append("alpha-split")
    if 2 * b * one < (2 * inv_q1 - inv_r1c) * th:  # beta / theta < 1/q1 - 1/(2 r1')
        bad.append("beta-split")
    if cert.q0 == cert.q1:
        bad.append("q0-ne-q1")
    return VerifyResult(False, tuple(bad)) if bad else _VERIFIED


# ---------------------------------------------------------------------------
# Proposition two: radial weight
# ---------------------------------------------------------------------------


def solve_two(
    gamma: ScalarLike, r: ScalarLike, q: ScalarLike
) -> CertificateTwo | Infeasible:
    """Construct an interpolation certificate for the radial weight.

    Preconditions: gamma in (0, inf), r in [1, inf], q in (0, inf), all exact.
    A certificate exists iff gamma >= max(3/(2q) - 1/(2r'), 2/q - 1/r') and
    gamma > 2/q - 1/2.
    """
    g = exact_in(gamma, "gamma", "(0, inf)")
    r, q = exact_in(r, "r", "[1, inf]"), exact_in(q, "q", "(0, inf)")
    # gamma, 1/q, 1/r' and 1 as integers over one denominator; its factor
    # 192 = 3 * 4^3 keeps every third and quarter taken below integral
    one, g, inv_q, inv_rc = scaled(192, g.as_integer_ratio(), inv_ratio(q), inv_conjugate_ratio(r))

    if 2 * g < max(3 * inv_q - inv_rc, 4 * inv_q - 2 * inv_rc):
        return Infeasible("gamma < max(3/(2q) - 1/(2r'), 2/q - 1/r')")
    if 2 * g <= 4 * inv_q - one:
        return Infeasible("gamma <= 2/q - 1/2")

    lo = max(4 * inv_q - 2 * g - 4 * inv_rc // 3, 12 * inv_q - 6 * g - 4 * inv_rc, 0)
    hi = min(one - 4 * inv_q + 4 * g, one)
    if not lo < hi:
        raise InternalSolverError("empty theta window despite feasible inequalities")
    # theta at 1/2, 1/4, 3/4 of the window, all strictly interior; tried in order until
    # one admits a u with q0 != q1
    for theta in [lo + (hi - lo) * k // 4 for k in (2, 1, 3)]:
        # window [low, high] for u = (1-theta)/q0: feasibility and lo <= theta < hi give
        # low <= high and low < min((1-theta)/4, 1/q), all multiples of 16 (exact floors)
        low = max(inv_q - g, inv_q - g // 2 - theta // 4, 0)
        high = min(inv_q, inv_rc // 3, g - 2 * inv_q + inv_rc)
        cap = min(high, (one - theta) // 4)
        for parts in (2, 4):  # u at 1/2, then 1/4, of the way from low to the cap
            u = low + (cap - low) // parts
            # q0 = (1-theta)/u would equal q1 = theta/(1/q - u), failing q0-ne-q1
            if theta * u == (one - theta) * (inv_q - u):
                continue
            v = max(3 * u, inv_rc - theta)  # (1-theta)/r0'
            cert = CertificateTwo(
                theta=ext_ratio(theta, one),
                q0=ext_ratio(one - theta, u),
                q1=ext_ratio(theta, inv_q - u),
                r0=ext_ratio(one - theta, one - theta - v),
                r1=ext_ratio(theta, theta - inv_rc + v),
                gamma1=ext_ratio(g, theta),
            )
            check = verify_two(cert, gamma, r, q)
            if not check.ok:
                raise InternalSolverError(f"constructed certificate fails: {check.violations}")
            return cert
    raise InternalSolverError("no theta candidate admits a u with q0 != q1")


def verify_two(
    cert: CertificateTwo, gamma: ScalarLike, r: ScalarLike, q: ScalarLike
) -> VerifyResult:
    """Check every constraint of the radial proposition exactly."""
    bad, values = _shared_checks(cert, r, q, False, finite_ratio(gamma))
    if values is None:
        return VerifyResult(False, tuple(bad))
    one, th, inv_q1, inv_r1c, g = values
    if cert.q0 == cert.q1:
        bad.append("q0-ne-q1")
    g1 = cert.gamma1.as_integer_ratio() if cert.gamma1.is_finite else None
    if g1 is None or th * g1[0] != g * g1[1]:  # theta gamma1 != gamma
        bad.append("gamma-split")
        return VerifyResult(False, tuple(bad))
    # gamma1 < max(1/q1, 2/q1 - 1/r1', 2/q1 - 1/2), both sides times 2 one
    floor2 = max(2 * inv_q1, 2 * (2 * inv_q1 - inv_r1c), 4 * inv_q1 - one)
    if 2 * one * g1[0] < floor2 * g1[1]:
        bad.append("gamma1-floor")
    return VerifyResult(False, tuple(bad)) if bad else _VERIFIED
