import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restriction_lab import exponents
from restriction_lab.errors import ConfigurationError
from restriction_lab.exponents import (
    INF,
    DomainError,
    ExtScalar,
    RadialParams,
    SeparableParams,
    Verdict,
    classify_radial,
    classify_separable,
    conjugate_exponent,
    exact_in,
    ext_ratio,
    inv_conjugate,
    inv_conjugate_ratio,
    inv_ratio,
    riesz_diagram,
    scaled,
)


def sep(a, b, r, q):
    return classify_separable(SeparableParams(a, b, r, q))


def rad(g, r, q):
    return classify_radial(RadialParams(g, r, q))


def rand_fraction(rng, lo, hi, max_den=40):
    den = rng.randint(1, max_den)
    lo_n = int(Fraction(lo) * den) + 1
    hi_n = int(Fraction(hi) * den)
    if hi_n < lo_n:
        return Fraction(lo) + Fraction(1, max_den * 7)
    return Fraction(rng.randint(lo_n, hi_n), den)


class TestExtScalar:
    def test_parse_and_str_round_trip(self):
        for text in ["0", "7", "3/4", "22/7", "inf"]:
            assert str(ExtScalar(text)) == text

    def test_total_order_infinity_maximal(self):
        assert INF > ExtScalar("1000000")
        assert sorted([INF, ExtScalar(3), ExtScalar("1/2")])[-1] == INF

    def test_undefined_forms_raise(self):
        with pytest.raises(DomainError):
            INF * ExtScalar(0)

    @pytest.mark.parametrize("value, error, message", [
        ("1/0", ZeroDivisionError, "^'1/0' has a zero denominator$"),
        (1.5, TypeError, "^cannot build ExtScalar from float$"),
    ])
    def test_zero_denominator_and_inexact_type_are_refused(self, value, error, message):
        with pytest.raises(error, match=message):
            ExtScalar(value)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: INF.as_integer_ratio(), DomainError, "^infinity has no Fraction value$"),
        (lambda: ExtScalar(-1) * INF, DomainError, r"^negative \* infinity not supported$"),
        (lambda: Verdict(True), ValueError, "^bounded verdict must carry exactly a case tag$"),
        (lambda: Verdict(False), ValueError,
         "^unbounded verdict must carry exactly a violation$"),
    ], ids=["inf-ratio", "negative-times-inf", "bounded-verdict", "unbounded-verdict"])
    def test_partial_operations_are_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_a_float_is_never_equal(self):
        # a float is not exact: == gives NotImplemented, so Python answers False
        assert not ExtScalar(1) == 1.5 and ExtScalar(1) != 1.0


# integers well past 2^64, either sign, and zero
wide_ints = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, 1, -1, 2**64, -(2**64)]))
wide_fractions = st.builds(Fraction, wide_ints, st.integers(1, 2**70))


@st.composite
def operands(draw):
    """(oracle, operand): the oracle a Fraction, None for inf; the operand that value as
    an int, a Fraction, a string, an ExtScalar, INF or "inf"."""
    form = draw(st.sampled_from(["int", "Fraction", "str", "ExtScalar", "inf"]))
    if form == "inf":
        return None, draw(st.sampled_from([INF, "inf"]))
    if form == "int":
        value = draw(wide_ints)
        return Fraction(value), value
    value = draw(st.one_of(wide_fractions, st.fractions(max_denominator=12)))
    return value, {"Fraction": value, "str": str(value), "ExtScalar": ExtScalar(value)}[form]


class TestIntegerPair:
    @settings(max_examples=300, deadline=None)
    @given(wide_ints, wide_ints)
    @example(0, -7)
    @example(-(2**64) - 2, -(2**65) - 4)
    @example(5, 0)
    def test_ext_ratio_matches_fraction(self, num, den):
        x = ext_ratio(num, den)
        if den == 0:  # a zero reciprocal: inf
            assert x.is_infinite and x == INF and str(x) == "inf"
            return
        f = Fraction(num, den)
        assert x.as_integer_ratio() == (f.numerator, f.denominator)
        assert str(x) == str(f) and str(ExtScalar(f"{num}/{den}")) == str(f)

    @settings(max_examples=500, deadline=None)
    @given(operands(), operands())
    @example((None, INF), (Fraction(0), 0))
    @example((Fraction(2**64), ExtScalar(2**64)), (Fraction(2**64), 2**64))
    def test_order_equality_and_hash_match_the_oracle(self, left, right):
        def key(v):
            return (1, 0) if v is None else (0, v)

        (x, lhs), (y, rhs) = left, right
        lhs = ExtScalar(lhs)
        assert (lhs < rhs) == (key(x) < key(y))
        assert (lhs <= rhs) == (key(x) <= key(y))
        assert (lhs == rhs) == (key(x) == key(y)) == (rhs == lhs)
        assert hash(lhs) == hash(x)
        if lhs == rhs and not isinstance(rhs, str):
            assert hash(lhs) == hash(rhs)


class TestConjugate:
    @pytest.mark.parametrize(
        "r, expected",
        [(2, ExtScalar(2)), (1, INF), ("4/3", ExtScalar(4)), ("inf", ExtScalar(1))],
    )
    def test_examples(self, r, expected):
        assert conjugate_exponent(r) == expected

    def test_domain_error(self):
        with pytest.raises(DomainError):
            conjugate_exponent("1/2")

    def test_involution_on_random_rationals(self):
        rng = random.Random(5)
        for _ in range(1000):
            r = ExtScalar(Fraction(rng.randint(1, 400), rng.randint(1, 400)) + 1)
            assert conjugate_exponent(conjugate_exponent(r)) == r


def unweighted_bounded(r: ExtScalar, q: ExtScalar) -> bool:
    """The sharp unweighted region: q = inf, or q >= 3r' and q > 4."""
    return q.is_infinite or (q >= ExtScalar(3) * conjugate_exponent(r) and q > 4)


def zero_weight(r, q) -> tuple[bool, str, str]:
    """(bounded, separable label, radial label) at zero weight, where both families
    must decide the unweighted region."""
    r, q = ExtScalar(r), ExtScalar(q)
    s, g = sep(0, 0, r, q), rad(0, r, q)
    assert s.bounded == g.bounded == unweighted_bounded(r, q)
    return s.bounded, s.label, g.label


class TestUnweighted:
    def test_fz_endpoint(self):
        assert zero_weight(2, 6) == (True, "iv", "radial-endpoint")  # q = 3r'

    def test_below_endpoint(self):
        assert zero_weight(2, 5) == (False, "knapp-sum-weight", "knapp-threshold")

    def test_interior_at_r_infinity(self):
        assert zero_weight("inf", "9/2") == (True, "ii", "radial-strict")

    def test_q_infinite(self):
        assert zero_weight(1, "inf") == (True, "q-infinite", "q-infinite")

    def test_q_four_exactly_unbounded(self):
        assert zero_weight(4, 4) == (False, "constant-density", "constant-density")


class TestSeparable:
    def test_bloom_sampson_boundary(self):
        v = sep("1/3", "1/3", 2, 2)
        assert v.bounded and v.case_tag == "iv"

    def test_below_bloom_sampson(self):
        assert not sep("33/100", "33/100", 2, 2).bounded

    def test_r_equals_one_needs_strict(self):
        # here max weight sits exactly at 1/q, which already rules the
        # endpoint out before the r = 1 obstruction is reached
        v = sep(1, 1, 1, 1)
        assert not v.bounded and v.violated == "endpoint-max-weight-at-inv-q"
        v2 = sep(2, "1/2", 1, 2)  # max > 1/q, pair equality, r = 1
        assert not v2.bounded and v2.violated == "endpoint-r-equals-one"

    def test_r_equals_one_below_inv_q_is_never_the_endpoint_tag(self):
        # at r = 1, 1/r' = 0, so max(alpha, beta) < 1/q gives alpha + beta + min < 3/q:
        # the sum-weight condition fails first and the r = 1 endpoint is never reached
        for q in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4, 6, 10):
            inv_q = 1 / Fraction(q)
            lattice = [inv_q * Fraction(k, 24) for k in range(24)]  # [0, 1/q)
            for a in lattice:
                for b in lattice:
                    v = sep(a, b, 1, q)
                    assert v.violated != "endpoint-r-equals-one", (a, b, q)
                    assert not v.bounded and v.violated in ("constant-density", "knapp-sum-weight")

    def test_fz_consistency_clause(self):
        v = sep(0, 0, 2, 6)
        assert v.bounded and v.case_tag == "iv"

    def test_q_infinite(self):
        assert sep(5, 0, 1, "inf").case_tag == "q-infinite"

    def test_symmetry_in_alpha_beta(self):
        rng = random.Random(23)
        for _ in range(300):
            a = rand_fraction(rng, 0, 2)
            b = rand_fraction(rng, 0, 2)
            r = rand_fraction(rng, 1, 8)
            q = rand_fraction(rng, "1/4", 8)
            v1, v2 = sep(a, b, r, q), sep(b, a, r, q)
            assert v1 == v2

    def test_bloom_sampson_line_exact(self):
        for num in range(0, 81):
            a = Fraction(num, 120)
            assert sep(a, a, 2, 2).bounded == (a >= Fraction(1, 3))

    def test_specialization_to_unweighted(self):
        rng = random.Random(37)
        for _ in range(500):
            r = rng.choice([ExtScalar(1), ExtScalar("inf"), ExtScalar(rand_fraction(rng, 1, 9))])
            q = rng.choice([ExtScalar("inf"), ExtScalar(rand_fraction(rng, "1/4", 12)),
                            ExtScalar(3) * conjugate_exponent(r) if r != 1 else ExtScalar(5)])
            direct = unweighted_bounded(r, q)
            assert sep(0, 0, r, q).bounded == direct
            assert rad(0, r, q).bounded == direct

    def test_monotonicity(self):
        rng = random.Random(41)
        checked = 0
        while checked < 300:
            a = rand_fraction(rng, 0, 1)
            b = rand_fraction(rng, 0, 1)
            r = rand_fraction(rng, 1, 6)
            q = rand_fraction(rng, "1/3", 8)
            if not sep(a, b, r, q).bounded:
                continue
            da = rng.choice([0, rand_fraction(rng, 0, 1)])
            db = rng.choice([0, rand_fraction(rng, 0, 1)])
            dr = rng.choice([0, rand_fraction(rng, 0, 3)])
            dq = rng.choice([0, rand_fraction(rng, 0, 3)])
            assert sep(a + da, b + db, r + dr, q + dq).bounded, (a, b, r, q, da, db, dr, dq)
            checked += 1


class TestRadial:
    def test_endpoint_theorem4c(self):
        v = rad("2/3", "3/2", 2)
        assert v.bounded and v.case_tag == "radial-endpoint"

    def test_q_equals_r_conjugate_excluded(self):
        v = rad("1/4", "4/3", 4)
        assert not v.bounded and v.violated == "endpoint-q-equals-r-conjugate"

    def test_fz_corner(self):
        v = rad(0, "inf", "9/2")
        assert v.bounded and v.case_tag == "radial-strict"

    def test_gamma_2_over_q_needs_r_above_one(self):
        # gamma = 2/q sits exactly on the threshold when r = 1
        v = rad(1, 1, 2)
        assert not v.bounded and v.violated == "endpoint-r-equals-one"
        assert rad(1, "3/2", 2).bounded

    def test_monotonicity(self):
        rng = random.Random(43)
        checked = 0
        while checked < 300:
            g = rand_fraction(rng, 0, 2)
            r = rand_fraction(rng, 1, 6)
            q = rand_fraction(rng, "1/3", 8)
            if not rad(g, r, q).bounded:
                continue
            dg = rng.choice([0, rand_fraction(rng, 0, 1)])
            dr = rng.choice([0, rand_fraction(rng, 0, 3)])
            dq = rng.choice([0, rand_fraction(rng, 0, 3)])
            assert rad(g + dg, r + dr, q + dq).bounded, (g, r, q, dg, dr, dq)
            checked += 1


class TestRieszDiagram:
    def test_separable_boundary_point(self):
        rows = riesz_diagram("separable", {"alpha": "1/3", "beta": "1/3"}, 4)
        at = {(row.inv_r, row.inv_q): row.verdict for row in rows}
        v = at[(Fraction(1, 2), Fraction(1, 2))]
        assert v.bounded and v.case_tag == "iv"

    def test_radial_fz_point(self):
        rows = riesz_diagram("radial", {"gamma": 0}, 8)
        at = {(row.inv_r, row.inv_q): row.verdict for row in rows}
        assert at[(Fraction(0), Fraction(1, 8))].bounded

    def test_unbounded_small_q(self):
        rows = riesz_diagram("separable", {"alpha": 0, "beta": 0}, 2)
        at = {(row.inv_r, row.inv_q): row.verdict for row in rows}
        assert not at[(Fraction(1, 2), Fraction(1, 2))].bounded

    def test_grid_shape_and_csv(self):
        # the CSV rendering of a diagram is checked through the CLI in
        # tests/test_cli.py (TestCsvWriter.test_diagram_csv_rows)
        rows = riesz_diagram("radial", {"gamma": "1/2"}, 3)
        assert len(rows) == 4 * 3  # (grid_n+1) values of 1/r, grid_n of 1/q
        assert [(row.inv_r, row.inv_q) for row in rows[:4]] == [
            (0, Fraction(1, 3)), (0, Fraction(2, 3)), (0, 1), (Fraction(1, 3), Fraction(1, 3))
        ]

    def test_grid_n_validation(self):
        with pytest.raises(DomainError):
            riesz_diagram("separable", {"alpha": 0, "beta": 0}, 1)

    def test_a_grid_at_the_cell_budget_is_classified(self, monkeypatch):
        monkeypatch.setattr(exponents, "DIAGRAM_CELL_BUDGET", 12)  # grid_n = 3: (3 + 1) 3 cells
        assert len(riesz_diagram("radial", {"gamma": "1/2"}, 3)) == 12

    def test_a_grid_one_cell_over_the_budget_is_refused_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(exponents, "DIAGRAM_CELL_BUDGET", 11)
        monkeypatch.setattr(exponents, "classify_radial", None)  # a classified cell would raise
        with pytest.raises(ConfigurationError, match=r"^grid_n=3 needs 12 cells, over budget 11$"):
            riesz_diagram("radial", {"gamma": "1/2"}, 3)


# ---------------------------------------------------------------------------
# Plain-Fraction oracle: the classifiers' inequalities written on Fractions
# (None is infinity), independent of ExtScalar and of the integer scaling.
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


def oracle_inv_rc(r):
    return Fraction(1) if r is None else 1 - 1 / r


def oracle_r_window(r, q):
    # 1 < r <= q with None as infinity
    return r is not None and r > 1 and (q is None or r <= q)


def oracle_separable(a, b, r, q):
    if q is None:
        return True, "q-infinite"
    big, small = max(a, b), min(a, b)
    inv_q, inv_rc = 1 / q, oracle_inv_rc(r)
    if a + b <= 2 * inv_q - HALF:
        return False, "constant-density"
    pair, triple = 2 * inv_q - inv_rc, 3 * inv_q - inv_rc
    window = oracle_r_window(r, q)
    for ok, tag in (
        (big >= inv_q and 2 * small > pair, "i"),
        (big < inv_q and a + b + small > triple, "ii"),
        (window and big > inv_q and 2 * small == pair, "iii"),
        (window and big < inv_q and a + b + small == triple, "iv"),
    ):
        if ok:
            return True, tag
    r_name = "endpoint-r-equals-one" if r == 1 else "endpoint-r-greater-q"
    if big > inv_q:
        return False, "knapp-min-weight" if 2 * small < pair else r_name
    if big == inv_q:
        return False, "knapp-min-weight" if 2 * small < pair else "endpoint-max-weight-at-inv-q"
    return False, "knapp-sum-weight" if a + b + small < triple else r_name


def oracle_radial(g, r, q):
    if q is None:
        return True, "q-infinite"
    inv_q, inv_rc = 1 / q, oracle_inv_rc(r)
    if g <= 2 * inv_q - HALF:
        return False, "constant-density"
    threshold = max(Fraction(3, 2) * inv_q - inv_rc / 2, 2 * inv_q - inv_rc)
    if g != threshold:
        return (True, "radial-strict") if g > threshold else (False, "knapp-threshold")
    if r == 1:
        return False, "endpoint-r-equals-one"
    if r is not None and q is not None and r > q:
        return False, "endpoint-r-greater-q"
    if inv_q == inv_rc:
        return False, "endpoint-q-equals-r-conjugate"
    return True, "radial-endpoint"


def ext(x):
    return INF if x is None else ExtScalar(x)


small_fractions = st.fractions(min_value=0, max_value=3, max_denominator=24)
exponents_r = st.one_of(st.none(), st.just(Fraction(1)),
                        st.fractions(min_value=1, max_value=12, max_denominator=24))
exponents_q = st.one_of(st.none(), st.fractions(min_value=Fraction(1, 8), max_value=12,
                                                max_denominator=24).filter(lambda x: x > 0))


@st.composite
def separable_args(draw):
    r, q = draw(exponents_r), draw(exponents_q)
    a, b = draw(small_fractions), draw(small_fractions)
    if q is not None and draw(st.booleans()):
        # sit on one of the region's boundaries
        inv_q, inv_rc = 1 / q, oracle_inv_rc(r)
        a = draw(st.sampled_from([a, inv_q, max(2 * inv_q - HALF - b, Fraction(0))]))
        b = draw(st.sampled_from([b, max((2 * inv_q - inv_rc) / 2, Fraction(0)),
                                  max((3 * inv_q - inv_rc - a) / 2, Fraction(0))]))
    return a, b, r, q


@st.composite
def radial_args(draw):
    r, q = draw(exponents_r), draw(exponents_q)
    g = draw(small_fractions)
    if q is not None and draw(st.booleans()):
        inv_q, inv_rc = 1 / q, oracle_inv_rc(r)
        threshold = max(Fraction(3, 2) * inv_q - inv_rc / 2, 2 * inv_q - inv_rc)
        g = draw(st.sampled_from([max(threshold, Fraction(0)),
                                  max(2 * inv_q - HALF, Fraction(0))]))
    return g, r, q


class TestFractionOracle:
    @settings(max_examples=200, deadline=None)
    @given(separable_args())
    @example((Fraction(1, 3), Fraction(1, 12), Fraction(2), Fraction(3)))  # max weight at 1/q
    @example((Fraction(1, 3), Fraction(1, 3), Fraction(2), Fraction(2)))  # clause iv
    def test_separable_matches_oracle(self, args):
        a, b, r, q = args
        v = classify_separable(SeparableParams(a, b, ext(r), ext(q)))
        assert (v.bounded, v.label) == oracle_separable(a, b, r, q)

    @settings(max_examples=200, deadline=None)
    @given(radial_args())
    @example((Fraction(1, 4), Fraction(2), Fraction(3)))  # radial endpoint
    @example((Fraction(1, 3), Fraction(3, 2), Fraction(3)))  # endpoint with q = r'
    def test_radial_matches_oracle(self, args):
        g, r, q = args
        v = classify_radial(RadialParams(g, ext(r), ext(q)))
        assert (v.bounded, v.label) == oracle_radial(g, r, q)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.none(), st.fractions(max_denominator=50)),
           st.one_of(st.none(), st.fractions(max_denominator=50), st.integers(-5, 5)))
    def test_order_matches_fraction_order(self, x, y):
        # infinity is maximal; finite values order as Fractions
        def key(v):
            return (1, 0) if v is None else (0, v)

        lhs, rhs = ext(x), (ext(y) if y is None or isinstance(y, Fraction) else y)
        assert (lhs < rhs) == (key(x) < key(y))
        assert (lhs <= rhs) == (key(x) <= key(y))
        assert (lhs > rhs) == (key(x) > key(y))
        assert (lhs >= rhs) == (key(x) >= key(y))
        assert (lhs == rhs) == (key(x) == key(y))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.lists(st.fractions(max_denominator=60), min_size=1,
                                           max_size=6))
    def test_scaled_is_exact(self, k, xs):
        one, *ints = scaled(k, *(x.as_integer_ratio() for x in xs))
        assert one % k == 0 and all(Fraction(n, one) == x for n, x in zip(ints, xs))

    def test_reciprocal_ratios(self):
        assert inv_ratio(INF) == (0, 1)
        assert inv_ratio(ExtScalar("-2/3")) == (-3, 2)
        assert inv_conjugate_ratio(ExtScalar(1)) == (0, 1)
        assert inv_conjugate(INF) == 1 and inv_conjugate(ExtScalar("4/3")) == Fraction(1, 4)
        with pytest.raises(DomainError, match="^0 has no reciprocal$"):
            inv_ratio(ExtScalar(0))


SRC = Path(__file__).resolve().parents[1] / "src" / "restriction_lab"

# every interval the package passes to exact_in, transcribed with plain Fractions
# (None is inf), and its finite ends
INTERVALS = {
    "[1, inf]": (lambda x: x is None or x >= 1, [1]),
    "(1, inf)": (lambda x: x is not None and x > 1, [1]),
    "[1, inf)": (lambda x: x is not None and x >= 1, [1]),
    "(0, inf]": (lambda x: x is None or x > 0, [0]),
    "(0, inf)": (lambda x: x is not None and x > 0, [0]),
    "[0, inf)": (lambda x: x is not None and x >= 0, [0]),
    "[1, 2]": (lambda x: x is not None and 1 <= x <= 2, [1, 2]),
}


@st.composite
def interval_points(draw):
    """(interval, x, form): x is inf (None), an end, an end +- 1/10^k for k <= 400 or
    any small rational, passed as a Fraction, an int, a string or an ExtScalar."""
    interval = draw(st.sampled_from(sorted(INTERVALS)))
    end = Fraction(draw(st.sampled_from(INTERVALS[interval][1])))
    step = Fraction(draw(st.sampled_from([-1, 1])), 10 ** draw(st.integers(1, 400)))
    x = draw(st.one_of(st.none(), st.just(end), st.just(end + step),
                       st.fractions(min_value=-3, max_value=3, max_denominator=50)))
    forms = ["str", "ExtScalar"] if x is None else ["Fraction", "str", "ExtScalar"]
    if x is not None and x.denominator == 1:
        forms.append("int")
    return interval, x, draw(st.sampled_from(forms))


class TestExactIn:
    def test_transcriptions_cover_every_interval_in_the_package(self):
        used = {m for path in SRC.glob("*.py")
                for m in re.findall(r'exact_in\([^()]*?"([\[(][^"]+[\])])"\)', path.read_text())}
        assert used == set(INTERVALS)

    @settings(max_examples=500, deadline=None)
    @given(interval_points())
    @example(("[1, inf]", None, "str"))
    @example(("(1, inf)", None, "ExtScalar"))
    @example(("[0, inf)", Fraction(-1, 10**400), "Fraction"))
    @example(("[1, 2]", Fraction(2) + Fraction(1, 10**400), "str"))
    def test_matches_its_fraction_transcription(self, point):
        interval, x, form = point
        arg = {"Fraction": lambda: x, "int": lambda: int(x),
               "str": lambda: "inf" if x is None else str(x),
               "ExtScalar": lambda: INF if x is None else ExtScalar(x)}[form]()
        if not INTERVALS[interval][0](x):
            with pytest.raises(DomainError) as info:
                exact_in(arg, "t", interval)
            assert str(info.value) == f"t must lie in {interval}"
            return
        out = exact_in(arg, "t", interval)
        if interval.endswith("inf]"):  # may hold inf: an ExtScalar
            assert type(out) is ExtScalar and out == (INF if x is None else ExtScalar(x))
            assert out is arg or form != "ExtScalar"
        else:
            assert type(out) is Fraction and out == x
            assert out is arg or form != "Fraction"

    def test_an_open_finite_upper_end_excludes_itself(self):
        # no interval in the package has one yet
        assert exact_in("1/2", "t", "(0, 1)") == Fraction(1, 2)
        with pytest.raises(DomainError, match=r"^t must lie in \(0, 1\)$"):
            exact_in(1, "t", "(0, 1)")
