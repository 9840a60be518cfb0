import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from restriction_lab import analysis, experiments
from restriction_lab.analysis import cosine_weight_kernel_many, j0_extrema
from restriction_lab.errors import ConfigurationError
from restriction_lab.experiments import (
    PredictedExponent,
    ScanResult,
    ScanSample,
    constant_density_sums,
    dual_scan,
    fit_loglog_slope,
    knapp_scan,
    l2_endpoint_scan,
    pitt_sweep,
    predicted_exponent,
)
from restriction_lab.cli import run
from restriction_lab.exponents import (
    INF,
    DomainError,
    RadialParams,
    SeparableParams,
    classify_radial,
    classify_separable,
    riesz_diagram,
    weight_exponents,
)
from restriction_lab.norms import Sampled1, WeightSpec, weak_lq_1d
from restriction_lab.operator import Density, constant_reference_radii


class TestPredictedExponent:
    def test_fz_endpoint_is_flat(self):
        p = predicted_exponent("separable", alpha=0, beta=0, q=6, r=2)
        assert p == PredictedExponent(Fraction(0), "none")

    def test_bloom_sampson_boundary_is_flat(self):
        p = predicted_exponent("separable", alpha="1/3", beta="1/3", q=2, r=2)
        assert p == PredictedExponent(Fraction(0), "none")

    def test_radial_log_row(self):
        p = predicted_exponent("radial", gamma="1/2", q=2, r=2)
        assert p.slope == 0 and p.log_flag == "single"
        # generic q: gamma = 1/q gives slope 1/r' - 1/q with a log factor
        p2 = predicted_exponent("radial", gamma="1/5", q=5, r=3)
        assert p2.slope == Fraction(2, 3) - Fraction(1, 5)
        assert p2.log_flag == "single"

    def test_large_weights_give_positive_slope(self):
        p = predicted_exponent("separable", alpha=1, beta=1, q=2, r=2)
        assert p == PredictedExponent(Fraction(1, 2), "none")

    def test_double_log(self):
        p = predicted_exponent("separable", alpha="1/2", beta="1/2", q=2, r=2)
        assert p.log_flag == "double"

    def test_r_below_one_is_refused_before_any_knapp_work(self, monkeypatch):
        with pytest.raises(DomainError, match=r"^r must lie in \[1, inf\]$"):
            predicted_exponent("separable", alpha=0, beta=0, r="1/2", q=2)
        with pytest.raises(DomainError, match=r"^r must lie in \[1, inf\]$"):
            predicted_exponent("radial", gamma="1/2", r="1/2", q=2)
        # the q check comes first
        with pytest.raises(DomainError, match=r"^q must lie in \(0, inf\)$"):
            predicted_exponent("separable", alpha=0, beta=0, r="1/2", q=0)

        def no_mass(*args):
            raise AssertionError("mass summed")

        monkeypatch.setattr(experiments, "_gram_mass", no_mass)
        monkeypatch.setattr(experiments, "_streamed_mass", no_mass)
        with pytest.raises(DomainError, match=r"^r must lie in \[1, inf\]$"):
            knapp_scan("separable", alpha=0, beta=0, r="1/2", q=2, delta_exps=[2, 3, 4])

    def test_constant_kind(self):
        assert predicted_exponent("constant", weight_sum=0, q=4).slope == -1
        assert predicted_exponent(
            "constant", weight_sum="3/4", q=2
        ).slope == Fraction(-3, 2)


class TestNegativeWeights:
    """A negative weight is refused exactly, even one that rounds to -0.0 as a float."""

    TINY = Fraction(-1, 10**400)  # float(TINY) == -0.0

    @pytest.mark.parametrize("kind, name", [("separable", "alpha"), ("separable", "beta"),
                                            ("radial", "gamma")])
    def test_refused_before_any_work(self, monkeypatch, kind, name):
        def reached(*args):
            raise AssertionError("mass summed")

        monkeypatch.setattr(experiments, "_gram_mass", reached)
        monkeypatch.setattr(experiments, "_streamed_mass", reached)
        monkeypatch.setattr(experiments, "j0_extrema", reached)
        weights = {"alpha": 0, "beta": 0} if kind == "separable" else {"gamma": 0}
        weights[name] = self.TINY
        message = rf"^{name} must lie in \[0, inf\)$"
        with pytest.raises(DomainError, match=message):
            knapp_scan(kind, r=2, q=6, delta_exps=[2, 3, 4], **weights)
        with pytest.raises(DomainError, match=message):
            constant_density_sums(kind, q=4, n_list=[10], cross_check_rings=5, **weights)
        with pytest.raises(DomainError, match=message):
            predicted_exponent(kind, r=2, q=6, **weights)

    def test_predicted_exponent_refuses_alpha_minus_one(self):
        # this once returned the slope -3
        with pytest.raises(DomainError, match=r"^alpha must lie in \[0, inf\)$"):
            predicted_exponent("separable", alpha=-1, beta=0, r=2, q=2)
        with pytest.raises(DomainError, match=r"^weight_sum must lie in \[0, inf\)$"):
            predicted_exponent("constant", weight_sum=self.TINY, q=4)


class TestPredictionClassifierConsistency:
    def _check_separable(self, a, b, r, q):
        pred = predicted_exponent("separable", alpha=a, beta=b, r=r, q=q)
        verdict = classify_separable(SeparableParams(a, b, r, q))
        if pred.slope < 0 or (pred.slope == 0 and pred.log_flag != "none"):
            assert not verdict.bounded, (a, b, r, q, pred)
        if verdict.bounded:
            assert pred.slope >= 0
            if pred.slope == 0:
                assert pred.log_flag == "none"
            s = predicted_exponent("constant", weight_sum=a + b, q=q).slope
            assert s < -1

    def _check_radial(self, g, r, q):
        pred = predicted_exponent("radial", gamma=g, r=r, q=q)
        verdict = classify_radial(RadialParams(g, r, q))
        if pred.slope < 0 or (pred.slope == 0 and pred.log_flag != "none"):
            assert not verdict.bounded, (g, r, q, pred)
        if verdict.bounded:
            assert pred.slope >= 0
            if pred.slope == 0:
                assert pred.log_flag == "none"
            s = predicted_exponent("constant", weight_sum=g, q=q).slope
            assert s < -1

    def test_random_tuples_with_boundary_hits(self):
        rng = random.Random(71)
        for _ in range(1000):
            q = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            r = Fraction(rng.randint(1, 40), rng.randint(1, 8)) + 1
            pick = rng.random()
            if pick < 0.25:
                a = 1 / q  # exact boundary
            elif pick < 0.35:
                a = 2 / q
            else:
                a = Fraction(rng.randint(0, 60), 40)
            b = rng.choice([a, 1 / q, Fraction(rng.randint(0, 60), 40)])
            self._check_separable(a, b, r, q)
            g = rng.choice(
                [1 / q, 2 / q, Fraction(rng.randint(0, 60), 40)]
            )
            self._check_radial(g, r, q)

    def test_q_equals_r_conjugate_exclusion_shows_in_log_flag(self):
        # radial endpoint with q = r': slope 0 with log, classifier unbounded
        pred = predicted_exponent("radial", gamma="1/4", q=4, r="4/3")
        assert pred.slope == 0 and pred.log_flag == "single"
        assert not classify_radial(RadialParams("1/4", "4/3", 4)).bounded


def oracle_predicted(kind, q, r, weights):
    """The ladder of predicted_exponent's docstring on plain Fractions; r None is inf."""
    inv_q, inv_rc = 1 / q, (1 if r is None else 1 - 1 / r)
    if kind == "constant":
        return 1 - q * (Fraction(1, 2) + weights[0]), "none"
    logs = 0
    if kind == "separable":
        big, small = max(weights), min(weights)
        # the max weight contributes 0 / log / -1 + alpha q against 1/q
        if big > inv_q:
            pa = 0
        elif big == inv_q:
            pa, logs = 0, logs + 1
        else:
            pa = -1 + big * q
        # the min weight 0 / log / -2 + 2 beta q
        if small > inv_q:
            pb = 0
        elif small == inv_q:
            pb, logs = 0, logs + 1
        else:
            pb = -2 + 2 * small * q
        e = pa + pb
    else:
        (g,) = weights
        # gamma >, =, in-between, =, < of 2/q and 1/q
        if g > 2 * inv_q:
            e = 0
        elif g == 2 * inv_q:
            e, logs = 0, 1
        elif g > inv_q:
            e = -2 + g * q
        elif g == inv_q:
            e, logs = -1, 1
        else:
            e = -3 + 2 * g * q
    return inv_rc + e * inv_q, ("none", "single", "double")[logs]


PREDICTION_NAMES = {"separable": ("alpha", "beta"), "radial": ("gamma",),
                    "constant": ("weight_sum",)}


@st.composite
def prediction_args(draw):
    kind = draw(st.sampled_from(sorted(PREDICTION_NAMES)))
    q = draw(st.fractions(min_value=Fraction(1, 8), max_value=12, max_denominator=24))
    r = draw(st.one_of(st.none(), st.just(Fraction(1)),
                       st.fractions(min_value=1, max_value=12, max_denominator=24)))
    # weights snapped to the ladder's rungs 1/q and 2/q half of the time
    weight = st.one_of(st.fractions(min_value=0, max_value=3, max_denominator=24),
                       st.sampled_from([1 / q, 2 / q]))
    return kind, q, r, [draw(weight) for _ in PREDICTION_NAMES[kind]]


class TestPredictedExponentOracle:
    @settings(max_examples=300, deadline=None)
    @given(prediction_args())
    @example(("separable", Fraction(2), Fraction(2), [Fraction(1, 2), Fraction(1, 2)]))
    @example(("separable", Fraction(3), None, [Fraction(1, 3), Fraction(1, 9)]))
    @example(("radial", Fraction(5), Fraction(3), [Fraction(2, 5)]))
    @example(("radial", Fraction(5), Fraction(1), [Fraction(1, 5)]))
    # each kink of the clipped-linear slope alone: m = 1/q < M, M = 1/q > m,
    # gamma = 1/q and gamma = 2/q
    @example(("separable", Fraction(4), Fraction(2), [Fraction(1), Fraction(1, 4)]))
    @example(("separable", Fraction(3, 2), Fraction(1), [Fraction(0), Fraction(2, 3)]))
    @example(("radial", Fraction(7, 3), Fraction(4), [Fraction(3, 7)]))
    @example(("radial", Fraction(3), None, [Fraction(2, 3)]))
    def test_matches_docstring_ladder(self, args):
        kind, q, r, weights = args
        p = predicted_exponent(kind, q=q, r=INF if r is None else r,
                               **dict(zip(PREDICTION_NAMES[kind], weights)))
        assert (p.slope, p.log_flag) == oracle_predicted(kind, q, r, weights)


class TestMissingWeightExponents:
    """Every entry point that takes a weight kind names a missing or infinite exponent."""

    @pytest.mark.parametrize("call, missing", [
        (lambda: predicted_exponent("radial", r=2, q=2), "gamma"),
        (lambda: predicted_exponent("separable", beta=0, r=2, q=2), "alpha"),
        (lambda: knapp_scan("separable", alpha=1, r=2, q=2, delta_exps=[2, 3, 4]), "beta"),
        (lambda: constant_density_sums("radial", alpha=1, q=4, n_list=[10]), "gamma"),
        (lambda: constant_density_sums("separable", q=4, n_list=[10]), "alpha, beta"),
        (lambda: dual_scan("separable", beta="1/8", r=4, q=2, eps_exps=[3, 4, 5]), "alpha"),
        (lambda: dual_scan("radial", r=3, q="5/4", eps_exps=[3, 4, 5]), "gamma"),
        (lambda: riesz_diagram("separable", {"alpha": 0}, 4), "beta"),
        (lambda: riesz_diagram("radial", {}, 4), "gamma"),
        (lambda: predicted_exponent("constant", q=4), "weight_sum"),
        (lambda: predicted_exponent("separable", alpha=0, beta=0, q=2), "r"),
        (lambda: predicted_exponent("radial", gamma=1, r=2), "q"),
    ], ids=["pred-radial", "pred-separable", "knapp", "constant-radial",
            "constant-separable", "dual-separable", "dual-radial", "diagram-separable",
            "diagram-radial", "pred-constant-weight-sum", "pred-separable-r", "pred-radial-q"])
    def test_library_raises_domain_error(self, call, missing):
        with pytest.raises(DomainError, match=f"^missing required exact parameters: {missing}$"):
            call()

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown weight kind 'conic'"):
            weight_exponents("conic", gamma=1)
        with pytest.raises(DomainError, match="unknown weight kind 'conic'"):
            knapp_scan("conic", gamma=1, r=2, q=2, delta_exps=[2, 3, 4])

    def test_exponents_come_back_exact_in_family_order(self):
        assert weight_exponents("separable", "1/3", 0, gamma=5) == {
            "alpha": Fraction(1, 3), "beta": Fraction(0)}
        assert list(weight_exponents("separable", beta=1, alpha=2)) == ["alpha", "beta"]
        assert weight_exponents("radial", alpha=1, gamma="2/7") == {"gamma": Fraction(2, 7)}

    @pytest.mark.parametrize("argv, missing", [
        ("classify --kind separable --alpha 1/3 --r 2 --q 3", "beta"),
        ("diagram --kind radial --grid-n 4", "gamma"),
        ("feasibility --prop one --gamma 1 --r 2 --q 2", "alpha, beta"),
        ("feasibility --prop two --alpha 1 --r 2 --q 2", "gamma"),
        ("knapp --kind radial --r 2 --q 2", "gamma"),
    ])
    def test_cli_exits_one_with_the_message(self, capsys, argv, missing):
        assert run(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: missing required exact parameters: {missing}\n"

    @pytest.mark.parametrize("argv, message", [
        ("classify --kind separable --alpha inf --beta 0 --r 2 --q 3",
         "alpha must lie in [0, inf)"),
        ("diagram --kind separable --alpha 0 --beta inf --grid-n 4", "beta must lie in [0, inf)"),
        ("feasibility --prop two --gamma inf --r 2 --q 3", "gamma must lie in [0, inf)"),
        ("knapp --kind radial --gamma inf --r 2 --q 2", "gamma must lie in [0, inf)"),
        ("constant --kind separable --alpha inf --beta 0 --q 4", "alpha must lie in [0, inf)"),
        ("dual --kind separable --alpha 0 --beta inf --r 2 --q 3", "beta must lie in [0, inf)"),
        ("knapp --kind separable --alpha 0 --beta 0 --r 2 --q inf", "q must lie in (0, inf)"),
        ("l2-endpoint --alpha inf --beta 1/4 --r 3", "alpha must lie in [0, inf)"),
        ("constant --kind radial --gamma 1 --q inf", "q must lie in (0, inf)"),
        ("pitt --beta 1/2 --p inf --q 2", "p must lie in [1, 2]"),
        ("pitt --beta inf --p 2 --q 2", "beta must lie in [0, inf)"),
    ])
    def test_cli_names_an_infinite_exponent(self, capsys, argv, message):
        assert run(argv.split()) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestFit:
    def test_exact_power_laws(self):
        assert fit_loglog_slope([(1, 1), (2, 2), (4, 4)]).slope == pytest.approx(1.0)
        assert fit_loglog_slope([(1, 1), (2, 4), (4, 16)]).slope == pytest.approx(2.0)
        fit = fit_loglog_slope([(1, 2), (2, 2), (4, 2)])
        assert fit.slope == pytest.approx(0.0)
        assert fit.stderr == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    @pytest.mark.parametrize("params", [(0.25, 0.5, 0.125), (0.25, 0.25, 0.125)])
    def test_scan_parameters_must_be_strictly_monotone(self, params):
        samples = tuple(ScanSample(p, 1.0, 1.0, 1.0) for p in params)
        fitted = fit_loglog_slope([(1, 1), (2, 2), (4, 4)])
        with pytest.raises(ValueError, match="^scan parameters must be strictly monotone$"):
            ScanResult(samples, fitted, None, {})

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fit_loglog_slope([(1, 1), (2, 2)])
        with pytest.raises(DomainError):
            fit_loglog_slope([(1, 1), (2, -2), (4, 4)])
        with pytest.raises(DomainError):
            fit_loglog_slope([(1, 1), (1, 2), (4, 4)])


class TestKnappScan:
    def test_budget_guard_fires_before_work(self):
        with pytest.raises(ConfigurationError):
            knapp_scan("separable", alpha=0, beta=0, r=2, q=6, delta_exps=[2, 8])

    def test_duplicate_delta_exponents_are_a_domain_error(self):
        with pytest.raises(DomainError, match="^duplicate delta exponents$"):
            knapp_scan("separable", alpha=0, beta=0, r=2, q=6, delta_exps=[2, 3, 3])

    @pytest.mark.parametrize("window, message", [
        ([1, 2], "need at least 3 points"),
        ([-1, 2, 3], "delta exponents must be non-negative"),
        ([1100, 1101, 1102], "delta exponents must be at most 1022, where 2^-k is a normal float"),
    ])
    def test_bad_window_fails_before_any_grid_work(self, monkeypatch, window, message):
        def grid_work(*args, **kwargs):
            raise AssertionError("grid work before the delta window was checked")

        monkeypatch.setattr(experiments, "grid_factors", grid_work)
        with pytest.raises(DomainError) as info:
            knapp_scan("separable", alpha=0, beta=0, r=2, q=6, delta_exps=window)
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [512, 538, 1022])
    def test_a_delta_past_the_budget_never_overflows(self, k):
        # (pi/4)/delta^2 overflows from k = 512, and delta^2 underflows to 0 from k = 538
        with pytest.raises(ConfigurationError, match="needs a column over budget 30000000$"):
            knapp_scan("separable", alpha=0, beta=0, r=2, q=6, delta_exps=[2, 3, k])

    def test_fz_endpoint_flat(self):
        res = knapp_scan("separable", alpha=0, beta=0, r=2, q=6, delta_exps=[2, 3, 4])
        assert abs(res.fitted.slope - 0.0) < 0.05
        assert res.predicted.slope == 0
        assert res.metadata["experiment"] == "knapp-separable"
        params = [s.param for s in res.samples]
        assert params == sorted(params, reverse=True)

    def test_radial_smoke(self):
        res = knapp_scan("radial", gamma="1/2", r=2, q=2, delta_exps=[2, 3, 4])
        assert res.predicted.log_flag == "single"
        assert res.fitted.slope <= 0.15

    # (lhs, rhs, ratio) at delta = 2^-2 .. 2^-5, recorded on the full centred
    # grids, before the scan folded them onto one quadrant
    KNAPP_PINNED = [
        ("separable", dict(alpha=0, beta=0, q=6, r=2), [
            (1.1902021648013394, 0.7108871290747619, 1.674249140437271),
            (0.8353717868393785, 0.5006552330058388, 1.6685569864594547),
            (0.5896247836525534, 0.353668663572252, 1.6671671662878247),
            (0.4167393538960328, 0.2500203531694776, 1.6668217151647002),
        ]),
        ("separable", dict(alpha="1/3", beta="1/3", q=2, r=2), [
            (3.2814287495603547, 0.7108871290747619, 4.615963090837247),
            (2.778861719473283, 0.5006552330058388, 5.5504497631823915),
            (2.220909158953071, 0.353668663572252, 6.279632287804755),
            (1.7076158352158355, 0.2500203531694776, 6.829907299820183),
        ]),
        ("separable", dict(alpha=1, beta=1, q=2, r=2), [
            (0.8803037531738447, 0.7108871290747619, 1.2383171915344464),
            (0.46689754942332906, 0.5006552330058388, 0.9325729936350909),
            (0.24097908870604876, 0.353668663572252, 0.6813696364049466),
            (0.12239318787275565, 0.2500203531694776, 0.48953289730692756),
        ]),
        ("radial", dict(gamma="1/2", q=2, r=2), [
            (2.94420745668408, 0.7108871290747619, 4.141596234153293),
            (2.5192539052775387, 0.5006552330058388, 5.031913658731614),
            (2.053916957590574, 0.353668663572252, 5.807460963164957),
            (1.6217754125628643, 0.2500203531694776, 6.486573560927399),
        ]),
    ]

    @pytest.mark.parametrize("kind, kw, pinned", KNAPP_PINNED)
    def test_samples_pinned(self, kind, kw, pinned):
        res = knapp_scan(kind, delta_exps=[2, 3, 4, 5], **kw)
        assert [s.param for s in res.samples] == [0.25, 0.125, 0.0625, 0.03125]
        for sample, values in zip(res.samples, pinned):
            got = (sample.lhs, sample.rhs, sample.ratio)
            assert got == pytest.approx(values, rel=1e-12)

    # (lhs, rhs, ratio) at delta = 2^-6, recorded when the y factor was e^{i y cos phi}
    # itself, built by split phases, before the fixed-rank expansion in y
    KNAPP_PINNED_2E_6 = [
        (0.2946459845410991, 0.17678029218630084, 1.6667354765461349),
        (1.280011509379764, 0.17678029218630084, 7.240691219306376),
        (0.06168189516648867, 0.17678029218630084, 0.34891839131867075),
        (1.253852574985312, 0.17678029218630084, 7.092716950959289),
    ]

    @pytest.mark.parametrize("kind, kw, pinned", [
        (kind, kw, pinned) for (kind, kw, _), pinned in zip(KNAPP_PINNED, KNAPP_PINNED_2E_6)
    ])
    def test_samples_pinned_at_delta_2e_6(self, kind, kw, pinned):
        sample = knapp_scan(kind, delta_exps=[2, 3, 6], **kw).samples[-1]
        assert sample.param == 2.0**-6
        assert (sample.lhs, sample.rhs, sample.ratio) == pytest.approx(pinned, rel=1e-13)

    @pytest.mark.parametrize("kind, kw, pinned", KNAPP_PINNED)
    def test_samples_pinned_across_many_column_blocks(self, monkeypatch, kind, kw, pinned):
        # blocks of 2^10 cells: 3, 25 and 201 per delta, and the odd y axis of
        # delta = 2^-2 keeps its centre line in the first of three
        monkeypatch.setattr(experiments, "KNAPP_BLOCK_CELLS", 1 << 10)
        seen, column_blocks = [], experiments._column_blocks

        def counted(grid):
            seen.append((grid.y0 < 0, column_blocks(grid)))
            return seen[-1][1]

        monkeypatch.setattr(experiments, "_column_blocks", counted)
        res = knapp_scan(kind, delta_exps=[2, 3, 4], **kw)
        assert [len(blocks) for _, blocks in seen] == [3, 25, 201] and seen[0][0]
        for sample, values in zip(res.samples, pinned):
            assert (sample.lhs, sample.rhs, sample.ratio) == pytest.approx(values, rel=1e-12)

    def test_memory_stays_bounded(self):
        # the full delta = 2^-6 grid alone is 52.7 M complex cells (843 MB) and
        # its quadrant 13.2 M (211 MB); both evaluations hold one column block
        for kind, kw, _ in self.KNAPP_PINNED:
            tracemalloc.start()
            try:
                knapp_scan(kind, delta_exps=[2, 3, 6], **kw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 100e6, (kind, kw, peak)

    @pytest.mark.parametrize("kind, kw", [("separable", dict(alpha=0, beta=0, q=6, r=2)),
                                          ("separable", dict(alpha="1/4", beta="1/4", q=3, r=2)),
                                          ("radial", dict(gamma="1/2", q=2, r=2))])
    def test_streamed_memory_stays_under_8_mb(self, kind, kw):
        # a streamed scan holds one column block (1 MB of planes) and the x factor that the
        # quadrant's planes are built from: about 2.5 MB; the whole quadrant's planes would
        # be 211 MB.  The moment form of q = 6 holds the planes' spectra: about 5.8 MB
        tracemalloc.start()
        try:
            knapp_scan(kind, delta_exps=[2, 3, 6], **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    @pytest.mark.parametrize("k", range(13))  # the column budget refuses k >= 13
    def test_x_axis_never_keeps_a_centre_line(self, k):
        # the centred grid's nx = 32/delta is even, so the quadrant is [0, 4/delta] in
        # half its columns
        quadrant = experiments._knapp_quadrant(2.0**-k)
        assert (quadrant.x0, quadrant.x1, quadrant.nx) == (0.0, 4 * 2.0**k, 2 ** (k + 4))

    @pytest.mark.parametrize("q", [2.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("exps", [(0.0, 0.0), (1 / 3, 1 / 3), (1.0, 1.0), (0.3, 0.2),
                                      (0.5, 0.25)])
    def test_gram_form_matches_the_streamed_grid(self, exps, q):
        # the two evaluations of one midpoint sum, each the other's oracle, at
        # the scan's own quadrants and node budgets
        weight = WeightSpec.separable(*exps)
        for k in range(2, 7):
            delta = 2.0**-k
            args = (Density.cap(delta), experiments._knapp_quadrant(delta), weight, q)
            gram, streamed = experiments._gram_mass(*args), experiments._streamed_mass(*args)
            assert gram == pytest.approx(streamed, rel=1e-13), k

    @pytest.mark.parametrize("kind, kw, route", [
        ("separable", dict(alpha="1/4", beta="1/4", q=4), "_gram_mass"),
        ("separable", dict(alpha="1/4", beta="1/4", q=8), "_gram_mass"),
        ("separable", dict(alpha="1/4", beta="1/4", q=5), "_streamed_mass"),
        ("separable", dict(alpha="1/4", beta="1/4", q="3/2"), "_streamed_mass"),
        ("separable", dict(alpha="1/4", beta="1/4", q=10), "_streamed_mass"),
        ("radial", dict(gamma="1/2", q=2), "_streamed_mass"),
        ("radial", dict(gamma="1/4", q=6), "_streamed_mass"),
    ])
    def test_moment_form_takes_separable_q_2_to_8_only(self, monkeypatch, kind, kw, route):
        reached = []
        for name in ("_gram_mass", "_streamed_mass"):
            mass = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *args, name=name, mass=mass: (
                reached.append(name) or mass(*args)))
        knapp_scan(kind, r=2, delta_exps=[2, 3, 4], **kw)
        assert reached == [route] * 3

    def test_bounded_boundary_ratio_saturates(self):
        # criterion 8's two-sided miss: at (1/3, 1/3, q = 2, r = 2) the operator
        # is bounded and the ratio climbs by geometrically shrinking increments
        # (0.780 and 0.755 of the one before), so it tends to a finite limit
        res = knapp_scan(
            "separable", alpha="1/3", beta="1/3", q=2, r=2, delta_exps=[2, 3, 4, 5]
        )
        ratios = [s.ratio for s in res.samples]
        steps = np.diff(ratios)
        assert np.all(steps > 0) and np.all(np.diff(steps) < 0)
        assert np.all((0.70 <= steps[1:] / steps[:-1]) & (steps[1:] / steps[:-1] <= 0.80))

    def test_ratio_increments_keep_shrinking_to_delta_2e_6(self):
        # criterion 8's saturation one delta beyond its window: the quotients of
        # successive increments are 0.780, 0.755 and 0.747
        res = knapp_scan(
            "separable", alpha="1/3", beta="1/3", q=2, r=2, delta_exps=[2, 3, 4, 5, 6]
        )
        steps = np.diff([s.ratio for s in res.samples])
        quotients = steps[1:] / steps[:-1]
        assert np.all(steps > 0) and np.all((0.70 <= quotients) & (quotients <= 0.80))

    def test_determinism(self):
        a = knapp_scan("separable", alpha=1, beta=1, r=2, q=2, delta_exps=[2, 3, 4])
        b = knapp_scan("separable", alpha=1, beta=1, r=2, q=2, delta_exps=[2, 3, 4])
        assert a.samples == b.samples and a.fitted == b.fitted


class TestConstantSums:
    def test_harmonic_divergence(self):
        res = constant_density_sums(
            "separable", alpha=0, beta=0, q=4, n_list=[10**4, 10**5]
        )
        assert res.divergent
        assert 0.9 <= res.sums[-1][1] / math.log(10**5) <= 1.1

    def test_convergent_tail(self):
        res = constant_density_sums(
            "separable", alpha=0, beta=0, q=5, n_list=[10**4, 10**5]
        )
        assert not res.divergent
        assert res.sums[1][1] / res.sums[0][1] - 1 < 0.1

    def test_radial_exponent(self):
        res = constant_density_sums("radial", gamma="3/4", q=2, n_list=[10])
        assert res.exponent == Fraction(-3, 2) and not res.divergent

    def test_ring_cross_check_tracks_index_growth(self):
        marks = [64, 128, 256, 512]
        res = constant_density_sums(
            "radial", gamma=0, q=2, n_list=marks, cross_check_rings=512
        )
        assert res.divergent  # s = 0 at gamma=0, q=2
        ring = dict(res.ring_sums)
        sums = dict(res.sums)
        # both partial sums should grow with the same log-log slope, ~ N^{s+1}
        ring_slope = math.log2(ring[512] / ring[64]) / 3
        sum_slope = math.log2(sums[512] / sums[64]) / 3
        assert abs(ring_slope - sum_slope) < 0.1
        assert abs(sum_slope - 1.0) < 0.05  # s + 1 = 1

    # ring sums at marks 10, 100, 1000, recorded from the per-ring loop with
    # inline weight formulas that the (J, 16, 64) evaluation replaced
    @pytest.mark.parametrize("kind, kw, pinned", [
        ("separable", dict(alpha="1/3", beta="1/5", q=4),
         (112.02781620087386, 113.59698313342525, 113.61388415401115)),
        ("radial", dict(gamma="3/4", q=2),
         (24.895706784247448, 32.36940836243974, 34.88316762805855)),
    ])
    def test_ring_sums_pinned(self, kind, kw, pinned):
        res = constant_density_sums(
            kind, n_list=[10, 100, 1000], cross_check_rings=1000, **kw
        )
        assert [n for n, _ in res.ring_sums] == [10, 100, 1000]
        assert [v for _, v in res.ring_sums] == pytest.approx(pinned, rel=1e-12)

    @pytest.mark.parametrize("kind, kw", [
        ("separable", dict(alpha="1/2", beta="1/4")), ("radial", dict(gamma="1/3")),
    ])
    def test_ring_sums_match_the_per_ring_loop(self, kind, kw):
        # reference: one ring at a time, with the weight written out inline
        q, rings = 3.0, 64
        exps = [float(Fraction(v)) for v in kw.values()]
        theta = (np.arange(64) + 0.5) * (2 * math.pi / 64)
        sin, cos = np.abs(np.sin(theta)), np.abs(np.cos(theta))
        t16, w16 = np.polynomial.legendre.leggauss(16)
        masses = []
        for zj in j0_extrema(rings).z:
            rho = zj + 0.5 * t16
            x, y = rho[:, None] * sin, rho[:, None] * cos
            if kind == "radial":
                wfac = (1 + x + y) ** (-q * exps[0])
            else:
                wfac = (1 + x) ** (-q * exps[0]) * (1 + y) ** (-q * exps[1])
            angular = np.sum(wfac, axis=1) * (2 * math.pi / 64)
            vals = np.abs(constant_reference_radii(rho)) ** q
            masses.append(np.sum(0.5 * w16 * rho * vals * angular))
        res = constant_density_sums(
            kind, q=3, n_list=[1, 8, 64], cross_check_rings=rings, **kw
        )
        cum = np.cumsum(masses)
        expected = [cum[0], cum[7], cum[63]]
        assert [v for _, v in res.ring_sums] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kind, kw", [
        ("separable", dict(alpha="1/3", beta="1/5", q=4)), ("radial", dict(gamma="3/4", q=2)),
    ])
    def test_folded_ring_sums_match_all_64_angular_nodes(self, kind, kw):
        # the pinned configurations, against the 64-node per-ring loop above
        q, exps = float(Fraction(kw["q"])), [float(Fraction(kw[k])) for k in kw if k != "q"]
        theta = (np.arange(64) + 0.5) * (2 * math.pi / 64)
        sin, cos = np.abs(np.sin(theta)), np.abs(np.cos(theta))
        t16, w16 = np.polynomial.legendre.leggauss(16)
        masses = []
        for zj in j0_extrema(1000).z:
            rho = zj + 0.5 * t16
            x, y = rho[:, None] * sin, rho[:, None] * cos
            if kind == "radial":
                wfac = (1 + x + y) ** (-q * exps[0])
            else:
                wfac = (1 + x) ** (-q * exps[0]) * (1 + y) ** (-q * exps[1])
            angular = np.sum(wfac, axis=1) * (2 * math.pi / 64)
            vals = np.abs(constant_reference_radii(rho)) ** q
            masses.append(np.sum(0.5 * w16 * rho * vals * angular))
        res = constant_density_sums(kind, n_list=[10, 100, 1000], cross_check_rings=1000, **kw)
        cum = np.cumsum(masses)
        expected = [cum[9], cum[99], cum[999]]
        assert [v for _, v in res.ring_sums] == pytest.approx(expected, rel=1e-13)

    def test_ring_cross_check_peak_memory(self):
        # 4000 rings take four blocks; all at once they would peak near 58 MB
        for rings in (1000, 4000):
            tracemalloc.start()
            try:
                constant_density_sums("separable", alpha="4/3", beta="4/5", q=1, n_list=[10],
                                      cross_check_rings=rings)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20e6, (rings, peak)

    def test_ring_blocks_leave_the_sums_as_one_block(self, monkeypatch):
        # 3000 rings make blocks of 1024, 1024 and 952; marks on both sides of a seam
        args = dict(alpha="1/3", beta="1/5", q=4, n_list=[1, 1024, 1025, 2048, 2049, 3000],
                    cross_check_rings=3000)
        blocked = constant_density_sums("separable", **args).ring_sums
        monkeypatch.setattr(experiments, "RING_BLOCK", 3000)
        assert blocked == constant_density_sums("separable", **args).ring_sums

    def test_rings_over_budget_are_refused_before_any_work(self, monkeypatch):
        def no_extrema(n):
            raise AssertionError("extrema computed")

        monkeypatch.setattr(experiments, "j0_extrema", no_extrema)
        with pytest.raises(ConfigurationError, match="cross_check_rings=100001 over budget 100000"):
            constant_density_sums("separable", alpha=0, beta=0, q=4, n_list=[10],
                                  cross_check_rings=experiments.RING_BUDGET + 1)

    def test_term_budget_sums_under_20_mb(self):
        # measured 16.0 MB: the powers and their cumulative sum, 8 bytes a term each
        tracemalloc.start()
        try:
            res = constant_density_sums("separable", alpha=0, beta=0, q=4,
                                        n_list=[10, experiments.TERM_BUDGET])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.sums[-1][0] == experiments.TERM_BUDGET and peak <= 20e6

    def test_ring_budget_validates_under_30_mb(self):
        # j0_extrema(10^5) validates inside; measured 24.4 MB, where the whole pi/8
        # scan grid at once would peak at 75.3 MB
        tracemalloc.start()
        try:
            constant_density_sums("separable", alpha=0, beta=0, q=4, n_list=[10],
                                  cross_check_rings=experiments.RING_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    @staticmethod
    def _log_space_ring_masses(kind, q, exps, rings):
        """Each ring's mass over all 64 angular nodes, summed in logs."""
        theta = (np.arange(64) + 0.5) * (2 * math.pi / 64)
        t16, w16 = np.polynomial.legendre.leggauss(16)
        masses = []
        for zj in j0_extrema(rings).z:
            rho = zj + 0.5 * t16
            x, y = np.abs(rho[:, None] * np.sin(theta)), np.abs(rho[:, None] * np.cos(theta))
            if kind == "radial":
                log_w = -q * exps[0] * np.log1p(x + y)
            else:
                log_w = -q * (exps[0] * np.log1p(x) + exps[1] * np.log1p(y))
            log_radial = np.log(0.5 * w16 * rho) + q * np.log(np.abs(constant_reference_radii(rho)))
            log_terms = log_radial[:, None] + log_w + math.log(2 * math.pi / 64)
            masses.append(math.exp(np.logaddexp.reduce(log_terms, axis=None)))
        return np.cumsum(masses)

    @pytest.mark.parametrize("argv, kind, exps, honest", [
        ("constant --kind radial --gamma 1 --q 1000 --n-list 1,10,100 --rings 10",
         "radial", [1.0], 9e-289),  # |2 pi J0|^q overflowed, w^-q underflowed: inf * 0
        ("constant --kind separable --alpha 1/3 --beta 5/18 --q 1000 --rings 1 --n-list 1",
         "separable", [1 / 3, 5 / 18], 3.5e188),  # only |2 pi J0|^q overflowed: inf
    ])
    def test_ring_masses_past_the_power_range_are_honest(self, capsys, argv, kind, exps,
                                                         honest):
        # these printed "ring mass B_1 = nan" and "ring_sums": [[1, Infinity]]
        assert run([*argv.split(), "--format", "json"]) == 0
        ring_sums = json.loads(capsys.readouterr().out)["ring_sums"]
        want = self._log_space_ring_masses(kind, 1000.0, exps, ring_sums[-1][0])
        assert ring_sums[0][1] == pytest.approx(honest, rel=0.1)
        for n, got in ring_sums:
            assert abs(got / want[n - 1] - 1) <= 1e-12, (n, got, want[n - 1])

    def test_ring_mass_past_the_float_range_is_a_numerical_failure(self, capsys):
        # (2 pi J0)^1000 ~ e^928 at the first extremum, with weight 1
        argv = "constant --kind separable --alpha 0 --beta 0 --q 1000 --rings 3 --n-list 1"
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: the ring masses at q=1000 pass the "
                                "largest float by ring 1\n")

    def test_validation(self):
        with pytest.raises(DomainError):
            constant_density_sums("separable", alpha=0, beta=0, q=4, n_list=[5, 5])
        with pytest.raises(DomainError, match="cross_check_rings must be non-negative"):
            constant_density_sums(
                "separable", alpha=0, beta=0, q=4, n_list=[10, 100], cross_check_rings=-5
            )


class TestL2Endpoint:
    def test_preconditions(self):
        with pytest.raises(DomainError):
            l2_endpoint_scan("5/18", "5/18", 4, 0.25, [3, 4, 5])  # identity fails
        with pytest.raises(DomainError):
            l2_endpoint_scan("1/2", "1/2", 2, 0.25, [3, 4, 5])  # 2 alpha = 1
        with pytest.raises(DomainError):
            l2_endpoint_scan("5/18", "5/18", 3, 1.5, [3, 4, 5])  # delta range

    def test_alpha_plus_beta_below_11_20_is_refused_before_any_kernel_work(self, monkeypatch):
        def no_kernel(kappa, lams):
            raise AssertionError("kernel built")

        monkeypatch.setattr(experiments, "cosine_weight_kernel_many", no_kernel)
        # alpha + beta = 51/100 would drop 2^-1.2 = 43.5 % of the corner mass
        with pytest.raises(DomainError, match=r">= 11/20.* = 51/100 it holds 43\.5%"):
            l2_endpoint_scan("49/100", "1/50", "100/3", 0.25, [6, 7, 8])
        tiny = Fraction(1, 10**12)  # decided exactly, just below the bound
        with pytest.raises(DomainError, match="11/20"):
            l2_endpoint_scan(Fraction(9, 20) - tiny, "1/10", 1 / (Fraction(3, 20) - tiny), 0.25,
                             [3, 4, 5])
        with pytest.raises(AssertionError, match="kernel built"):  # the bound itself runs
            l2_endpoint_scan("9/20", "1/10", "20/3", 0.25, [3, 4, 5])

    def test_blowup_slope_short(self):
        res = l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5])
        assert res.predicted.slope == Fraction(-1, 3)
        assert abs(res.fitted.slope - (-1 / 3)) < 0.12
        assert all(s.ratio > 0 for s in res.samples)

    def test_samples_pinned(self):
        # recorded with the direct kernel, before the scan read K from a
        # per-kappa Chebyshev table
        pinned = [
            (0.125, 468.3496594326167, 1.3597659351036704, 344.4340289322729),
            (0.0625, 1169.717634306419, 2.566896274807914, 455.69337794685583),
            (0.03125, 2634.0837352888475, 4.443485148313442, 592.7967906652357),
        ]
        res = l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5])
        assert len(res.samples) == len(pinned)
        for sample, values in zip(res.samples, pinned):
            got = (sample.param, sample.lhs, sample.rhs, sample.ratio)
            assert got == pytest.approx(values, rel=1e-9)

    # criterion 10's (param, lhs, rhs), recorded once K took its incomplete-gamma
    # series for every lambda of the scan
    CRITERION_10 = [
        (0.125, 468.3496594326223, 1.3597659351036704),
        (0.0625, 1169.7176343064334, 2.566896274807914),
        (0.03125, 2634.0837352888834, 4.443485148313442),
        (0.015625, 5604.788895003175, 7.3658822405999045),
        (0.0078125, 11475.44445265006, 11.948644019590118),
    ]
    # the same, recorded when K came from a per-kappa Chebyshev table (below the
    # scale-free bound, from the quadrature's one row per kappa)
    CRITERION_10_TABLE = [
        (0.125, 468.34965943261665, 1.3597659351036704),
        (0.0625, 1169.7176343064189, 2.566896274807914),
        (0.03125, 2634.083735288847, 4.443485148313442),
        (0.015625, 5604.7888950030765, 7.3658822405999045),
        (0.0078125, 11475.444452649803, 11.948644019590118),
    ]

    def test_criterion_10_samples_are_bit_identical(self):
        res = l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7])
        assert [(s.param, s.lhs, s.rhs) for s in res.samples] == self.CRITERION_10
        for got, old in zip(self.CRITERION_10, self.CRITERION_10_TABLE):
            assert got == pytest.approx(old, rel=1e-13)  # measured 2.2e-14

    def test_criterion_10_kernels_take_the_series_alone(self, monkeypatch):
        # every criterion-10 lambda is at most 0.25, where kappa = 5/9 cancels by
        # a factor F of at most 3.3, far under the guard 2^7: no quadrature call
        sizes, quadrature = [], analysis._kernel_quadrature

        def recorded(kappa, lams):
            sizes.append(lams.size)
            return quadrature(kappa, lams)

        monkeypatch.setattr(analysis, "_kernel_quadrature", recorded)
        l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7])
        assert sizes == []

    def test_criterion_10_rounded_away_lambda(self, monkeypatch):
        # the lambda so small that lambda + t rounds to t = pi kappa/2, which the series
        # takes as lead sin(t) - c_0 without its sum or a sine of their own: 81 % of
        # the 403,200, and neither call reaches the quadrature
        seen, sizes = [], []
        kernel, quadrature = experiments.cosine_weight_kernel_many, analysis._kernel_quadrature

        def counting(kappa, lams):
            t = 0.5 * math.pi * kappa
            seen.append((lams.size, np.count_nonzero(lams + t == t)))
            return kernel(kappa, lams)

        def recorded(kappa, lams):
            sizes.append(lams.size)
            return quadrature(kappa, lams)

        monkeypatch.setattr(experiments, "cosine_weight_kernel_many", counting)
        monkeypatch.setattr(analysis, "_kernel_quadrature", recorded)
        l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7])
        assert seen == [(201_600, 157_316), (201_600, 170_078)]
        assert sizes == []

    def test_sharing_changes_no_sample(self):
        full = l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7]).samples
        for window, part in (([3, 4, 5], full[:3]), ([5, 6, 7], full[2:])):
            assert l2_endpoint_scan("5/18", "5/18", 3, 0.25, window).samples == part

    def test_tau_rules_nest(self):
        # what the sharing rests on: the panel edges are the same float sums
        # for every tau_max, so only a rule's clipped last panel is its own
        tau_maxes = [min(experiments._TRUNC_LN / 2.0 ** (1 - k), experiments._L2_TAU_CAP)
                     for k in range(3, 8)]
        assert tau_maxes[0] == pytest.approx(27.63, abs=0.01) and tau_maxes[-1] == 300.0
        epss = [Fraction(1, 2**k) for k in range(3, 8)]
        nodes, weights, bounds = experiments._tau_rules(
            epss, [2 * float(eps) for eps in epss], experiments._L2_TAU_CAP, 12.0)
        rules = list(zip(np.split(nodes, bounds), weights))
        for (_, w), tau_max in zip(rules, tau_maxes):  # each rule integrates 1 over [0, tau_max]
            assert np.sum(w) == pytest.approx(tau_max, rel=1e-13)
        for i, (small_nodes, small_weights) in enumerate(rules):
            for large_nodes, large_weights in rules[i + 1:]:
                n = len(small_nodes) - 10
                assert small_nodes[:n].tobytes() == large_nodes[:n].tobytes()
                assert small_weights[:n].tobytes() == large_weights[:n].tobytes()

    def test_kernels_see_each_distinct_node_once(self, monkeypatch):
        # five rules of 2,010 tau nodes in all, 700 distinct, times 288 inner
        # nodes, once per kernel factor; evaluated per eps it was 1,157,760
        seen = []
        kernel = experiments.cosine_weight_kernel_many

        def counting(kappa, lams):
            seen.append((kappa, np.size(lams)))
            return kernel(kappa, lams)

        monkeypatch.setattr(experiments, "cosine_weight_kernel_many", counting)
        l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7])
        assert seen == [(5 / 9, 700 * 288)] * 2  # 403,200 in all, one call per factor

    @pytest.mark.parametrize("args, rows, trig_rows", [
        (("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7]), 700, 187),  # criterion 10
        (("2/5", "23/60", "3/2", 0.9, [1, 2, 3]), 230, 211),  # two rules' last panels need trig
    ], ids=["criterion-10", "trig-last-panels"])
    def test_lambdas_are_the_full_trig_formula(self, monkeypatch, args, rows, trig_rows):
        # the scan takes sin and cos only up to the last row with phi > 2^-27, yet both
        # lambda arrays it passes are the full formula's bit for bit on every row
        seen = []
        kernel = experiments.cosine_weight_kernel_many

        def capturing(kappa, lams):
            seen.append(lams.copy())  # the scan reuses the second array's buffer
            return kernel(kappa, lams)

        monkeypatch.setattr(experiments, "cosine_weight_kernel_many", capturing)
        l2_endpoint_scan(*args)
        epss = [Fraction(1, 2**k) for k in args[-1]]
        nodes, _, _ = experiments._tau_rules(
            epss, [2 * float(eps) for eps in epss], experiments._L2_TAU_CAP, 12.0)
        phi = args[3] * np.exp(-np.unique(nodes))
        assert phi.size == rows and np.count_nonzero(phi > 2.0**-27) == trig_rows
        one_minus_s, one_plus_s, _, _ = experiments._inner_s_mesh()
        sin_diff = np.sin(0.5 * phi[:, None] * one_minus_s[None, :])
        half_sum = 0.5 * phi[:, None] * one_plus_s[None, :]
        want1 = 2.0 * sin_diff * np.cos(half_sum)
        want2 = 2.0 * np.sin(half_sum) * sin_diff
        lam1, lam2 = seen
        # the scan lays its rows out in its own order: match each row by its bytes
        index = {row.tobytes(): i for i, row in enumerate(want1)}
        order = [index[row.tobytes()] for row in lam1]
        assert sorted(order) == list(range(rows))
        assert lam2.tobytes() == want2[order].tobytes()

    def test_sin_and_cos_round_to_x_and_one_up_to_the_trig_cut(self):
        # what the scan's trig cut rests on: for 0 < x <= 2^-27, sin x = x (1 - x^2/6 + ...)
        # and cos x = 1 - x^2/2 + ... lie within half an ulp of x and of 1.0, so np.sin(x) == x
        # and np.cos(x) == 1.0; a libm that rounds otherwise fails here, not in the scan
        cut = experiments._TRIG_CUT
        assert cut == 2.0**-27
        x = np.concatenate([np.geomspace(1e-300, cut, 200_000),
                            [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)]])
        assert np.sin(x).tobytes() == x.tobytes()
        assert np.all(np.cos(x) == 1.0)
        assert np.cos(2.0**-26) == 1.0 - 2.0**-53  # one binade up the cosine no longer rounds to 1

    def test_criterion_10_peak_memory(self):
        # measured 7.6 MB on a first call, 6.9 MB after: the two 1.6 MB lambda arrays, one
        # kernel output and the series' chunk temporaries; 15.3 MB leaves a 2x margin, and a
        # draft that held every array at once (28.5 MB) fails
        tracemalloc.start()
        try:
            l2_endpoint_scan("5/18", "5/18", 3, 0.25, [3, 4, 5, 6, 7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15.3e6, peak

    def test_bounded_at_r_two_saturates(self):
        # alpha = beta = 1/3: the q = r = 2 case is bounded, so the ratio
        # saturates; per-octave slopes shrink towards zero and the last
        # resolved octave is nearly flat
        res = l2_endpoint_scan("1/3", "1/3", 2, 0.25, [3, 4, 5, 6, 7])
        ordered = sorted(res.samples, key=lambda s: -s.param)
        octaves = [
            math.log2(b.ratio / a.ratio) / -1
            for a, b in zip(ordered, ordered[1:])
        ]
        assert all(x < y for x, y in zip(octaves, octaves[1:]))
        assert octaves[-1] >= -0.05

    @pytest.mark.parametrize("a, b", [(5 / 18, 5 / 18), (0.3, 0.21)])
    @pytest.mark.parametrize("phi", [0.2, 1e-3, 1e-20])
    def test_corner_integrand_slope_sets_the_sliver_share(self, a, b, phi):
        # the scan's inner integrand at v = 1 - s, less its s^{-mu} factor (1 to
        # within v), behaves like v^{2(a+b)-2}; so the sliver v < 2^-61 that the
        # mesh drops holds about 2^{-60(2(a+b)-1)} of the corner mass: 0.98 % at
        # a + b = 5/9, 44 % at 0.51
        v = np.array([2.0**-40, 2.0**-60])
        half_diff, half_sum = 0.5 * phi * v, 0.5 * phi * (2.0 - v)
        lam1 = 2.0 * np.sin(half_diff) * np.cos(half_sum)
        lam2 = 2.0 * np.sin(half_sum) * np.sin(half_diff)
        g = cosine_weight_kernel_many(2 * a, lam1) * cosine_weight_kernel_many(2 * b, lam2)
        slope = math.log(g[0] / g[1]) / math.log(v[0] / v[1])
        assert slope == pytest.approx(2 * (a + b) - 2, abs=1e-5)


def table_pitt_ratios(beta: float, p: float, q: float, s: float) -> list[float]:
    """The sweep's plain and modulated ratios at scale s from a cosine table,
    built 2^18 entries at a time."""
    xi_max = 1.0 + 10.0 / s
    dx = min(s / 8, math.pi / (xi_max + 10.0 / s))
    xs = np.arange(-8 * s, 8 * s + dx / 2, dx)
    dxi = min(1 / 8, 1 / (8 * s))
    xis = np.arange(dxi / 2, xi_max, dxi)
    base = np.exp(-((xs / s) ** 2))
    rows = 2**18 // xs.size
    ratios = []
    for fx in (base, base * np.cos(xs)):
        fhat = np.concatenate([np.abs(np.cos(np.outer(xis[i : i + rows], xs)) @ fx) * dx
                               for i in range(0, xis.size, rows)])
        weak = weak_lq_1d(Sampled1((1 + xis) ** -beta * fhat, np.full(xis.shape, 2 * dxi)), q)
        ratios.append(weak / (dx * np.sum(np.abs(fx) ** p)) ** (1 / p))
    return ratios


class TestPitt:
    def test_uniform_over_plateau(self):
        res = pitt_sweep("1/2", 2, 2, [2.0**k for k in (-2, 0, 2, 4, 6)])
        ratios = {(s, v): r for s, v, r in res.ratios}
        assert res.max_ratio < 4
        assert ratios[(64.0, "plain")] / ratios[(1.0, "plain")] < 4

    def test_plancherel_case_bounded(self):
        res = pitt_sweep(0, 2, 2, [2.0**k for k in (-3, 0, 3)])
        assert res.max_ratio < 4

    def test_p1_q1_boundary(self):
        res = pitt_sweep(1, 1, 1, [2.0**k for k in (-3, 0, 3)])
        assert res.max_ratio < 6

    def test_hypothesis_validation(self):
        with pytest.raises(DomainError):
            pitt_sweep(0, 2, 4, [1.0])  # 1/q - 1/p' < 0 fails the hypothesis

    @settings(max_examples=60, deadline=None)
    @given(p=st.fractions(1, 2, max_denominator=12), gap=st.fractions(0, 1, max_denominator=12),
           lower=st.booleans())
    @example(p=Fraction(1), gap=Fraction(3, 11), lower=False)  # 1/float(11/3) > float(3/11)
    @example(p=Fraction(1), gap=Fraction(3, 19), lower=False)
    @example(p=Fraction(1), gap=Fraction(6, 11), lower=False)
    def test_exact_edges_of_the_hypothesis_are_accepted(self, p, gap, lower):
        # beta = gap on the upper edge beta = 1/q - 1/p', or 1/q = 1/p' on the lower edge;
        # an exact beta below 1/q - 1/p' is refused
        inv_q = 1 - 1 / p + (0 if lower else gap)
        assume(inv_q > 0)
        assert pitt_sweep(gap, p, 1 / inv_q, [1.0]).max_ratio > 0
        with pytest.raises(DomainError, match="beta"):
            pitt_sweep(inv_q - (1 - 1 / p) - Fraction(1, 10**12), p, 1 / inv_q, [1.0])

    def test_small_s_slope_is_one_half(self):
        # criterion 12's explanation: below s ~ 1 the family is not
        # near-extremal and its ratios decay like sqrt(s), so the literal
        # max/min over the sweep is large while the uniform bound holds
        res = pitt_sweep("1/2", 2, 2, [2.0**k for k in range(-10, -5)])
        for variant in ("plain", "modulated"):
            fit = fit_loglog_slope([(s, r) for s, v, r in res.ratios if v == variant])
            assert 0.45 <= fit.slope <= 0.55

    def test_small_s_ratios_decay_like_sqrt_s(self):
        # the family is not near-extremal at small scales: ratio ~ sqrt(s)
        res = pitt_sweep("1/2", 2, 2, [2.0**-6, 2.0**-4])
        r = {s: v for s, var, v in res.ratios if var == "plain"}
        assert 1.5 < r[2.0**-4] / r[2.0**-6] < 2.7  # sqrt(16/4) = 2

    def test_closed_form_matches_the_cosine_table(self):
        # the table is an independent trapezoid quadrature of the transform; measured
        # 8.0e-15 at worst (s = 2^9), 2.0e-15 at (1, 1, 1) and (0, 2, 2)
        for beta, p, q, exps in [("1/2", 2, 2, [*range(-10, 7), 9]), (1, 1, 1, [-3, 0, 3]),
                                 (0, 2, 2, [-3, 0, 3])]:
            for s in [2.0**k for k in exps]:
                got = [r for _, _, r in pitt_sweep(beta, p, q, [s]).ratios]
                want = table_pitt_ratios(float(Fraction(beta)), p, q, s)
                assert max(abs(g / w - 1) for g, w in zip(got, want)) <= 1e-13, (beta, p, q, s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_scale_fails_before_any_transform(self, monkeypatch, bad):
        def weak_norm(*args):
            raise AssertionError("per-scale work before the scales were checked")

        monkeypatch.setattr(experiments, "weak_lq_1d", weak_norm)
        with pytest.raises(DomainError, match="scales must be positive and finite"):
            pitt_sweep("1/2", 2, 2, [1.0, bad])

    def test_empty_sweep_is_a_domain_error(self):
        with pytest.raises(DomainError, match="need at least one scale"):
            pitt_sweep("1/2", 2, 2, [])

    def test_budget_guard_fires_before_any_transform(self, monkeypatch):
        def weak_norm(*args):
            raise AssertionError("per-scale work before the budget was checked")

        monkeypatch.setattr(experiments, "weak_lq_1d", weak_norm)
        # 2^17 alone asks for 667,647 + 1,048,656 grid points
        with pytest.raises(ConfigurationError, match="1716303 grid points"):
            pitt_sweep("1/2", 2, 2, [2.0**17])
        # 2^15 and 2^16 each fit; together they take 1,287,456
        with pytest.raises(ConfigurationError, match="over budget 1000000"):
            pitt_sweep("1/2", 2, 2, [2.0**15, 2.0**16])
        with pytest.raises(ConfigurationError, match="inf grid points"):  # a zero x step
            pitt_sweep("1/2", 2, 2, [1e-320])
        with pytest.raises(ConfigurationError, match=r"need 1\.309296e\+301 grid points"):
            pitt_sweep("1/2", 2, 2, [1e300])  # 1.3e301: a sum of two counts stays finite

    def test_cli_budget_is_an_argument_error(self, capsys):
        assert run("pitt --beta 1/2 --p 2 --q 2 --scale-exps 17..17".split()) == 1
        assert "over budget" in capsys.readouterr().err

    @staticmethod
    def _peak(s: float) -> int:
        tracemalloc.start()
        try:
            pitt_sweep("1/2", 2, 2, [s])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_at_s_2e9(self):
        # the cosine table at 4,176 x 2,710 cells took about 181 MB; measured 0.37 MB
        peak = self._peak(2.0**9)
        assert peak <= 1e6, peak

    def test_peak_memory_at_s_2e16(self):
        # the largest power of two the point budget accepts (858,243 points); measured 45.8 MB
        peak = self._peak(2.0**16)
        assert peak <= 64e6, peak


class TestDualScans:
    def test_separable_preconditions(self):
        with pytest.raises(DomainError):
            dual_scan("separable", alpha="3/5", beta="1/4", r=4, q=2,
                      eps_exps=[3, 4, 5])  # beta identity fails
        with pytest.raises(DomainError):
            dual_scan("separable", alpha="1/4", beta="1/8", r=4, q=2,
                      eps_exps=[3, 4, 5])  # alpha too small

    def test_radial_preconditions(self):
        with pytest.raises(DomainError, match=r"^need gamma = 2/q - 1/r' exactly$"):
            dual_scan("radial", gamma="1/2", r=3, q="5/4", eps_exps=[3, 4])
        with pytest.raises(DomainError, match=r"^need 2/q - 1/r' to be the max branch"):
            # gamma = 2/q - 1/r' = 1/6 exactly, but r' = 3 < q = 4 puts it on the
            # wrong max branch
            dual_scan("radial", gamma="1/6", r="3/2", q=4, eps_exps=[3, 4])

    def test_separable_growth(self):
        res = dual_scan("separable", alpha="3/5", beta="1/8", r=4, q=2,
                        eps_exps=[3, 4, 5, 6, 7])
        assert res.predicted.slope == Fraction(1, 4)
        assert res.fitted.slope >= 0.15

    def test_radial_growth(self):
        res = dual_scan("radial", gamma="14/15", r=3, q="5/4",
                        eps_exps=[3, 4, 5, 6])
        assert res.predicted.slope == Fraction(7, 15)
        assert res.fitted.slope >= 0.31

    def test_r_equals_q_is_flat(self):
        # growth exponent 1/r' - 1/q' = 0 when r = q: ratio stays bounded
        res = dual_scan("separable", alpha="9/10", beta="1/4", r=2, q=2,
                        eps_exps=[3, 4, 5, 6])
        assert res.predicted.slope == 0
        assert abs(res.fitted.slope) <= 0.1

    def test_determinism(self):
        a = dual_scan("separable", alpha="3/5", beta="1/8", r=4, q=2,
                      eps_exps=[3, 4, 5])
        b = dual_scan("separable", alpha="3/5", beta="1/8", r=4, q=2,
                      eps_exps=[3, 4, 5])
        assert a.samples == b.samples

    def test_separable_samples_are_bit_identical(self):
        # (lhs, rhs), recorded when K summed its series and took its own sine at every
        # lambda; the scan's per-eps kappa skip only the sum where lambda + t rounds to t
        pinned = [
            (29.42437475409216, 2.8284271247461903),
            (49.297228092155535, 4.0),
            (82.73597792136262, 5.656854249492381),
            (138.9943107088795, 8.0),
            (228.5707127629679, 11.313708498984761),
        ]
        res = dual_scan("separable", alpha="3/5", beta="1/8", r=4, q=2,
                        eps_exps=[3, 4, 5, 6, 7])
        assert [(s.lhs, s.rhs) for s in res.samples] == pinned

    # the two cli-suite configurations and r = q
    CONFIGS = {
        "separable": ("cosine_weight_kernel_many", dict(
            kind="separable", alpha="3/5", beta="1/8", r=4, q=2, eps_exps=[3, 4, 5, 6, 7])),
        "radial": ("hankel_decay_transform_many", dict(
            kind="radial", gamma="14/15", r=3, q="5/4", eps_exps=[3, 4, 5, 6])),
        "r-equals-q": ("cosine_weight_kernel_many", dict(
            kind="separable", alpha="9/10", beta="1/4", r=2, q=2, eps_exps=[3, 4, 5, 6])),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_one_call_matches_per_eps_calls(self, monkeypatch, config):
        name, kwargs = self.CONFIGS[config]
        one_call = dual_scan(**kwargs).samples
        transform = getattr(experiments, name)

        def per_eps(exponents, xs):
            out = np.empty_like(xs)
            for e in np.unique(exponents):
                at = exponents == e
                out[at] = transform(float(e), xs[at])
            return out

        monkeypatch.setattr(experiments, name, per_eps)
        assert len(one_call) == len(kwargs["eps_exps"])
        for got, want in zip(one_call, dual_scan(**kwargs).samples):
            assert got.param == want.param and got.rhs == want.rhs
            assert got.lhs == pytest.approx(want.lhs, rel=1e-14, abs=0)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_each_scan_calls_its_transform_once(self, monkeypatch, config):
        name, kwargs = self.CONFIGS[config]
        transform = getattr(experiments, name)
        sizes = []

        def counting(exponents, xs):
            sizes.append(np.size(xs))
            return transform(exponents, xs)

        monkeypatch.setattr(experiments, name, counting)
        dual_scan(**kwargs)
        assert len(sizes) == 1 and sizes[0] >= 200 * len(kwargs["eps_exps"])


class TestEpsWindow:
    SCANS = {
        "l2": lambda window: l2_endpoint_scan("5/18", "5/18", 3, 0.25, window),
        "dual-separable": lambda window: dual_scan(
            "separable", alpha="3/5", beta="1/8", r=4, q=2, eps_exps=window),
        "dual-radial": lambda window: dual_scan(
            "radial", gamma="14/15", r=3, q="5/4", eps_exps=window),
    }

    @pytest.mark.parametrize("scan, window, message", [
        ("l2", [3, 4, 4, 5], "duplicate eps exponents"),
        ("l2", [-2, -1, 0, 1, 2, 3], "eps exponents must be non-negative"),
        ("l2", [1, 2, 3], r"need mu = 1/r - eps in \(0,1\)"),  # eps = 1/2 > 1/r = 1/3
        ("dual-separable", [3, 3, 4], "duplicate eps exponents"),
        ("dual-radial", [-1, 0, 1, 2], "eps exponents must be non-negative"),
        ("dual-radial", [0, 3, 4], r"gamma \+ 2/q' \+ eps must lie in \(1,2\)"),  # eps = 1 > 1/r'
        # eps = 1 fails the exponent check and 2^-10 its tau share: the exponent error wins
        ("dual-radial", [0, 9, 10], r"gamma \+ 2/q' \+ eps must lie in \(1,2\)"),
        ("l2", [3, 4], "need at least 3 points"),
        ("dual-separable", [], "need at least 3 points"),
    ])
    def test_bad_window_fails_before_any_kernel_work(self, monkeypatch, scan, window, message):
        def kernel_work(*args, **kwargs):
            raise AssertionError("kernel work before the eps window was checked")

        for name in ("cosine_weight_kernel_many", "hankel_decay_transform_many"):
            monkeypatch.setattr(experiments, name, kernel_work)
        with pytest.raises(DomainError, match=message):
            self.SCANS[scan](window)

    def test_tau_rules_check_every_share_before_any_rule(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a rule built before every share was checked")

        monkeypatch.setattr(experiments, "_panel_nodes", no_rule)
        epss = [Fraction(1, 8), Fraction(1, 512)]  # 1/512 drops e^{-600/512} at the cap
        with pytest.raises(DomainError, match=r"^eps = 1/512: the tau cap 300 drops 31\.0% of "
                                              r"the mass, over 1/16$"):
            experiments._tau_rules(epss, [2 * float(eps) for eps in epss], 300.0, 12.0)
