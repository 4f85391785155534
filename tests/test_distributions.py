"""Distribution construction, specs, means, densities, and distortion."""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from stochorder import catalog
from stochorder import distortions as dist_mod
from stochorder import distributions as distributions_mod
from stochorder.distributions import (
    InfiniteMeanError,
    SpecError,
    build,
    cdf,
    distort,
    from_quantile,
    mean,
)

from stochorder.numerics import BracketError, elementwise

from helpers import GRID63, DegenerateDensityError, density_at_quantile


class TestSpecParsing:
    def test_exponential_form(self):
        assert build("exp:1.5").label == "exp:1.5"

    def test_quantile_form(self):
        assert build("q: 2*p").label == "q:2*p"

    def test_hazard_form(self):
        assert build("hazard: x^2").label == "hazard:x^2"

    def test_distorted_form(self):
        assert build("distort(exp:1, h=power:2)").label == "distort(exp:1, h=power:2)"

    @pytest.mark.parametrize("text, label", [
        ("exp:1", "exp:1"), ("exp:1.0", "exp:1"), ("exp:0.5", "exp:0.5"),
        ("exp:1e-05", "exp:1e-05"),
        # "%g" keeps 6 digits: a rate it does not read back to is spelt out
        ("exp:1.23456789012", "exp:1.23456789012"),
        ("exp:1/3", "exp:0.3333333333333333"),
        ("distort(exp:1, h=power:1.23456789012)",
         "distort(exp:1, h=power:1.23456789012)"),
        ("distort(exp:1, h=dualpower:1/3)",
         "distort(exp:1, h=dualpower:0.3333333333333333)"),
    ])
    def test_labels_keep_every_digit_of_a_rate(self, text, label):
        assert build(text).label == label

    @pytest.mark.parametrize("text", [
        "weird:1", "exp:abc", "distort(exp:1)", "distort(exp:1, power:2)",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(SpecError):
            build(text)

    @pytest.mark.parametrize("text, message", [
        ("exp:abc", "bad exponential rate in 'exp:abc': "),
        ("exp:-1", "exponential rate must be positive, got -1.0"),
        ("weird:1", "unrecognized distribution spec 'weird:1'"),
        ("distort(exp:1)",
         "distort(...) needs exactly base spec and h=..., got 'distort(exp:1)'"),
        # the h= form is checked before the base spec is built
        ("distort(weird:1, power:2)",
         "second distort(...) argument must be h=..., got 'power:2'"),
        ("distort(weird:1, h=power:2)", "unrecognized distribution spec 'weird:1'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(SpecError) as info:
            build(text)
        assert str(info.value).startswith(message)


_SPACE = st.sampled_from(["", " ", "  "])
_EXP_RATES = st.one_of(
    st.sampled_from(["1", "1.0", " 2.50", "0.5", "3", "1.23456789012",
                     "0.987654321098"]),
    st.floats(1e-3, 1e3).map(lambda r: f"{r:.12g}"),
)
_Q_EXPRS = st.sampled_from(["p", "2*p", "p^2", "-ln(1 - p)", "17/8*p - 1/2*p^2"])
_HAZARD_EXPRS = st.sampled_from(["x", "x^2", "2*x + x^3", "x^0.5"])
_DISTORTIONS = st.one_of(
    st.sampled_from(["identity", "power:2", "power:2.50", "dualpower:3",
                     "dualpower:1.5", "power:1.23456789012",
                     "dualpower:2.71828182846"]),
    st.sampled_from(["p^2", " p^0.5", "2*p - p^2 "]).map(lambda e: "h:" + e),
)


def _padded(prefix, body):
    return st.tuples(_SPACE, body, _SPACE).map(
        lambda t: f"{t[0]}{prefix}{t[0]}{t[1]}{t[2]}")


_PLAIN_SPECS = st.one_of(
    _EXP_RATES.map(lambda r: "exp:" + r),
    _padded("q:", _Q_EXPRS),
    _padded("hazard:", _HAZARD_EXPRS),
)
_SPECS = st.recursive(
    _PLAIN_SPECS,
    lambda base: st.tuples(base, _DISTORTIONS).map(
        lambda t: f"distort({t[0]}, h={t[1]})"),
    max_leaves=3,
)


_PROBES = np.array([1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9])


@given(_SPECS)
def test_labels_are_fixed_points(text):
    # a label is spec text that builds the distribution it labels, bit for bit
    X = build(text)
    rebuilt = build(X.label)
    assert rebuilt.label == X.label
    assert rebuilt.quantile(_PROBES).tobytes() == X.quantile(_PROBES).tobytes()


def _record_samples(monkeypatch):
    """The point arrays build passes to numerics.sample, recorded as it goes."""
    seen = []
    original = distributions_mod.sample

    def recording(fn, points, *args):
        seen.append(np.asarray(points, dtype=float).copy())
        return original(fn, points, *args)

    monkeypatch.setattr(distributions_mod, "sample", recording)
    return seen


class TestBuild:
    def test_exponential_quantile(self):
        X = build("exp:1")
        assert X.quantile(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        assert X.label == "exp:1"

    def test_quantile_expression(self):
        X = build("q: 2*p")
        assert X.quantile(0.25) == 0.5

    def test_decreasing_quantile_rejected(self):
        with pytest.raises(SpecError):
            build("q: 1 - p")

    def test_negative_quantile_rejected(self):
        with pytest.raises(SpecError):
            build("q: p - 1/2")

    def test_hazard_linear_matches_exponential(self):
        # cumulative hazard x reproduces the unit exponential
        X = build("hazard: x")
        Y = build("exp:1")
        for p in GRID63:
            assert X.quantile(p) == pytest.approx(Y.quantile(p), abs=1e-9)

    def test_hazard_square(self):
        # cumulative hazard x^2 gives quantile sqrt(-ln(1-p))
        X = build("hazard: x^2")
        for p in (0.1, 0.5, 0.9):
            assert X.quantile(p) == pytest.approx(
                math.sqrt(-math.log1p(-p)), abs=1e-9)

    def test_hazard_quantile_at_nan_is_nan(self):
        # as exp:1 gives it; nan is not a level at or below psi(0), so it is
        # not the atom at 0
        X = build("hazard: x^2")
        assert math.isnan(build("exp:1").quantile(math.nan))
        assert math.isnan(X.quantile(math.nan))
        got = X.quantile(np.array([0.5, math.nan, 0.0]))
        assert got[0] == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-9)
        assert math.isnan(got[1]) and got[2] == 0.0

    @pytest.mark.parametrize("spec", ["exp:1", "exp:2.5", "hazard: x^2",
                                      "hazard: x^0.5"])
    def test_quantile_at_level_one_is_inf(self, spec):
        # the quantile's limit at 1, not math.log(0)'s "math domain error";
        # the other entries of an array are what they are alone
        X = build(spec)
        assert X.quantile(1.0) == math.inf
        got = X.quantile(np.array([0.5, 1.0, math.nan, 0.0]))
        assert got[1] == math.inf and math.isnan(got[2])
        assert [got[0], got[3]] == [X.quantile(0.5), X.quantile(0.0)]

    @pytest.mark.parametrize("spec", ["exp:1", "hazard: x"])
    def test_level_outside_the_unit_interval_has_no_quantile(self, spec):
        # -1 and 2 read as nan, as a nan level does, in both survival forms:
        # not a bare math domain error, nor -ln 2 for exp:1 and 0 for hazard
        X = build(spec)
        levels = [-1.0, 0.0, 1.0, 2.0, math.nan]
        for got in ([X.quantile(p) for p in levels], X.quantile(np.array(levels))):
            assert math.isnan(got[0]) and math.isnan(got[3]) and math.isnan(got[4])
            assert got[1] == 0.0 and got[2] == math.inf

    def test_distorted_exponential_is_rate_scaled(self):
        # h(p) = p^2 acting on the survival doubles the hazard rate
        X = build("distort(exp:1, h=power:2)")
        for p in GRID63:
            assert X.quantile(p) == pytest.approx(
                -math.log1p(-p) / 2.0, abs=1e-10)

    def test_from_quantile_without_validation_accepts_anything(self):
        X = from_quantile(lambda p: 1.0 - p, "decreasing", validate=False)
        assert X.quantile(0.25) == 0.75

    def test_quantile_check_points_are_the_comprehension(self, monkeypatch):
        # the points a q: build checks, bit for bit the per-point expression
        seen = _record_samples(monkeypatch)
        build("q: 2*p")
        lo, hi, count = 1e-9, 1.0 - 1e-9, 513
        want = np.array([lo + (hi - lo) * i / (count - 1) for i in range(count)])
        assert [pts.tobytes() for pts in seen] == [want.tobytes()]

    @pytest.mark.parametrize("text", ["hazard: x", "hazard: x^2", "hazard: 1e-3*x"])
    def test_hazard_check_points_are_the_comprehension(self, text, monkeypatch):
        seen = _record_samples(monkeypatch)
        build(text)
        (xs,) = seen
        hi, steps = float(xs[-1]), 512
        # the geometric head hi 2^-k, k = 70..10, then hi i/512
        want = np.array([hi * 2.0 ** -k for k in range(70, 9, -1)]
                        + [hi * i / steps for i in range(1, steps + 1)])
        assert xs.tobytes() == want.tobytes()

    def test_hazard_quantile_does_not_reevaluate_psi_at_hi(self, monkeypatch):
        # psi(hi) is known from the build's doubling loop; a quantile call
        # compares its targets with that float instead of evaluating psi on
        # an array of copies of hi
        calls = []
        compile_fn = distributions_mod.funcalc.compile_fn

        def recording(expr):
            fn = compile_fn(expr)

            @functools.wraps(fn)
            def psi(x):
                calls.append(np.array(x, dtype=float).ravel())
                return fn(x)
            return psi

        monkeypatch.setattr(distributions_mod.funcalc, "compile_fn", recording)
        X = build("hazard: x^2")
        *loop, xs = calls
        # psi(0), then doubling from 1 until psi reaches 30, then the sample
        assert [float(v[0]) for v in loop] == [0.0, 1.0, 2.0, 4.0, 8.0]
        hi = float(xs[-1])
        assert hi == 8.0
        calls.clear()
        X.quantile(np.linspace(0.005, 0.995, 100))
        assert calls
        assert not any(v.size and np.all(v == hi) for v in calls)

    def test_far_tail_quantile_solves_from_the_table_past_hi(self, monkeypatch):
        # psi(1024) = 32 < -ln(1e-15) ~ 34.5 <= psi(2048): the cell past hi,
        # where a solve on [0, 2048] ran before the table reached that far
        seen = []
        solve = distributions_mod.monotone_inverse

        def recording(fn, y, lo, hi, values=None):
            seen.append((np.array(lo).tolist(), np.array(hi).tolist()))
            return solve(fn, y, lo, hi, values=values)

        monkeypatch.setattr(distributions_mod, "monotone_inverse", recording)
        build("hazard: x^0.5").quantile(1.0 - 1e-15)
        assert seen == [([1024.0], [2048.0])]

    @pytest.mark.parametrize("text, want", [
        ("hazard: x^2", (5.471132909377067, 5.677762842823469,
                         5.8770380288322865, 6.061089058055252)),
        ("hazard: (x/1.40711)^1.93355", (8.161513373176023, 8.480549340625599,
                                         8.788608044131212, 9.073451181371627)),
        ("hazard: x^0.5", (896.0021682395179, 1039.2235822445707,
                           1192.9823097306903, 1349.5925160962277)),
        ("hazard: 0.001*x", (29933.295312068763, 32236.990899346834,
                             34539.57599234088, 36736.8005696771)),
    ])
    def test_far_tail_quantiles(self, text, want):
        # the values a solve on [0, h], h doubled from hi, gave; a solve
        # from the table's cell stops within a few ulp of them
        got = build(text).quantile(np.array([1 - 1e-13, 1 - 1e-14, 1 - 1e-15,
                                             1 - 2.0 ** -53]))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.array(want)))

    def test_bounded_hazard_refuses_targets_past_its_reach(self):
        # 33 (1 - e^-x) reaches 30 at hi = 4 and never reaches 34.5: the
        # table runs to 2^64, and the solve's own screening refuses
        X = build("hazard: 33*(1 - exp(-x))")
        assert X.quantile(0.5) == pytest.approx(-math.log1p(math.log(0.5) / 33))
        with pytest.raises(BracketError, match=r"^target 34\.53957599234088 "
                                               r"outside \[0\.0, 33\.0\]$"):
            X.quantile(1.0 - 1e-15)

    def test_hazard_that_breaks_a_rule_past_hi_is_refused_at_build(self):
        # psi(1) = 31 + ln(1/2) reaches 30, and psi(2), which the table
        # needs on its way to -ln(2^-53), takes ln of -1/2
        with pytest.raises(distributions_mod.funcalc.ExprDomainError,
                           match=r"^ln of a non-positive number \(at 7\.\.18 "):
            build("hazard: 31*x + ln(1.5 - x)")

    def test_hazard_table_reaches_the_largest_finite_target(self, monkeypatch):
        # psi(hi = 32) = 32; one float call at 64 brings the table past
        # -ln(2^-53), after the 573-point sample the check reads
        calls = []
        compile_fn = distributions_mod.funcalc.compile_fn

        def recording(expr):
            fn = compile_fn(expr)

            @functools.wraps(fn)
            def psi(x):
                calls.append(np.array(x, dtype=float).ravel().tolist())
                return fn(x)
            return psi

        monkeypatch.setattr(distributions_mod.funcalc, "compile_fn", recording)
        X = build("hazard: x")
        assert [v for v in calls if len(v) == 1] == \
            [[0.0], [1.0], [2.0], [4.0], [8.0], [16.0], [32.0], [64.0]]
        assert [len(v) for v in calls if len(v) > 1] == [573]
        assert X.quantile(1.0 - 2.0 ** -53) == pytest.approx(53 * math.log(2.0))

    @pytest.mark.parametrize("rate", [1.0, 2.5])
    def test_exponential_is_the_linear_cumulative_hazard(self, rate):
        # cdf 1 - e^(-rate x) and quantile -ln(1 - p)/rate, bit for bit,
        # at the signed zeros, infinities and nan too
        X = build(f"exp:{rate}")
        x = np.array([math.nan, -math.inf, -1.0, -0.0, 0.0, 1e-300, 0.7, 40.0,
                      1e300, math.inf])
        want = [1.0 - math.exp(-rate * v) if v > 0.0 else 0.0 for v in x.tolist()]
        assert cdf(X, x).tobytes() == np.array(want).tobytes()
        p = np.array([math.nan, -0.0, 0.0, 0.3, 1.0 - 1e-15, 1.0])
        want = [math.inf if v == 1.0 else -math.log(1.0 - v) / rate
                for v in p.tolist()]
        assert X.quantile(p).tobytes() == np.array(want).tobytes()

    def test_unvalidated_build_evaluates_nothing(self):
        calls = []
        from_quantile(lambda p: calls.append(p) or p, "counted", validate=False)
        assert calls == []

    def test_distort_evaluates_neither_quantile_nor_distortion(self):
        calls = []
        X = from_quantile(lambda p: calls.append(("q", p)) or p, "counted",
                          validate=False)
        h = dist_mod.Distortion(fn=lambda p: calls.append(("h", p)) or p,
                                label="counted", strictly_increasing=True)
        distort(X, h)
        assert calls == []


class TestCdfAndDensity:
    def test_cdf_inverts_quantile(self, named_distributions):
        X = named_distributions["exp_1"]
        for p in (0.05, 0.3, 0.7, 0.95):
            assert cdf(X, X.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_cdf_survival_complement(self, named_distributions):
        X = named_distributions["uniform"]
        assert cdf(X, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert 1.0 - cdf(X, 0.25) == pytest.approx(0.75, abs=1e-12)

    def test_cdf_below_support(self, named_distributions):
        assert cdf(named_distributions["exp_1"], -1.0) == 0.0

    def test_uniform_density(self, named_distributions):
        X = named_distributions["uniform"]
        for p in (0.2, 0.5, 0.8):
            assert density_at_quantile(X, p) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_density(self, named_distributions):
        X = named_distributions["exp_1"]
        for p in (0.2, 0.5, 0.8):
            assert density_at_quantile(X, p) == pytest.approx(
                1.0 - p, abs=1e-6)

    def test_polynomial_quantile_density(self, named_distributions):
        # q(p) = 17/8 p - p^2/2 has density 1/(17/8 - p) at level p
        X = named_distributions["ce02_x"]
        for p in (0.1, 0.5, 0.9):
            assert density_at_quantile(X, p) == pytest.approx(
                1.0 / (17.0 / 8.0 - p), abs=1e-6)

    def test_cdf_by_inversion_reads_the_quantile_ends_once(self):
        # q at [EPS_Q, 1 - EPS_Q] is read once and handed to the solve,
        # which would evaluate both ends again for every entry
        X = build("q: p^2")
        points = []
        q = X.quantile
        X.quantile = elementwise(lambda p: points.append(np.size(p)) or q(p))
        x = np.linspace(0.01, 0.9, 100)
        got = cdf(X, x)
        assert points[:2] == [2, 100] and sum(points) == 788
        assert np.all(np.abs(got - np.sqrt(x)) <= 1e-12)

    def test_flat_quantile_has_no_density(self):
        X = from_quantile(lambda p: min(p, 0.5), "flat-top", validate=False)
        with pytest.raises(DegenerateDensityError):
            density_at_quantile(X, 0.75)


class TestMean:
    def test_exponential(self, named_distributions):
        assert mean(named_distributions["exp_1"]) == pytest.approx(
            1.0, abs=1e-9)
        assert mean(named_distributions["exp_half"]) == pytest.approx(
            2.0, abs=1e-9)

    def test_uniform(self, named_distributions):
        assert mean(named_distributions["uniform"]) == pytest.approx(
            0.5, abs=1e-12)

    def test_polynomial_quantile(self, named_distributions):
        # integral of 17/8 p - p^2/2 over [0,1] is 43/48
        assert mean(named_distributions["ce02_x"]) == pytest.approx(
            43.0 / 48.0, abs=1e-12)

    def test_logarithmic_quantile(self, named_distributions):
        expected = 23.0 / 8.0 * math.log(23.0 / 8.0) \
            - 15.0 / 8.0 * math.log(15.0 / 8.0) - 1.0
        assert mean(named_distributions["ce02_y"]) == pytest.approx(
            expected, abs=1e-10)

    def test_square_hazard_matches_scipy_rayleigh(self, named_distributions):
        # survival exp(-x^2) is a Rayleigh law with scale 1/sqrt(2)
        expected = scipy.stats.rayleigh(scale=1.0 / math.sqrt(2.0)).mean()
        assert expected == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
        assert mean(named_distributions["rayleigh"]) == pytest.approx(
            expected, abs=1e-8)

    def test_kinked_hazard_mean_is_stable(self, named_distributions):
        assert mean(named_distributions["ce01_x"]) == pytest.approx(
            0.6009653158648454, abs=1e-9)

    def test_divergent_mean_detected(self):
        with pytest.raises(InfiniteMeanError):
            mean(build("q: p/(1-p)"))


class TestDistort:
    def test_power_on_exponential(self, named_distributions):
        X = named_distributions["exp_1"]
        Xh = distort(X, dist_mod.power(3.0))
        for p in GRID63:
            assert Xh.quantile(p) == pytest.approx(
                -math.log1p(-p) / 3.0, abs=1e-10)

    def test_dual_power_on_uniform(self, named_distributions):
        # dualpower(2) on the survival squares the cdf, so q_h(p) = sqrt(p);
        # power(2) squares the survival instead, so q_h(p) = 1 - sqrt(1-p).
        X = named_distributions["uniform"]
        Xh = distort(X, dist_mod.dualpower(2.0))
        Xg = distort(X, dist_mod.power(2.0))
        for p in (0.1, 0.5, 0.9):
            assert Xh.quantile(p) == pytest.approx(math.sqrt(p), abs=1e-10)
            assert Xg.quantile(p) == pytest.approx(
                1.0 - math.sqrt(1.0 - p), abs=1e-10)

    def test_identity_distortion_is_a_no_op(self, named_distributions):
        X = named_distributions["ce02_x"]
        Xh = distort(X, dist_mod.identity())
        for p in (0.1, 0.5, 0.9):
            assert Xh.quantile(p) == pytest.approx(X.quantile(p), abs=1e-10)

    def test_label_mentions_both_parts(self, named_distributions):
        Xh = distort(named_distributions["exp_1"], dist_mod.power(2.0))
        assert "exp_1" in Xh.label or "exp" in Xh.label
        assert "power" in Xh.label

    def test_distorted_cdf_round_trip(self, named_distributions):
        Xh = distort(named_distributions["exp_1"], dist_mod.power(2.0))
        for p in (0.2, 0.6, 0.9):
            assert cdf(Xh, Xh.quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_records_its_base_and_h(self, named_distributions):
        # a quantile set on the handle keeps the record; replace, which may
        # give another quantile, and an undistorted build have none
        X, h = named_distributions["exp_1"], dist_mod.power(2.0)
        Xh = distort(X, h)
        assert Xh.distorted[0] is X and Xh.distorted[1] is h
        Xh.quantile = elementwise(Xh.quantile)
        assert Xh.distorted[0] is X
        assert dataclasses.replace(Xh, quantile=X.quantile).distorted is None
        assert X.distorted is None


class TestCatalog:
    def test_all_entries_have_finite_mean(self, named_distributions):
        for name, X in named_distributions.items():
            value = mean(X)
            assert math.isfinite(value) and value > 0.0, name

    def test_expected_members(self, named_distributions):
        assert {"exp_1", "exp_half", "uniform", "ce02_x", "ce02_y",
                "ce01_x", "rayleigh"} <= set(named_distributions)

    def test_sampled_pairs_rebuild_from_their_labels(self, named_distributions):
        # a sweep records x.label and y.label for a failing trial
        rng = random.Random(20240917)
        families = set()
        for _ in range(24):
            for X in catalog.sample_ordered_pair(rng)[:2]:
                scaled = re.fullmatch(r"scale\((\w+), (.+)\)", X.label)
                if scaled:
                    base = named_distributions[scaled.group(1)]
                    values = float(scaled.group(2)) * base.quantile(_PROBES)
                else:
                    values = build(X.label).quantile(_PROBES)
                assert values.tobytes() == X.quantile(_PROBES).tobytes(), X.label
                families.add(X.label.split(":")[0].split("(")[0])
        assert families == {"exp", "q", "scale"}
