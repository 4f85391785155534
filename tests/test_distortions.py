"""Distortion validation, shape classification, duals, and inverses."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochorder import catalog
from stochorder import distributions as db
from stochorder import funcalc
from stochorder.distortions import (
    Distortion,
    DistortionValidationError,
    classify,
    co_inverse,
    dual,
    dualpower,
    identity,
    inverse,
    parse_distortion_spec,
    power,
    validate,
    values_at,
)
from stochorder.numerics import SCAN_TIE_TOL, elementwise, validation_points

from helpers import GRID63, GRID65, max_abs_diff


class TestValidate:
    def test_accepts_expression_text(self):
        h = validate("p^2", label="square")
        assert h(0.5) == 0.25
        assert h.label == "square"

    def test_accepts_callable(self):
        h = validate(lambda p: p ** 3, label="cube")
        assert h(0.5) == 0.125

    @pytest.mark.parametrize("text", [
        "p/2",          # h(1) != 1
        "1.5*p",        # exceeds 1
        "p^2 - 1/10",   # negative at 0
        "1 - p",        # decreasing
    ])
    def test_rejections(self, text):
        with pytest.raises(DistortionValidationError):
            validate(text, label=text)

    def test_rejecting_message_names_a_witness(self):
        try:
            validate("1 - p", label="reversed")
        except DistortionValidationError as ex:
            assert "reversed" in str(ex)
        else:  # pragma: no cover
            pytest.fail("expected rejection")


class TestBuiltins:
    def test_identity_values(self):
        h = identity()
        assert all(h(p) == p for p in GRID65)

    def test_power_values_and_inverse(self):
        h = power(2.0)
        assert h(0.5) == 0.25
        assert h.inverse_fn(0.25) == pytest.approx(0.5, abs=1e-15)
        assert h.co_inverse_fn(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_dualpower_values_and_inverse(self):
        h = dualpower(2.0)
        assert h(0.5) == pytest.approx(0.75, abs=1e-15)
        assert h.inverse_fn(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_power_requires_positive_exponent(self):
        with pytest.raises((DistortionValidationError, ValueError)):
            power(-1.0)

    @pytest.mark.parametrize("build", [power, dualpower])
    @pytest.mark.parametrize("k", [math.inf, math.nan, 0.0])
    def test_exponent_must_be_positive_and_finite(self, build, k):
        with pytest.raises(DistortionValidationError,
                           match=rf"^{build.__name__} exponent must be positive "
                                 rf"and finite, got {k!r}$"):
            build(k)

    def test_builtin_closed_inverses_match_bisection(self):
        h = power(2.5)
        for p in (0.1, 0.5, 0.9):
            assert h.co_inverse_fn(p) == pytest.approx(
                1.0 - h.inverse_fn(1.0 - p), abs=1e-14)
            assert co_inverse(h, p) == pytest.approx(
                h.co_inverse_fn(p), abs=1e-12)


class TestDual:
    def test_dual_of_power_is_dual_power(self):
        assert max_abs_diff(dual(power(2.0)).fn, dualpower(2.0).fn,
                            GRID65) < 1e-15

    @given(k=st.floats(0.4, 4.0))
    def test_dual_is_an_involution(self, k):
        h = power(k)
        hh = dual(dual(h))
        assert max_abs_diff(hh.fn, h.fn, GRID65) < 1e-12

    def test_dual_swaps_star_and_antistar(self):
        report = classify(dual(power(3.0)))
        assert report.antistarshaped and not report.starshaped

    @pytest.mark.parametrize("build", [
        lambda: power(2.5), lambda: dualpower(3.7), identity,
        lambda: catalog.convex_mix(0.3), lambda: catalog.concave_mix(0.6),
        lambda: validate("p^2", inverse_fn=math.sqrt), lambda: validate("p^2"),
    ], ids=["power", "dualpower", "identity", "convex_mix", "concave_mix",
            "given-inverse", "root-solved"])
    def test_dual_swaps_the_closed_forms(self, build):
        h = build()
        hd = dual(h)
        assert hd.inverse_fn is h.co_inverse_fn and hd.co_inverse_fn is h.inverse_fn
        # so the dual of the dual carries h's own callables
        hh = dual(hd)
        assert hh.inverse_fn is h.inverse_fn and hh.co_inverse_fn is h.co_inverse_fn

    @pytest.mark.parametrize("build", [
        lambda: power(2.5), lambda: power(0.3), lambda: catalog.convex_mix(0.3),
        lambda: catalog.concave_mix(0.6), lambda: validate("p^2", inverse_fn=math.sqrt),
    ], ids=["power", "root-power", "convex_mix", "concave_mix", "given-inverse"])
    def test_derived_co_inverse_is_the_complement_of_the_inverse_bit_for_bit(self, build):
        h = build()
        k = np.arange(1, 17)
        p = np.concatenate([np.linspace(0.0, 1.0, 4097),
                            np.random.default_rng(0).random(4000),
                            10.0 ** -k, 1.0 - 10.0 ** -k])
        assert h.co_inverse_fn(p).tobytes() == (1.0 - h.inverse_fn(1.0 - p)).tobytes()
        assert co_inverse(h, p).tobytes() == \
            np.clip(1.0 - h.inverse_fn(1.0 - p), 0.0, 1.0).tobytes()

    def test_stated_co_inverse_is_kept(self):
        # identity states p itself, not 1 - (1 - p)
        h = identity()
        assert h.co_inverse_fn(0.1) == 0.1 != 1.0 - (1.0 - 0.1)


class TestInverse:
    def test_bisection_inverse_on_expression(self):
        h = validate("p^2")
        assert inverse(h, 0.49) == pytest.approx(0.7, abs=1e-9)

    def test_co_inverse_is_complement_of_inverse(self):
        h = validate("p^2")
        for p in (0.2, 0.5, 0.8):
            assert co_inverse(h, p) == pytest.approx(
                1.0 - inverse(h, 1.0 - p), abs=1e-9)


class TestCompose:
    # distorting by h1 and then by h2 is distorting by h2(h1(p))
    X = db.build("exp:1")

    def test_powers_compose_to_power_of_product(self):
        twice = db.distort(db.distort(self.X, power(2.0)), power(3.0))
        once = db.distort(self.X, power(6.0))
        assert max_abs_diff(twice.quantile, once.quantile, GRID63) < 1e-13

    def test_identity_is_neutral(self):
        twice = db.distort(db.distort(self.X, identity()), power(2.0))
        once = db.distort(self.X, power(2.0))
        assert max_abs_diff(twice.quantile, once.quantile, GRID63) < 1e-15


class TestClassify:
    def test_identity_has_every_flag(self):
        report = classify(identity())
        assert all(report.flags().values())

    def test_convex_power(self):
        report = classify(power(2.0))
        assert report.convex and not report.concave
        assert report.starshaped and not report.antistarshaped
        assert report.strictly_increasing
        # its dual 1-(1-p)^2 is concave, hence antistarshaped
        assert report.dual_antistarshaped

    def test_concave_dual_power(self):
        report = classify(dualpower(2.0))
        assert report.concave and not report.convex
        assert report.antistarshaped and not report.starshaped
        # its dual p^2 is starshaped, not antistarshaped
        assert not report.dual_antistarshaped

    def test_starshaped_without_convexity(self, named_distortions):
        report = classify(named_distortions["star_kink"])
        assert report.starshaped and not report.convex

    def test_antistarshaped_without_concavity(self, named_distortions):
        report = classify(named_distortions["antistar_kink"])
        assert report.antistarshaped and not report.concave

    def test_catalog_flag_implications(self, named_distortions):
        for name, h in named_distortions.items():
            flags = classify(h).flags()
            if flags["convex"]:
                assert flags["starshaped"], name
            if flags["concave"]:
                assert flags["antistarshaped"], name
            if flags["starshaped"] and flags["antistarshaped"]:
                assert name == "identity", name

    def test_catalog_entries_are_strictly_increasing(self, named_distortions):
        for name, h in named_distortions.items():
            assert classify(h).strictly_increasing, name

    def test_system_entries_show_expected_shapes(self, named_distortions):
        bridge = classify(named_distortions["sys_five_comp_bridge"])
        assert bridge.starshaped and not bridge.antistarshaped
        three = classify(named_distortions["sys_three_of_four"])
        assert three.antistarshaped and not three.starshaped
        series = classify(named_distortions["sys_series_with_parallel_pair"])
        assert not series.starshaped and not series.antistarshaped
        assert series.dual_antistarshaped and series.strictly_increasing


def _ratio_distortion(ratios):
    """A raw distortion whose h(p)/p takes the given values at the first
    points i/512, i = 1, 2, ..., of classify's sample, then rises by 1 per
    point."""
    tail = [ratios[-1] + k for k in range(1, 513 - len(ratios))]
    table = dict(zip(validation_points()[1:], ratios + tail))
    return Distortion(fn=lambda p: p * table.get(p, 1.0), label="ratio-table",
                      strictly_increasing=True)


class TestShapeScans:
    """classify reads adjacent steps of h(p)/p: a step within SCAN_TIE_TOL is
    a tie, and each failed flag names the first sample point contradicting
    it."""

    SAMPLE = validation_points()[1:]

    def test_rising_ratio_is_starshaped_only(self):
        report = classify(power(2.0))
        assert report.starshaped and not report.antistarshaped
        assert "starshaped" not in report.witnesses
        assert report.witnesses["antistarshaped"] == validation_points()[1]

    def test_falling_ratio_is_antistarshaped_only(self):
        report = classify(dualpower(2.0))
        assert report.antistarshaped and not report.starshaped
        assert report.witnesses["starshaped"] == validation_points()[1]

    def test_identity_is_all_four_shapes_without_witnesses(self):
        report = classify(identity())
        assert report.convex and report.concave
        assert report.starshaped and report.antistarshaped
        assert report.witnesses == {}

    def test_wiggle_within_the_tie_tolerance_is_a_tie(self):
        wiggle = 0.5 * SCAN_TIE_TOL
        ratios = [1.0, 1.0 + wiggle, 1.0] + [1.0] * 5 + [float(k) for k in range(2, 10)]
        report = classify(_ratio_distortion(ratios))
        assert report.starshaped and not report.antistarshaped
        assert report.witnesses["antistarshaped"] == self.SAMPLE[7]

    def test_wiggle_beyond_the_tie_tolerance_counts(self):
        wiggle = 5.0 * SCAN_TIE_TOL
        ratios = [1.0, 1.0 + wiggle, 1.0] + [1.0] * 5 + [float(k) for k in range(2, 10)]
        report = classify(_ratio_distortion(ratios))
        assert not report.starshaped and not report.antistarshaped
        assert report.witnesses["starshaped"] == self.SAMPLE[1]
        assert report.witnesses["antistarshaped"] == self.SAMPLE[0]

    def test_rise_then_drop_names_the_left_end_of_each_first_offence(self):
        ratios = [1.0, 2.0, 1.5] + [float(k) for k in range(3, 16)]
        report = classify(_ratio_distortion(ratios))
        assert not report.starshaped and not report.antistarshaped
        assert report.witnesses["starshaped"] == self.SAMPLE[1]
        assert report.witnesses["antistarshaped"] == self.SAMPLE[0]

    @pytest.mark.parametrize("name, flag, witness", [
        ("star_kink", "antistarshaped", 0.5),
        ("star_kink", "dual_antistarshaped", 0.25),
        ("star_kink", "convex", 0.75),
        ("power_5", "antistarshaped", 3 / 512),  # first step beyond the tie
        ("power_5", "concave", 2 / 512),         # centre of a second difference
        ("antistar_kink", "starshaped", 0.25),
    ])
    def test_catalog_witnesses(self, named_distortions, name, flag, witness):
        report = classify(named_distortions[name])
        assert not report.flags()[flag]
        assert report.witnesses[flag] == witness


def _classify_by_evaluation(h):
    """(flags, witnesses) of h on the points i/512, i = 1..512, from h
    evaluated afresh at p and 1 - p: the reference for classify's read of
    h's sample."""
    pts = validation_points()[1:]
    p = np.array(pts)
    vals, flipped = np.split(np.asarray(h.fn(np.concatenate((p, 1.0 - p))),
                                        dtype=float), 2)
    step = np.diff(vals / p)
    dual_step = np.diff((1.0 - flipped) / p)
    slopes = np.diff(vals) / np.diff(p)
    curvature = 2.0 * np.diff(slopes) / (p[2:] - p[:-2])
    contradictions = {
        "convex": (curvature < -SCAN_TIE_TOL, 1),
        "concave": (curvature > SCAN_TIE_TOL, 1),
        "starshaped": (step < -SCAN_TIE_TOL, 0),
        "antistarshaped": (step > SCAN_TIE_TOL, 0),
        "dual_antistarshaped": (dual_step > SCAN_TIE_TOL, 0),
    }
    witnesses = {flag: pts[int(np.flatnonzero(mask)[0]) + offset]
                 for flag, (mask, offset) in contradictions.items() if mask.any()}
    flags = {flag: flag not in witnesses for flag in contradictions}
    flags["strictly_increasing"] = h.strictly_increasing
    return flags, witnesses


def _assert_classify_reads_h(h):
    report = classify(h)
    flags, witnesses = _classify_by_evaluation(h)
    assert report.flags() == flags, h.label
    assert report.witnesses == witnesses, h.label
    # and the sample is h at i/512, bit for bit
    sampled = values_at(h)
    fresh = np.asarray(h.fn(np.array(validation_points())), dtype=float)
    assert sampled.tobytes() == fresh.tobytes(), h.label


_MIXTURE = st.tuples(st.floats(0.05, 0.95), st.floats(1.1, 6.0))


class TestSample:
    """A distortion keeps h at the 513 points i/512; classify and the
    system tables read it instead of evaluating h again."""

    def test_catalog_classify_matches_evaluation(self, named_distortions,
                                                 fresh_distortions):
        # the catalog's own samples (validate's), and ones taken on first use
        for h in (*named_distortions.values(), *fresh_distortions.values()):
            _assert_classify_reads_h(h)

    @pytest.mark.parametrize("make", [
        lambda: power(2.5), lambda: dualpower(3.0), identity,
        lambda: dual(power(3.0)), lambda: power(0.5)])
    def test_builtins_classify_matches_evaluation(self, make):
        h = make()
        assert h.sampled is None  # taken on first use
        _assert_classify_reads_h(h)

    @given(mix=_MIXTURE)
    def test_mixtures_and_duals_classify_matches_evaluation(self, mix):
        w, m = mix
        h = validate(f"{w!r}*p + {1.0 - w!r}*p^{m!r}")
        _assert_classify_reads_h(h)
        _assert_classify_reads_h(dual(h))

    def test_validate_keeps_the_sample_it_checked(self):
        calls = []
        h = validate(lambda p: calls.append(p) or p * p, label="counted")
        assert len(calls) == 513
        assert h.sampled.tobytes() == (np.array(validation_points()) ** 2).tobytes()
        assert not h.sampled.flags.writeable
        classify(h)
        values_at(h, 257)
        values_at(h, 2)
        assert len(calls) == 513

    def test_unvalidated_distortion_is_sampled_once(self):
        sizes = []

        def fn(p):
            sizes.append(np.size(p))
            return p * p

        h = Distortion(fn=elementwise(fn), label="counted",
                       strictly_increasing=True)
        classify(h)
        classify(h)
        values_at(h, 129)
        assert sizes == [513]

    @pytest.mark.parametrize("count", [2, 3, 17, 257, 513, 100, 256, 1025])
    def test_values_at_is_h_at_validation_points(self, count):
        h = validate("0.3*p + 0.7*p^2.5")
        want = np.asarray(h.fn(np.array(validation_points(count))), dtype=float)
        assert values_at(h, count).tobytes() == want.tobytes()

    def test_replace_drops_the_sample(self):
        h = validate("p^2")
        assert h.sampled is not None
        cube = replace(h, fn=lambda p: p ** 3)
        assert cube.sampled is None
        assert values_at(cube, 3).tolist() == [0.0, 0.125, 1.0]
        assert replace(h).sampled is None


class TestSpecs:
    def test_power_spec(self):
        h = parse_distortion_spec("power:2")
        assert max_abs_diff(h.fn, power(2.0).fn, GRID65) < 1e-15

    def test_dualpower_spec(self):
        h = parse_distortion_spec("dualpower:1.5")
        assert max_abs_diff(h.fn, dualpower(1.5).fn, GRID63) < 1e-15

    def test_prefixed_expression_spec(self):
        h = parse_distortion_spec("h: 0.5*p + 0.5*p^3")
        assert h(0.5) == pytest.approx(0.3125, abs=1e-15)

    def test_bare_expression_spec(self):
        h = parse_distortion_spec("p^2")
        assert h(0.5) == 0.25

    def test_identity_spec(self):
        assert parse_distortion_spec("identity")(0.3) == 0.3

    def test_bad_exponent_rejected(self):
        with pytest.raises((DistortionValidationError, funcalc.ExprError)):
            parse_distortion_spec("power:zero")

    def test_invalid_expression_rejected(self):
        with pytest.raises(DistortionValidationError):
            parse_distortion_spec("p/2")

    def test_shape_report_is_frozen(self):
        h = power(2.0)
        assert isinstance(h, Distortion)
        report = classify(h)
        with pytest.raises(Exception):
            report.convex = False  # type: ignore[misc]
