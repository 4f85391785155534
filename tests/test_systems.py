"""System signatures, closed-form distortions, and shape corollaries."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from stochorder import catalog, cli
from stochorder import copulas as cop
from stochorder import distortions as dist_mod
from stochorder import systems as sys_mod
from stochorder.distortions import classify
from stochorder.numerics import DEFAULT_GRID
from stochorder.orders import OrderKind
from stochorder.systems import (
    DiagParams,
    MinimalSignature,
    SignatureError,
    classify_3component,
    classify_4component,
    classify_diag,
    diag_system_distortion,
    diag_system_params,
    durante_condition_values,
    durante_shape_condition,
    durante_system_distortion,
    parallel_distortion,
    parse_signature,
    preservation_advice,
    rational_str,
    series_distortion,
    signature,
    system_distortion,
)

from helpers import GRID63, interior_points, max_abs_diff


class TestSignature:
    def test_integer_entries_stay_exact(self):
        sig = signature([2, 0, -2, 1])
        assert sig.exact and sig.n == 4
        assert sig.a == (Fraction(2), Fraction(0), Fraction(-2), Fraction(1))

    def test_fraction_strings(self):
        sig = parse_signature("1/3, 1/3, 1/3")
        assert sig.exact
        assert sum(sig.a) == 1

    def test_float_entries_lose_exactness(self):
        sig = signature([0.3, 0.7])
        assert not sig.exact

    def test_exact_sum_must_be_one(self):
        with pytest.raises(SignatureError):
            signature([1, 1])

    def test_float_sum_tolerance(self):
        assert signature([0.3, 0.7 + 1e-12]).n == 2
        with pytest.raises(SignatureError):
            signature([0.3, 0.8])

    def test_rational_str(self):
        assert rational_str(Fraction(3, 4)) == "3/4"
        assert rational_str(Fraction(2)) == "2"
        assert rational_str(0.5) == "0.5"


class TestThreeComponentRule:
    def test_all_series_weight_is_antistar_any_generator(self):
        sig = parse_signature("3, -3, 1")
        result = classify_3component(sig)
        assert result.verdict == "antistarshaped_any_f"
        assert result.parameters["omega"] == Fraction(3, 2)

    def test_conditional_antistar_with_exact_threshold(self):
        sig = parse_signature("0, 3, -2")
        result = classify_3component(sig)
        assert result.verdict == "antistarshaped_if"
        assert result.threshold == Fraction(3, 4)

    def test_negative_cubic_weight_mirrors(self):
        # S(p) = 2 - 2 f(p) >= 0 for every generator, so starshaped
        sig = parse_signature("0, 2, -1")
        result = classify_3component(sig)
        assert result.verdict == "starshaped_any_f"

    def test_pure_margin_signature_is_identity(self):
        result = classify_3component(parse_signature("1, 0, 0"))
        assert result.verdict == "identity"

    def test_wrong_length_rejected(self):
        with pytest.raises(SignatureError):
            classify_3component(parse_signature("1, 0"))


class TestFourComponentRule:
    def test_perfect_square_discriminant_keeps_roots_exact(self):
        result = classify_4component(parse_signature("2, 0, -2, 1"))
        assert result.verdict == "antistarshaped_any_f"
        roots = {result.parameters["x1"], result.parameters["x2"]}
        assert roots == {Fraction(0), Fraction(4, 3)}
        assert all(isinstance(r, Fraction) for r in roots)

    def test_negative_leading_weight_mirrors(self):
        result = classify_4component(parse_signature("0, 1, 1, -1"))
        assert result.verdict == "starshaped_any_f"
        assert {result.parameters["x1"], result.parameters["x2"]} \
            == {Fraction(-1, 3), Fraction(1)}

    def test_irrational_threshold_falls_back_to_float(self):
        result = classify_4component(parse_signature("0, 6, -8, 3"))
        assert result.verdict == "antistarshaped_if"
        assert result.threshold == (8.0 - 10.0 ** 0.5) / 9.0
        assert isinstance(result.threshold, float)

    def test_nonpositive_discriminant_is_unconditional(self):
        # a = (0, 3, -3, 1): delta = 9 - 9 = 0
        result = classify_4component(parse_signature("0, 3, -3, 1"))
        assert result.verdict == "starshaped_any_f"

    def test_zero_quartic_weight_delegates(self):
        result = classify_4component(parse_signature("0, 3, -2, 0"))
        assert result.verdict == "antistarshaped_if"
        assert result.threshold == Fraction(3, 4)

    def test_describe_phrasing(self):
        result = classify_4component(parse_signature("0, 6, -8, 3"))
        assert result.describe().startswith("antistarshaped if f(0) >=")

    def test_json_uses_rational_strings(self):
        doc = classify_4component(parse_signature("2, 0, -2, 1")).to_json()
        assert doc["verdict"] == "antistarshaped_any_f"
        assert doc["parameters"]["x2"] == "4/3"


class TestDiagonalParameters:
    CASES = (
        ("2, 0, -2, 1", Fraction(4, 3), Fraction(-1, 3)),
        ("0, 0, 0, 3, -2", Fraction(3, 4), Fraction(1, 4)),
        ("0, 0, 2, -1", Fraction(2, 3), Fraction(1, 3)),
        ("0, 6, -8, 3", Fraction(4, 3), Fraction(-1, 3)),
    )

    @pytest.mark.parametrize("text,alpha,beta", CASES)
    def test_exact_values(self, text, alpha, beta):
        params = diag_system_params(parse_signature(text))
        assert params.alpha == alpha and params.beta == beta

    def test_weights_always_sum_to_one(self, named_signatures):
        for name, sig in named_signatures.items():
            params = diag_system_params(sig)
            assert params.alpha + params.beta == 1, name


class TestClosedForms:
    def test_durante_polynomial_values(self):
        copula = cop.durante("p", 4)
        sig = parse_signature("2, 0, -2, 1")
        built = durante_system_distortion(sig, copula)
        # h(p) = 2p - 2p^3 + p^4 under the identity generator
        assert built.h(0.5) == pytest.approx(0.8125, abs=1e-12)
        sig2 = parse_signature("0, 1, 1, -1")
        built2 = durante_system_distortion(sig2, copula)
        assert built2.h(0.5) == pytest.approx(0.3125, abs=1e-12)

    def test_closed_form_text(self):
        copula = cop.durante(catalog.DEFAULT_GENERATOR_TEXT, 4)
        built = durante_system_distortion(parse_signature("0, 1, 1, -1"), copula)
        assert built.closed_form == "p*f(p) + p*f(p)^2 - p*f(p)^3"

    def test_durante_closed_matches_generic_copula_sum(self):
        copula = cop.durante("p^0.5", 4)
        sig = parse_signature("2, 0, -2, 1")
        closed = durante_system_distortion(sig, copula)
        generic = sys_mod._boundary_sum(sig, copula)
        assert max_abs_diff(closed.h.fn, generic,
                            interior_points(0.0, 1.0, 33)) < 1e-12

    def test_diag_closed_matches_generic_copula_sum(self):
        copula = cop.jaworski(catalog.FN_DIAG_TEXT, 5)
        sig = parse_signature("0, 0, 0, 3, -2")
        closed = diag_system_distortion(sig, copula)
        generic = sys_mod._boundary_sum(sig, copula)
        assert max_abs_diff(closed.h.fn, generic,
                            interior_points(0.0, 1.0, 33)) < 1e-12

    def test_diag_closed_form_text(self):
        copula = cop.jaworski(catalog.FN_DIAG_TEXT, 5)
        built = diag_system_distortion(parse_signature("0, 0, 0, 3, -2"), copula)
        assert built.closed_form == "3/4*p + 1/4*d(p)"

    @pytest.mark.parametrize("build, validates, cop_evals", [
        # 65 cross-check points x 3 non-zero entries; one validation, of h_T
        (lambda: durante_system_distortion(parse_signature("2,0,-2,1"),
                                           cop.durante("p^0.5", 4)),
         1, 195),
        # 65 cross-check points x 2 non-zero entries
        (lambda: diag_system_distortion(parse_signature("0,0,0,3,-2"),
                                        cop.jaworski("2*p^2 - p^3", 5)),
         1, 130),
    ], ids=["generator", "diagonal"])
    def test_closed_form_is_validated_once(self, monkeypatch, build,
                                           validates, cop_evals):
        counts = {"validate": 0, "cop_eval": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(dist_mod, "validate",
                            counting("validate", dist_mod.validate))
        monkeypatch.setattr(cop, "cop_eval", counting("cop_eval", cop.cop_eval))
        build()
        assert counts == {"validate": validates, "cop_eval": cop_evals}

    def test_system_distortion_hands_off_to_the_closed_forms(self):
        sig = parse_signature("2, 0, -2, 1")
        built = system_distortion(sig, cop.durante("p^0.5", 4))
        assert built.h.label == "system(a=2,0,-2,1; f=p^0.5)"
        assert built.closed_form == "2*p - 2*p*f(p)^2 + p*f(p)^3"
        built = system_distortion(parse_signature("0, 0, 0, 3, -2"),
                                  cop.jaworski(catalog.FN_DIAG_TEXT, 5))
        assert built.h.label == f"system(a=0,0,0,3,-2; d={catalog.FN_DIAG_TEXT})"
        assert built.closed_form == "3/4*p + 1/4*d(p)"
        built = system_distortion(parse_signature("0, 1"), cop.product(2))
        assert built.h.label == "system(a=0,1; product:2)"
        assert built.closed_form is None

    def test_inexact_signature_rejected_by_closed_forms(self):
        copula = cop.durante("p", 3)
        sig = signature([0.2, 0.5, 0.3])
        built = durante_system_distortion(sig, copula)
        assert built.h(0.5) > 0.0  # float route still builds and validates


class TestShapeCondition:
    def test_unconditional_verdicts_hold_for_every_generator(self,
                                                             named_signatures):
        rules = {
            "two_parallel_pairs": "antistarshaped",
            "one_of_two_pairs": "starshaped",
        }
        for sig_name, expected in rules.items():
            sig = named_signatures[sig_name]
            for gen_name, (text,) in catalog.generators().items():
                gen = cop.validate_generator(text, sig.n)
                got = durante_shape_condition(sig, gen)
                assert got.verdict == expected, (sig_name, gen_name)

    def test_conditional_verdict_activates_above_threshold(self):
        # threshold is (8 - sqrt(10))/9 ~= 0.5375; f(0) = 0.55 clears it
        sig = parse_signature("0, 6, -8, 3")
        gen = cop.validate_generator("0.45*p + 0.55", 4)
        assert durante_shape_condition(sig, gen).verdict == "antistarshaped"

    @pytest.mark.parametrize("entries, verdict", [
        (["1", "0", "0"], "starshaped"),              # S = 0: nonnegative wins
        (["1", "-1/2000000000", "1/2000000000"],      # S = -5e-10 + f(p)/1e9,
         "starshaped"),                               # within the tie tolerance
        (["2", "-1", "0"], "antistarshaped"),         # S = -1
        (["3/2", "-1", "1/2"], "antistarshaped"),     # S = -1 + f(p) <= 0
    ])
    def test_sign_of_the_condition(self, entries, verdict):
        sig = signature(entries)
        gen = cop.validate_generator("p^0.5", 3)
        assert durante_shape_condition(sig, gen).verdict == verdict

    def test_sign_change_names_the_first_negative_point(self):
        # S = 1 - 2 f(p) with f(p) = p^0.5 turns negative past p = 1/4
        sig = parse_signature("1, 1, -1")
        gen = cop.validate_generator("p^0.5", 3)
        result = durante_shape_condition(sig, gen)
        witness = next(p for p in DEFAULT_GRID.points if p > 0.25)
        assert result.verdict == "inconclusive"
        assert result.notes == (f"shape condition changes sign "
                                f"(witness p={witness:.6g})")
        assert result.parameters["condition_min"] < 0.0
        assert result.parameters["condition_max"] > 0.0

    def test_condition_values_have_the_advertised_sign(self):
        sig = parse_signature("0, 1, 1, -1")
        gen = cop.validate_generator("p^0.5", 4)
        values = durante_condition_values(sig, gen,
                                          interior_points(0.0, 1.0, 65))
        assert all(v >= -1e-12 for v in values)


def _classify_diag(sig, copula):
    built = diag_system_distortion(sig, copula)
    return classify_diag(built, copula.diagonal, classify(built.h))


class TestDiagClassification:
    def test_positive_diagonal_weight_with_starshaped_diagonal(self):
        sig = parse_signature("0, 0, 0, 3, -2")
        copula = cop.jaworski(catalog.FN_DIAG_TEXT, 5)
        assert _classify_diag(sig, copula).verdict == "starshaped"

    def test_negative_diagonal_weight_flips_verdict(self):
        sig = parse_signature("0, 6, -8, 3")
        copula = cop.jaworski(catalog.MIX_DIAG_TEXT, 4)
        assert _classify_diag(sig, copula).verdict == "antistarshaped"

    def test_non_starshaped_diagonal_is_inconclusive_with_direct_flags(self):
        sig = parse_signature("0, 0, 2, -1")
        copula = cop.jaworski(catalog.QMIT_DIAG_TEXT, 4)
        result = _classify_diag(sig, copula)
        assert result.verdict == "inconclusive"
        assert result.direct is not None
        assert result.direct.dual_antistarshaped
        assert not result.direct.starshaped
        assert not result.direct.antistarshaped

    def test_classify_validates_the_system_and_its_diagonal_once_each(
            self, monkeypatch, capsys):
        calls = []
        validate = dist_mod.validate

        def counting(fn, label=None, **kwargs):
            calls.append(label)
            return validate(fn, label=label, **kwargs)

        monkeypatch.setattr(dist_mod, "validate", counting)
        code = cli.main(["classify", "--signature", "0,0,2,-1", "--copula",
                         f"diagonal:d={catalog.QMIT_DIAG_TEXT},n=4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["diag_classification"][
            "verdict"] == "inconclusive"
        assert calls == [f"system(a=0,0,2,-1; d={catalog.QMIT_DIAG_TEXT})",
                         f"diagonal {catalog.QMIT_DIAG_TEXT}"]

    def test_classify_classifies_the_system_and_its_diagonal_once_each(
            self, monkeypatch, capsys):
        # the direct flags reuse the report the classification doc was made from
        calls = []
        original = dist_mod.classify

        def counting(h, *args, **kwargs):
            calls.append(h.label)
            return original(h, *args, **kwargs)

        monkeypatch.setattr(dist_mod, "classify", counting)
        code = cli.main(["classify", "--signature", "0,0,2,-1", "--copula",
                         f"diagonal:d={catalog.QMIT_DIAG_TEXT},n=4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diag_classification"]["direct_flags"] == doc["flags"]
        assert calls == [f"system(a=0,0,2,-1; d={catalog.QMIT_DIAG_TEXT})",
                         f"diagonal {catalog.QMIT_DIAG_TEXT}"]

    def test_zero_diagonal_weight_reads_identity(self):
        sig = parse_signature("1, 0")
        copula = cop.jaworski("p^2", 2)
        assert _classify_diag(sig, copula).verdict == "identity"


class TestSeriesParallel:
    def test_independent_parallel_is_dual_power(self):
        h = parallel_distortion(cop.product(3))
        assert max_abs_diff(h.fn, dist_mod.dualpower(3.0).fn, GRID63) < 1e-12

    def test_independent_series_is_power(self):
        h = series_distortion(cop.product(3))
        assert max_abs_diff(h.fn, dist_mod.power(3.0).fn, GRID63) < 1e-12

    def test_comonotone_structures_change_nothing(self):
        for h in (parallel_distortion(cop.comonotone(4)),
                  series_distortion(cop.comonotone(4))):
            assert max_abs_diff(h.fn, dist_mod.identity().fn, GRID63) < 1e-12

    def test_coupled_lifetimes_parallel_closed_form(self):
        theta = 0.5
        h = parallel_distortion(cop.cuadras_auge(theta))
        for p in (0.1, 0.5, 0.9):
            assert h(p) == pytest.approx(
                1.0 - (1.0 - p) ** (2.0 - theta), abs=1e-12)

    def test_series_of_diagonal_copula_is_its_diagonal(self):
        handle = cop.jaworski(catalog.MIX_DIAG_TEXT, 4)
        h = series_distortion(handle)
        d = handle.diagonal.fn
        assert max_abs_diff(h.fn, d, GRID63) < 1e-12

    def test_closed_inverses_round_trip(self):
        h = parallel_distortion(cop.product(4))
        for p in (0.2, 0.6, 0.9):
            assert h.inverse_fn(h(p)) == pytest.approx(p, abs=1e-12)


class TestPreservationAdvice:
    def test_starshaped_preserves_scaled_spacings(self):
        report = classify(dist_mod.power(2.0))
        assert preservation_advice(OrderKind.TTT, report).verdict \
            == "preserved"
        assert preservation_advice(OrderKind.EW, report).verdict \
            == "not_guaranteed"
        # dual of p^2 is antistarshaped, so the mit-ratio order survives
        assert preservation_advice(OrderKind.QMIT, report).verdict \
            == "preserved"

    def test_antistarshaped_preserves_excess_wealth(self):
        report = classify(dist_mod.dualpower(2.0))
        for kind in (OrderKind.EW, OrderKind.DMRL):
            assert preservation_advice(kind, report).verdict == "preserved"
        assert preservation_advice(OrderKind.TTT, report).verdict \
            == "not_guaranteed"
        assert preservation_advice(OrderKind.QMIT, report).verdict \
            == "not_guaranteed"

    def test_ratio_orders_survive_any_distortion(self, named_distortions):
        for name, h in named_distortions.items():
            report = classify(h)
            for kind in (OrderKind.CONVEX_TRANSFORM, OrderKind.STAR):
                assert preservation_advice(kind, report).verdict \
                    == "preserved", name

    def test_advice_json(self):
        report = classify(dist_mod.identity())
        doc = preservation_advice(OrderKind.TTT, report).to_json()
        assert set(doc) == {"order", "verdict", "reason"}
