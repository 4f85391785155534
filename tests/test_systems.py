"""System signatures, closed-form distortions, and shape corollaries."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from stochorder import catalog, cli, funcalc
from stochorder import copulas as cop
from stochorder import distortions as dist_mod
from stochorder import systems as sys_mod
from stochorder.distortions import classify
from stochorder.numerics import DEFAULT_GRID, elementwise
from stochorder.orders import OrderKind
from stochorder.systems import (
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

from helpers import GENERATORS, GRID63, interior_points, max_abs_diff


class TestSignature:
    def test_integer_entries_stay_exact(self):
        sig = signature([2, 0, -2, 1])
        assert sig.n == 4
        assert sig.a == (Fraction(2), Fraction(0), Fraction(-2), Fraction(1))

    def test_fraction_strings(self):
        sig = parse_signature("1/3, 1/3, 1/3")
        assert sig.a == (Fraction(1, 3),) * 3
        assert sum(sig.a) == 1

    @pytest.mark.parametrize("entries", [[0.3, 0.7], [0.5, 0.5], [Fraction(1, 2), 0.5],
                                         [True, 0]])
    def test_float_entries_are_refused(self, entries):
        # a float's sum to 1 holds only up to rounding, so no float enters
        with pytest.raises(SignatureError) as exc:
            signature(entries)
        bad = next(e for e in entries if isinstance(e, (float, bool)))
        assert str(exc.value) == (f"entry {bad!r} is not an int, a Fraction "
                                  "or rational text")

    def test_exact_sum_must_be_one(self):
        with pytest.raises(SignatureError):
            signature([1, 1])

    def test_decimal_text_sums_exactly(self):
        assert parse_signature("0.3, 0.7").a == (Fraction(3, 10), Fraction(7, 10))
        with pytest.raises(SignatureError) as exc:
            parse_signature("0.3, 0.8")
        assert str(exc.value) == "entries must sum to 1, got 11/10"

    @pytest.mark.parametrize("text, position", [
        ("0,,0,1", 2), ("2,0,,-2,1", 3), ("0,0,1,", 4), (",0,1", 1),
    ])
    def test_empty_entry_is_refused_by_position(self, text, position):
        # dropping it would change n without a word
        with pytest.raises(SignatureError) as exc:
            parse_signature(text)
        assert str(exc.value) == f"bad signature {text!r}: entry {position} is empty"

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

    @pytest.mark.parametrize("text, doc", [
        ("0,1,0", {"verdict": "starshaped_any_f", "description": "starshaped_any_f",
                   "parameters": {"a2": "1"},
                   "notes": "a3=0: condition reduces to a2 >= 0"}),
        ("2,-1,0", {"verdict": "antistarshaped_any_f",
                    "description": "antistarshaped_any_f", "parameters": {"a2": "-1"},
                    "notes": "a3=0: condition reduces to a2 <= 0"}),
        # omega = 1 sits at the top of f's range: S >= 0 for every generator
        ("0,2,-1", {"verdict": "starshaped_any_f", "description": "starshaped_any_f",
                    "parameters": {"omega": "1"}}),
    ])
    def test_corollary_documents(self, text, doc):
        assert classify_3component(parse_signature(text)).to_json() == doc


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

    @pytest.mark.parametrize("text, doc", [
        # irrational roots (1 -+ sqrt 7)/6, the larger one inside (0, 1)
        ("1,-1,-1,2", {"verdict": "starshaped_if",
                       "description": "starshaped if f(0) >= 0.60762521851076512",
                       "threshold": "0.60762521851076512",
                       "parameters": {"delta": "7", "x1": "-0.2742918851774318",
                                      "x2": "0.60762521851076512"}}),
        # both roots <= 0, and both >= 1: S keeps one sign on [f(0), 1]
        ("-3,1,2,1", {"verdict": "starshaped_any_f", "description": "starshaped_any_f",
                      "parameters": {"delta": "1", "x1": "-1", "x2": "-1/3"}}),
        ("-4,12,-9,2", {"verdict": "starshaped_any_f",
                        "description": "starshaped_any_f",
                        "parameters": {"delta": "9", "x1": "1", "x2": "2"}}),
    ])
    def test_root_positions(self, text, doc):
        assert classify_4component(parse_signature(text)).to_json() == doc


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
        # the 65 cross-check points in one array call per non-zero entry
        # (3 of them); one validation, of h_T
        (lambda: durante_system_distortion(parse_signature("2,0,-2,1"),
                                           cop.durante("p^0.5", 4)),
         1, 3),
        # one array call per non-zero entry (2 of them)
        (lambda: diag_system_distortion(parse_signature("0,0,0,3,-2"),
                                        cop.jaworski("2*p^2 - p^3", 5)),
         1, 2),
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

    def test_closed_forms_take_rational_text(self):
        # h_T = 1/5 p + 1/2 p^2 + 3/10 p^3 under f(p) = p
        sig = signature(["1/5", "1/2", "3/10"])
        built = durante_system_distortion(sig, cop.durante("p", 3))
        assert built.closed_form == "1/5*p + 1/2*p*f(p) + 3/10*p*f(p)^2"
        assert built.h(0.5) == pytest.approx(0.2625, abs=1e-15)


class TestShapeCondition:
    def test_unconditional_verdicts_hold_for_every_generator(self,
                                                             named_signatures):
        rules = {
            "two_parallel_pairs": "antistarshaped",
            "one_of_two_pairs": "starshaped",
        }
        for sig_name, expected in rules.items():
            sig = named_signatures[sig_name]
            for gen_name, text in GENERATORS.items():
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

        def counting_diagonal(d, n):
            calls.append(f"diagonal {d}")
            return validate_diagonal(d, n)

        validate_diagonal = cop.validate_diagonal
        monkeypatch.setattr(dist_mod, "validate", counting)
        monkeypatch.setattr(cop, "validate_diagonal", counting_diagonal)
        code = cli.main(["classify", "--signature", "0,0,2,-1", "--copula",
                         f"diagonal:d={catalog.QMIT_DIAG_TEXT},n=4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["diag_classification"][
            "verdict"] == "inconclusive"
        # the diagonal's shape is read from the sample its copula check took
        assert calls == [f"diagonal {catalog.QMIT_DIAG_TEXT}",
                         f"system(a=0,0,2,-1; d={catalog.QMIT_DIAG_TEXT})"]

    def test_classify_samples_the_diagonal_twice(self):
        # once for the copula's checks, once in alpha*p + beta*d(p); the 16
        # calls on 65 points are the crosscheck's boundary sum
        inner, _ = funcalc.coerce_fn("p^1.5", "d")
        sizes = []

        @elementwise
        def d(p):
            sizes.append(np.size(p))
            return inner(p)

        handle = cop.jaworski(d, 4)
        built = system_distortion(parse_signature("0,0,2,-1"), handle)
        doc = cli._system_doc(built, handle)
        assert doc["diag_classification"]["verdict"] == "starshaped"
        assert Counter(sizes) == {513: 2, 65: 16}

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

    CLOSED = ([cop.product(n) for n in (2, 3, 4)] + [cop.comonotone(n) for n in (2, 3, 4)]
              + [cop.cuadras_auge(theta) for theta in (0.3, 0.5, 0.8)])
    POINTS = np.concatenate([np.linspace(0.0, 1.0, 4097),
                             np.random.default_rng(0).random(4000),
                             10.0 ** -np.arange(1, 17), 1.0 - 10.0 ** -np.arange(1, 17)])

    @pytest.mark.parametrize("handle", CLOSED, ids=lambda h: h.label)
    def test_parallel_is_the_dual_of_series_bit_for_bit(self, handle):
        h = parallel_distortion(handle)
        d = dist_mod.dual(series_distortion(handle))
        p = self.POINTS
        assert h.label == f"parallel({handle.label})"
        assert h.strictly_increasing is d.strictly_increasing
        assert h.fn(p).tobytes() == d.fn(p).tobytes()
        assert dist_mod.co_inverse(h, p).tobytes() == dist_mod.co_inverse(d, p).tobytes()
        # and the closed forms are those of 1 - C(1-p,...,1-p): h is
        # 1 - (1-p)^k with co-inverse p^(1/k), or the identity
        assert h.fn(p).tobytes() == (1.0 - cop.cop_eval(handle, [1.0 - p] * handle.n)).tobytes()
        if handle.kind == "comonotone":
            assert dist_mod.co_inverse(h, p).tobytes() == p.tobytes()
        else:
            k = handle.n if handle.kind == "product" else 2.0 - handle.theta
            root = np.array([math.pow(v, 1.0 / k) for v in p.tolist()])
            assert h.co_inverse_fn(p).tobytes() == root.tobytes()
            assert h.inverse_fn(p).tobytes() == (1.0 - np.array(
                [math.pow(v, 1.0 / k) for v in (1.0 - p).tolist()])).tobytes()

    @pytest.mark.parametrize("handle", [
        cop.frechet(0.4), cop.durante(catalog.DEFAULT_GENERATOR_TEXT, 3),
        cop.jaworski(catalog.MIX_DIAG_TEXT, 4)], ids=lambda h: h.kind)
    def test_root_solved_parallel_is_the_dual_of_series(self, handle):
        h = parallel_distortion(handle)
        d = dist_mod.dual(series_distortion(handle))
        assert h.inverse_fn is None and h.co_inverse_fn is None
        assert h.strictly_increasing is d.strictly_increasing
        p = np.array(GRID63)
        assert h.fn(p).tobytes() == d.fn(p).tobytes()
        assert dist_mod.co_inverse(h, p).tobytes() == dist_mod.co_inverse(d, p).tobytes()

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    def test_series_cuadras_auge_closed_co_inverse_matches_the_root_solve(self, theta):
        h = series_distortion(cop.cuadras_auge(theta))
        solved = replace(h, inverse_fn=None, co_inverse_fn=None)
        p = np.array(interior_points(0.0, 1.0, 999))
        assert np.max(np.abs(dist_mod.co_inverse(h, p)
                             - dist_mod.co_inverse(solved, p))) <= 1e-12


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

    # each order's theorem, as (the flags h needs, the reason when it has
    # them, the reason when it lacks one)
    THEOREMS = {
        OrderKind.TTT: (("starshaped",), "h is starshaped",
                        "requires a starshaped h"),
        OrderKind.EW: (("antistarshaped", "strictly_increasing"),
                       "h is antistarshaped and strictly increasing",
                       "requires an antistarshaped, strictly increasing h"),
        OrderKind.DMRL: (("antistarshaped", "strictly_increasing"),
                         "h is antistarshaped and strictly increasing",
                         "requires an antistarshaped, strictly increasing h"),
        OrderKind.QMIT: (("dual_antistarshaped", "strictly_increasing"),
                         "h is strictly increasing with antistarshaped dual",
                         "requires a strictly increasing h with antistarshaped dual"),
        OrderKind.CONVEX_TRANSFORM: ((), "invariant under any common distortion", None),
        OrderKind.STAR: ((), "invariant under any common distortion", None),
    }
    FLAGS = ("starshaped", "antistarshaped", "dual_antistarshaped",
             "strictly_increasing")

    @pytest.mark.parametrize("kind", list(OrderKind))
    @pytest.mark.parametrize("bits", range(16))
    def test_advice_for_every_combination_of_the_theorem_flags(self, kind, bits):
        flags = {name: bool(bits >> i & 1) for i, name in enumerate(self.FLAGS)}
        report = dist_mod.ShapeReport(convex=False, concave=False, **flags)
        needs, because, requires = self.THEOREMS[kind]
        advice = preservation_advice(kind, report)
        if all(flags[name] for name in needs):
            assert (advice.verdict, advice.reason) == ("preserved", because)
        else:
            assert (advice.verdict, advice.reason) == ("not_guaranteed", requires)
        assert advice.order is kind
