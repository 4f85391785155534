"""Exchangeable copula construction, validation, and cross-form equivalences."""

from __future__ import annotations

import itertools
import math

import pytest

from stochorder import catalog
from stochorder.copulas import (
    MAX_DIAGONAL_DIMENSION,
    CopulaValidationError,
    comonotone,
    cop_eval,
    cuadras_auge,
    durante,
    frechet,
    jaworski,
    parse_copula_spec,
    product,
    validate_diagonal,
    validate_generator,
)
from stochorder.numerics import validation_points

from helpers import GRID63, GRID65, boundary_section, interior_points, jaworski_f


class TestGeneratorValidation:
    def test_square_root_accepted(self):
        gen = validate_generator("p^0.5", 3)
        assert gen.n == 3
        assert gen.fn(0.25) == 0.5

    def test_constant_one_accepted(self):
        # f = 1 gives the comonotone copula
        gen = validate_generator("p^0", 2)
        handle = durante("p^0", 2)
        for u, v in ((0.2, 0.7), (0.9, 0.4)):
            assert cop_eval(handle, (u, v)) == pytest.approx(
                min(u, v), abs=1e-15)
        assert gen.fn(0.1) == 1.0

    def test_ratio_must_decrease(self):
        with pytest.raises(CopulaValidationError):
            validate_generator("p^2", 2)

    def test_value_at_one_must_be_one(self):
        with pytest.raises(CopulaValidationError):
            validate_generator("p/2", 2)

    def test_must_be_increasing(self):
        with pytest.raises(CopulaValidationError):
            validate_generator("1 - p/2", 2)


class TestDiagonalValidation:
    def test_cubic_accepted(self):
        d = validate_diagonal(catalog.FN_DIAG_TEXT, 2)
        assert d.fn(0.5) == 0.375

    def test_must_stay_below_identity(self):
        with pytest.raises(CopulaValidationError):
            validate_diagonal("min(p + 1/10, 1)", 2)

    def test_slope_cap_scales_with_dimension(self):
        # d = p^3 has slope 3 near 1: too steep for n=2, fine for n=3
        with pytest.raises(CopulaValidationError):
            validate_diagonal("p^3", 2)
        assert validate_diagonal("p^3", 3).n == 3

    def test_endpoint_values_enforced(self):
        with pytest.raises(CopulaValidationError):
            validate_diagonal("p/2", 2)

    def test_dimension_cap(self):
        with pytest.raises(CopulaValidationError):
            validate_diagonal("p^2", MAX_DIAGONAL_DIMENSION + 1)

    def test_jaworski_f_closed_form(self):
        d = validate_diagonal("p^2", 2)
        assert jaworski_f(d, 0.5) == pytest.approx(0.75, abs=1e-15)


class TestDuranteForm:
    def test_known_product_value(self):
        handle = durante("p^0.5", 2)
        assert cop_eval(handle, (0.4, 0.9)) == pytest.approx(
            0.4 * math.sqrt(0.9), abs=1e-15)

    def test_rearrangement_invariance(self):
        handle = durante("p^0.5", 3)
        base = cop_eval(handle, (0.2, 0.5, 0.8))
        for perm in itertools.permutations((0.2, 0.5, 0.8)):
            assert cop_eval(handle, perm) == pytest.approx(base, abs=1e-15)

    def test_diagonal_closed_form(self):
        handle = durante("p^0.5", 4)
        for p in GRID63:
            expected = p * (p ** 0.5) ** 3
            assert cop_eval(handle, (p, p, p, p)) == pytest.approx(
                expected, abs=1e-14)

    def test_identity_generator_is_independence(self):
        handle = durante("p", 3)
        for pt in ((0.2, 0.5, 0.8), (0.9, 0.9, 0.1)):
            assert cop_eval(handle, pt) == pytest.approx(
                pt[0] * pt[1] * pt[2], abs=1e-15)


class TestJaworskiForm:
    DIAGONALS = (
        (catalog.FN_DIAG_TEXT, 2),
        (catalog.FN_DIAG_TEXT, 5),
        (catalog.MIX_DIAG_TEXT, 4),
        (catalog.QMIT_DIAG_TEXT, 4),
        ("p^2", 2),
    )

    @pytest.mark.parametrize("text,n", DIAGONALS)
    def test_diagonal_section_is_exact(self, text, n):
        handle = jaworski(text, n)
        d = handle.diagonal.fn
        for p in GRID65:
            assert cop_eval(handle, (p,) * n) == pytest.approx(
                d(p), abs=1e-12)

    def test_two_dimensional_closed_form(self):
        # n=2 construction reduces to min(u, v, (d(u)+d(v))/2)
        handle = jaworski(catalog.FN_DIAG_TEXT, 2)
        d = handle.diagonal.fn
        worst = 0.0
        for u in interior_points(0.0, 1.0, 64):
            for v in interior_points(0.0, 1.0, 64):
                closed = min(u, v, 0.5 * (d(u) + d(v)))
                worst = max(worst, abs(cop_eval(handle, (u, v)) - closed))
        assert worst < 1e-12

    def test_exchangeability(self):
        handle = jaworski(catalog.MIX_DIAG_TEXT, 4)
        pt = (0.2, 0.4, 0.6, 0.8)
        base = cop_eval(handle, pt)
        for perm in itertools.permutations(pt):
            assert cop_eval(handle, perm) == pytest.approx(base, abs=1e-12)


class TestBoundarySections:
    def make_handles(self):
        return (
            product(3),
            comonotone(4),
            durante("p^0.5", 4),
            jaworski(catalog.FN_DIAG_TEXT, 5),
            cuadras_auge(0.35),
            frechet(0.6),
        )

    def test_closed_forms_match_generic_evaluation(self):
        for handle in self.make_handles():
            n = handle.n
            for i in range(1, n + 1):
                for p in interior_points(0.0, 1.0, 33):
                    point = tuple(p if j < i else 1.0 for j in range(n))
                    assert boundary_section(handle, p, i) == pytest.approx(
                        cop_eval(handle, point), abs=1e-12), (handle.label, i)

    def test_first_section_is_the_margin(self):
        for handle in self.make_handles():
            for p in (0.2, 0.7):
                assert boundary_section(handle, p, 1) == pytest.approx(
                    p, abs=1e-12)


class TestReferenceFamilies:
    def test_cuadras_auge_interpolates(self):
        handle = cuadras_auge(0.5)
        u, v = 0.4, 0.9
        expected = min(u, v) ** 0.5 * (u * v) ** 0.5
        assert cop_eval(handle, (u, v)) == pytest.approx(expected, abs=1e-15)

    def test_cuadras_auge_equals_power_generator_form(self):
        theta = 0.35
        ca = cuadras_auge(theta)
        du = durante(f"p^{1.0 - theta!r}", 2)
        for u in GRID63:
            for v in (0.1, 0.45, 0.8):
                assert cop_eval(ca, (u, v)) == pytest.approx(
                    cop_eval(du, (u, v)), abs=1e-12)

    def test_frechet_equals_affine_generator_form(self):
        gamma = 0.6
        fr = frechet(gamma)
        du = durante(f"{gamma!r} + {1.0 - gamma!r}*p", 2)
        for u in GRID63:
            for v in (0.2, 0.55, 0.9):
                assert cop_eval(fr, (u, v)) == pytest.approx(
                    cop_eval(du, (u, v)), abs=1e-12)

    def test_parameter_ranges(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(CopulaValidationError):
                cuadras_auge(bad)
            with pytest.raises(CopulaValidationError):
                frechet(bad)

    def test_zero_coordinate_collapses(self):
        assert cop_eval(cuadras_auge(0.4), (0.0, 0.7)) == 0.0


AXIOM_TOL = 1e-9


def copula_spotcheck(handle) -> dict:
    """Numerical sanity for copula axioms on a coarse 17-point grid.

    Checks uniform margins, coordinate monotonicity, exchangeability under
    a few permutations, and (n=2) nonnegative rectangle volumes.  Returns a
    report dict; failures are listed, not raised.
    """
    n = handle.n
    pts = validation_points(17)
    failures = []
    checks = 0

    for slot in range(n):
        for p in pts:
            point = [1.0] * n
            point[slot] = p
            checks += 1
            v = cop_eval(handle, point)
            if abs(v - p) > AXIOM_TOL:
                failures.append(f"margin slot {slot}: C={v!r} at p={p}")

    levels = [0.25, 0.75, 1.0]
    for slot in range(n):
        for level in levels:
            prev = None
            for p in pts:
                point = [level] * n
                point[slot] = p
                v = cop_eval(handle, point)
                checks += 1
                if prev is not None and v < prev - AXIOM_TOL:
                    failures.append(
                        f"coordinate {slot} decreasing at p={p} (level {level})")
                prev = v

    sample = [pts[1], pts[len(pts) // 2], pts[-2]]
    base_point = (sample * ((n // 3) + 1))[:n]
    base_val = cop_eval(handle, base_point)
    for shift in range(1, n):
        rotated = base_point[shift:] + base_point[:shift]
        checks += 1
        if abs(cop_eval(handle, rotated) - base_val) > AXIOM_TOL:
            failures.append(f"not exchangeable under rotation {shift}")

    if n == 2:
        for a1, b1 in zip(pts, pts[1:]):
            for a2, b2 in zip(pts, pts[1:]):
                vol = (cop_eval(handle, (b1, b2)) - cop_eval(handle, (a1, b2))
                       - cop_eval(handle, (b1, a2)) + cop_eval(handle, (a1, a2)))
                checks += 1
                if vol < -AXIOM_TOL:
                    failures.append(
                        f"negative rectangle volume {vol!r} at [{a1},{b1}]x[{a2},{b2}]")
    return {"ok": not failures, "failures": failures, "checks": checks,
            "label": handle.label}


class TestSpotcheck:
    @pytest.mark.parametrize("make", [
        lambda: product(3),
        lambda: comonotone(4),
        lambda: durante("p^0.5", 3),
        lambda: jaworski(catalog.FN_DIAG_TEXT, 2),
        lambda: cuadras_auge(0.5),
        lambda: frechet(0.4),
    ])
    def test_all_reference_kinds_pass(self, make):
        report = copula_spotcheck(make())
        assert report["ok"], report["failures"]
        assert report["checks"] > 0


class TestSpecParsing:
    def test_product(self):
        handle = parse_copula_spec("product:3")
        assert handle.kind == "product" and handle.n == 3

    def test_comonotone(self):
        assert parse_copula_spec("comonotone:2").kind == "comonotone"

    def test_durante(self):
        handle = parse_copula_spec("durante: f=p^0.5, n=4")
        assert handle.kind == "durante" and handle.n == 4

    def test_diagonal(self):
        handle = parse_copula_spec(
            f"diagonal: d={catalog.FN_DIAG_TEXT}, n=5")
        assert handle.kind == "jaworski" and handle.n == 5

    def test_cuadras_auge(self):
        handle = parse_copula_spec("cuadras-auge: theta=0.5")
        assert handle.theta == 0.5

    def test_frechet(self):
        assert parse_copula_spec("frechet: gamma=0.25").gamma == 0.25

    @pytest.mark.parametrize("build, value", [
        (cuadras_auge, 0.123456789012), (cuadras_auge, 0.5),
        (frechet, 0.987654321098), (frechet, 0.25),
    ])
    def test_labels_keep_every_digit(self, build, value):
        # the label is the spec that builds the copula again
        handle = build(value)
        again = parse_copula_spec(handle.label)
        assert again.label == handle.label
        assert again == handle

    def test_expression_commas_are_respected(self):
        handle = parse_copula_spec("diagonal: d=min(p, 2*p^2), n=2")
        assert handle.n == 2

    @pytest.mark.parametrize("text", [
        "durante: n=3",
        "diagonal: d=p^2",
        "cuadras-auge: 0.5",
        "unknown:2",
        "durante: f=p^2, n=2",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(CopulaValidationError):
            parse_copula_spec(text)

    @pytest.mark.parametrize("text, name", [
        ("durante:f=p^0.5,n=2,f=p", "f"),
        ("diagonal: d=p^2, d=p^3, n=2", "d"),
        ("diagonal: n=2, d=p^2, n=3", "n"),
    ])
    def test_repeated_field_is_refused(self, text, name):
        # the last one would silently win
        with pytest.raises(CopulaValidationError) as exc:
            parse_copula_spec(text)
        assert str(exc.value) == f"field {name!r} given more than once in {text!r}"
