"""Quadrature, bisection, differentiation, and grids."""

from __future__ import annotations

import math

import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from stochorder.numerics import (
    BracketError,
    DEFAULT_GRID,
    Grid,
    Tolerance,
    derivative,
    edge_ladder_integral,
    integrate,
    monotone_inverse,
    uniform_grid,
)

from helpers import interior_points


class TestIntegrate:
    def test_cubic_is_near_exact(self):
        assert integrate(lambda t: 4.0 * t ** 3, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-13)

    def test_exponential(self):
        assert integrate(math.exp, 0.0, 2.0) == pytest.approx(
            math.e ** 2 - 1.0, rel=1e-10)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.exp, 2.0, 0.0)

    @pytest.mark.parametrize("fn", [
        lambda t: math.log(15.0 / 8.0 + t),
        lambda t: math.exp(t * t),
        lambda t: 1.0 / (1.0 + t * t),
    ])
    def test_against_scipy_quad(self, fn):
        # independent quadrature route for the same integrand
        expected, _ = scipy.integrate.quad(fn, 0.0, 1.0, epsabs=1e-12)
        assert integrate(fn, 0.0, 1.0) == pytest.approx(expected, abs=1e-9)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linearity(self, a, b):
        f = lambda t: t * t
        g = math.exp
        combined = integrate(lambda t: a * f(t) + b * g(t), 0.0, 1.0)
        separate = a * integrate(f, 0.0, 1.0) + b * integrate(g, 0.0, 1.0)
        assert combined == pytest.approx(
            separate, abs=1e-8 * (1.0 + abs(a) + abs(b)))

    def test_rejects_nonfinite_integrand(self):
        with pytest.raises(Exception):
            integrate(lambda t: float("nan"), 0.0, 1.0)


class TestEdgeLadder:
    def test_log_singularity_at_upper_end(self):
        # integral of -ln(1-t) over [0, 1] is exactly 1
        value, rungs = edge_ladder_integral(
            lambda t: -math.log1p(-t), 0.0, 1.0 - 1e-12, side="hi")
        assert value == pytest.approx(1.0, abs=1e-8)
        assert len(rungs) > 10

    def test_inverse_sqrt_singularity_at_lower_end(self):
        # integral of t^(-1/2) over [eps, 1] -> 2 as eps -> 0
        value, _ = edge_ladder_integral(
            lambda t: t ** -0.5, 1e-12, 1.0, side="lo")
        assert value == pytest.approx(2.0, abs=1e-5)

    def test_degenerate_interval(self):
        value, rungs = edge_ladder_integral(math.exp, 0.5, 0.5, side="hi")
        assert value == 0.0 and rungs == []

    def test_smooth_case_matches_plain_quadrature(self):
        value, _ = edge_ladder_integral(math.exp, 0.2, 0.9, side="hi")
        assert value == pytest.approx(integrate(math.exp, 0.2, 0.9), abs=1e-10)


class TestMonotoneInverse:
    def test_square_root_recovered(self):
        got = monotone_inverse(lambda x: x * x, 0.49, 0.0, 1.0)
        assert got == pytest.approx(0.7, abs=1e-10)

    def test_outside_range_raises(self):
        with pytest.raises(BracketError):
            monotone_inverse(lambda x: x, 2.0, 0.0, 1.0)

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            monotone_inverse(lambda x: x, 0.5, 1.0, 1.0)

    @given(k=st.floats(0.3, 4.0), p=st.floats(0.01, 0.99))
    def test_power_round_trip(self, k, p):
        got = monotone_inverse(lambda x: x ** k, p, 0.0, 1.0)
        assert got == pytest.approx(p ** (1.0 / k), abs=1e-9)


class TestDerivative:
    def test_central_difference(self):
        assert derivative(math.exp, 0.5) == pytest.approx(
            math.exp(0.5), abs=1e-9)

    def test_one_sided_at_lower_edge(self):
        assert derivative(lambda x: x * x, 0.0, lo=0.0) == pytest.approx(
            0.0, abs=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            derivative(math.exp, 0.5, step=0.0)


class TestGrids:
    def test_uniform_grid_endpoints_respect_margin(self):
        grid = uniform_grid(512, edge_margin=1e-3)
        assert len(grid.points) == 512
        assert grid.points[0] == pytest.approx(1e-3, abs=1e-15)
        assert grid.points[-1] == pytest.approx(1.0 - 1e-3, abs=1e-15)

    def test_default_grid_shape(self):
        assert len(DEFAULT_GRID.points) == 512
        assert DEFAULT_GRID.describe().startswith("512:")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            uniform_grid(8)

    def test_non_increasing_points_rejected(self):
        pts = tuple(interior_points(0.0, 1.0, 32))
        bad = pts[:16] + (pts[15],) + pts[16:]
        with pytest.raises(ValueError):
            Grid(points=bad)

    @pytest.mark.parametrize("lo, hi, margin", [
        (-1.0, 1.0, 1e-3), (0.0, 2.0, 1e-3),   # beyond an end
        (0.0, 0.5, 0.0), (0.5, 1.0, 0.0),      # on an end
    ])
    def test_points_outside_the_open_unit_interval_rejected(self, lo, hi, margin):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            uniform_grid(32, lo=lo, hi=hi, edge_margin=margin)

    def test_zero_margin_inside_the_interval_is_a_grid(self):
        grid = uniform_grid(199, lo=0.002, hi=0.2, edge_margin=0.0)
        assert grid.describe() == "199:0.002:0.2"

