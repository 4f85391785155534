"""Quadrature, the monotone root solve, differentiation, and grids."""

from __future__ import annotations

import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from stochorder import numerics
from stochorder.numerics import (
    BracketError,
    DEFAULT_GRID,
    Grid,
    derivative,
    edge_ladder_integral,
    integrate,
    monotone_inverse,
    uniform_grid,
    validation_points,
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

    def test_nan_target_raises(self):
        with pytest.raises(BracketError, match=r"target nan outside"):
            monotone_inverse(lambda x: x, math.nan, 0.0, 1.0)

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            monotone_inverse(lambda x: x, 0.5, 1.0, 1.0)

    @given(k=st.floats(0.3, 4.0), p=st.floats(0.01, 0.99))
    def test_power_round_trip(self, k, p):
        got = monotone_inverse(lambda x: x ** k, p, 0.0, 1.0)
        assert got == pytest.approx(p ** (1.0 / k), abs=1e-9)

    def test_non_finite_value_inside_the_bracket_raises(self):
        # the ends are finite, so only a value inside the bracket can show it
        fn = lambda x: math.nan if 0.3 < x < 0.6 else x
        with pytest.raises(BracketError, match=r"nan at x=0\.5 inside the bracket"):
            monotone_inverse(fn, 0.35, 0.0, 1.0)

    def test_step_cap_raises_instead_of_returning_an_open_end(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_ROOT_STEPS", 3)
        step = lambda x: 0.0 if x < 0.3 else 1.0
        with pytest.raises(BracketError,
                           match=r"still open after 3 steps on \[0\.25, 0\.375\]"):
            monotone_inverse(step, 0.5, 0.0, 1.0)


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

    def test_validation_points_are_built_once_per_count(self):
        pts = validation_points()
        assert pts is validation_points()
        assert isinstance(pts, tuple) and len(pts) == 513
        assert pts[0] == 0.0 and pts[256] == 0.5 and pts[-1] == 1.0
        assert validation_points(17) is validation_points(17) != pts

    def test_validation_points_of_a_large_count_are_not_held(self):
        # a table asked for from outside is built per call; kept, every
        # count a process asked for would stay held until it exits
        count = 100_003
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(validation_points(count)) == count
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 100_000  # the tuple and its floats take ~3.2 MB
        # the library's own counts stay built once
        assert all(validation_points(c) is validation_points(c) for c in (513, 257, 65))

    def test_grids_beyond_the_cache_are_let_go(self):
        grid = uniform_grid(4099, edge_margin=0.0123)
        gone = weakref.ref(grid)
        del grid
        for count in range(20, 84):
            uniform_grid(count, edge_margin=0.0123)
        gc.collect()
        assert gone() is None
        # the default grid is kept whatever else was asked for, and the
        # grid asked for last is shared
        assert uniform_grid() is uniform_grid(count=512, lo=0.0) is DEFAULT_GRID
        assert uniform_grid(83, edge_margin=0.0123) is uniform_grid(83, edge_margin=0.0123)

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

    def test_one_shared_grid_per_argument_tuple(self):
        assert uniform_grid(512) is uniform_grid(512)
        # however the arguments are passed
        assert uniform_grid() is uniform_grid(count=512, lo=0.0) is DEFAULT_GRID
        assert uniform_grid(64, edge_margin=0.01) is not uniform_grid(64)

    def test_points_are_one_read_only_float64_array(self):
        given = np.array(interior_points(0.0, 1.0, 32))
        grid = Grid(points=given)
        given[0] = 0.5  # the grid holds a copy
        assert grid.points.dtype == np.float64 and grid.points[0] < 0.5
        for points in (grid.points, DEFAULT_GRID.points):
            with pytest.raises(ValueError, match="read-only"):
                points[0] = 0.25

    @pytest.mark.parametrize("count", [-1, 0, 15])
    def test_count_below_sixteen_is_refused_before_the_grid_is_built(self, count):
        with pytest.raises(ValueError, match=rf"^grid needs at least 16 points, got {count}$"):
            uniform_grid(count)

    def test_non_integer_count_is_refused_whether_or_not_its_grid_is_cached(self):
        # 700.0 == 700, True == 1 and 512.0 == 512 (built at import) as keys
        # of an untyped cache; 700 is built between the two rounds
        for _ in range(2):
            for count in (700.0, True, 512.0, np.float64(700.0)):
                with pytest.raises(ValueError, match="^grid point count must be an "
                                   f"integer, got {re.escape(repr(count))}$"):
                    uniform_grid(count)
            assert uniform_grid(700).count == 700

    @pytest.mark.parametrize("name, value", [
        ("lo", -math.inf), ("hi", math.nan), ("edge_margin", math.inf),
        ("edge_margin", math.nan), ("edge_margin", -math.inf),
    ])
    def test_non_finite_parameter_is_refused_by_name(self, name, value):
        # refused before np.linspace, which would warn about the inf or nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^grid {name} must be finite, got {value!r}$"):
                uniform_grid(32, **{name: value})

    @pytest.mark.parametrize("args, message", [
        (dict(lo=1e308, edge_margin=1e308), "grid lo + edge_margin must be finite, got inf"),
        (dict(hi=-1e308, edge_margin=1e308), "grid hi - edge_margin must be finite, got -inf"),
        (dict(lo=-1e308, hi=1e308, edge_margin=0.0),
         "grid span hi - lo - 2*edge_margin must be finite, got inf"),
        (dict(lo=0.5, hi=0.4),
         "grid lo + edge_margin (0.501) must be below hi - edge_margin (0.399)"),
        (dict(lo=0.3, hi=0.5, edge_margin=0.1),
         "grid lo + edge_margin (0.4) must be below hi - edge_margin (0.4)"),
    ])
    def test_overflowing_or_reversed_ends_are_refused_by_name(self, args, message):
        # finite arguments whose grid ends overflow or cross: refused before
        # np.linspace, which would warn and build nan or decreasing points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                uniform_grid(32, **args)

    def test_count_above_the_bound_is_refused_before_the_grid_is_built(self):
        count = numerics.MAX_GRID_COUNT + 1
        with pytest.raises(ValueError, match=f"^grid needs at most {count - 1} points, got {count}$"):
            uniform_grid(count)


    @pytest.mark.parametrize("name, value, shown", [
        ("lo", 10 ** 400, "inf"), ("hi", -10 ** 400, "-inf"),
        ("edge_margin", 10 ** 400, "inf"),
    ], ids=["lo", "hi", "edge_margin"])
    def test_integer_too_large_for_a_float_is_refused_by_name(self, name, value, shown):
        # an input error naming the parameter, not an OverflowError
        with pytest.raises(ValueError, match=f"^grid {name} must be finite, got {shown}$"):
            uniform_grid(32, **{name: value})


class TestTolerance:
    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, math.inf, 0.0, "1e-8"],
                             ids=["huge", "huge-negative", "inf", "zero", "string"])
    def test_value_that_is_no_positive_finite_float_is_refused_by_name(self, name, value):
        # an integer too large for a float too: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            numerics.Tolerance(**{name: value})

    @pytest.mark.parametrize("value, shown", [
        (10 ** 400, "inf"), (-10 ** 400, "-inf"), (0, "0.0"), ("1e-8", "'1e-8'"),
    ], ids=["huge", "huge-negative", "zero", "string"])
    def test_refused_value_is_shown_as_uniform_grid_shows_it(self, value, shown):
        # a number as the float it reads as, not the whole 401-digit integer
        with pytest.raises(numerics.InputError) as exc:
            numerics.Tolerance(abs_tol=value)
        assert str(exc.value) == f"abs_tol must be positive and finite, got {shown}"

    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_refused_by_name(self, name, value):
        # True is an int to isinstance, but no tolerance
        with pytest.raises(numerics.InputError) as exc:
            numerics.Tolerance(**{name: value})
        assert str(exc.value) == f"{name} must be positive and finite, got {value!r}"


class TestSample:
    """numerics.sample: one call, then finite, end-value and step checks in
    that order, each fault in its one message form."""

    PTS = (0.0, 0.25, 0.5, 0.75, 1.0)

    @staticmethod
    def _refusal(values, **kwargs):
        table = dict(zip(TestSample.PTS, values))
        with pytest.raises(numerics.InputError) as exc:
            numerics.sample(lambda p: table[p], TestSample.PTS, numerics.InputError,
                            "lbl", "g", **kwargs)
        return str(exc.value)

    def test_finite_is_checked_before_ends_and_steps(self):
        assert self._refusal([0.5, 0.2, math.nan, 0.1, 1.0],
                             ends=((0, 0.0),)) == "lbl: g(0.5) = nan, not finite"

    def test_ends_are_checked_before_steps_in_their_order(self):
        assert self._refusal([0.5, 0.2, 0.3, 0.1, 0.5], ends=((-1, 1.0), (0, 0.0))) \
            == "lbl: g(1.0) = 0.5, expected 1.0"

    def test_first_drop_past_the_slack_is_named(self):
        # a drop of 1e-9 is within the default slack, SCAN_TIE_TOL
        dip = 0.3 - 1e-9
        values = [0.0, 0.3, dip, 0.1, 1.0]
        assert self._refusal(values) == f"lbl: g decreasing on [0.5, 0.75] ({dip!r} -> 0.1)"
        assert self._refusal(values, step_slack=1e-10) == \
            f"lbl: g decreasing on [0.25, 0.5] (0.3 -> {dip!r})"

    def test_held_point_takes_part_in_the_steps_only(self):
        calls = []

        def fn(x):
            calls.append(np.array(x, dtype=float))
            return x
        numerics.sample(numerics.elementwise(fn), self.PTS[1:], ValueError, "lbl", "g",
                        before=(0.0, math.nan))
        assert [c.tolist() for c in calls] == [list(self.PTS[1:])]
        with pytest.raises(ValueError, match=r"^lbl: g decreasing on \[0\.0, 0\.25\] "
                                             r"\(1\.0 -> 0\.25\)$"):
            numerics.sample(fn, self.PTS[1:], ValueError, "lbl", "g", before=(0.0, 1.0))

    def test_values_come_back_from_one_call(self):
        out = numerics.sample(np.sqrt, self.PTS, ValueError, "lbl", "g")
        assert out.tolist() == [math.sqrt(p) for p in self.PTS]
