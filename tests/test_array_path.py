"""The array path against the float path it replaces, value by value.

Every layer that takes a grid evaluates it in one elementwise call: compiled
expressions, copulas and the system distortions built from them, the
monotone root solve, and the breadth-first quadrature of the transform pass.  Each must give, entry by entry, what the float path
gives at that point, and fail where and how the float path fails first.
The root solve and the quadrature are also held to the methods they
replaced (bisection, recursive adaptive Simpson), kept here as references.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from stochorder import (catalog, cli, copulas, distortions, distributions,
                        funcalc, orders, systems)
from stochorder.numerics import (
    DEFAULT_GRID,
    MAX_LIVE_PANELS,
    MAX_SIMPSON_DEPTH,
    BracketError,
    QuadratureFailure,
    Tolerance,
    elementwise,
    integrate_many,
    lift,
    monotone_inverse,
    uniform_grid,
)

_MACHEPS = 2.220446049250313e-16

# every expression the catalog builds from text, with its variable
CATALOG_EXPRESSIONS = [
    ("x", catalog.PSI_TEXT),
    ("p", catalog.CE02_X_TEXT),
    ("p", catalog.CE02_Y_TEXT),
    ("p", catalog.QMIT_DIAG_TEXT),
    ("p", catalog.FN_DIAG_TEXT),
    ("p", catalog.MIX_DIAG_TEXT),
    ("p", catalog.DEFAULT_GENERATOR_TEXT),
    ("p", "(1 - (1-p)^0.3)/0.3"),
    ("p", "0.6*p + 0.4"),
    ("p", "p^0.25"),
    ("p", "0.5*p + 0.5*p^3"),
    ("p", "0.3*p + 0.7*(1 - (1-p)^3)"),
    ("p", "piece(p <= 1/2 : p/2 ; p <= 3/4 : 2*p - 3/4 ; else : p)"),
    ("p", "piece(p <= 1/4 : 2*p ; p <= 3/4 : p/2 + 3/8 ; else : p)"),
    ("x", "x^2"),
    ("p", "min(p, 1/2, 1 - p) + max(2*p, 1) - e^p"),
]

points = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40)


def _compiled(var, text):
    return funcalc.compile_fn(funcalc.parse(text, variables=(var,)))


def _scalar_outcome(fn, xs):
    """(values, first error text) of fn point by point, in order."""
    values = []
    for x in xs:
        try:
            values.append(fn(x))
        except funcalc.ExprDomainError as ex:
            return values, (str(ex), ex.span)
    return values, None


class TestCompiledExpressions:
    @pytest.mark.parametrize("var, text", CATALOG_EXPRESSIONS)
    @given(xs=points)
    def test_array_equals_float_path(self, var, text, xs):
        # numpy arithmetic is IEEE like Python's, and the math functions run
        # entry by entry, so the two paths agree to the last bit
        fn = _compiled(var, text)
        values, error = _scalar_outcome(fn, xs)
        if error is None:
            got = fn(np.array(xs))
            assert got.tolist() == values
        else:
            with pytest.raises(funcalc.ExprDomainError) as info:
                fn(np.array(xs))
            assert (str(info.value), info.value.span) == error

    @pytest.mark.parametrize("text", [
        "ln(p - 1/2)",
        "1/(p - 1/4)",
        "piece(p <= 0.3 : ln(p - 0.2) ; else : sqrt(0.5 - p))",
        "piece(p <= 0.5 : 1/(p - 0.4) ; else : (p - 0.6)^0.5)",
        "exp(800*p) - 1",
        "(1 - 2*p)^1.5 + 1/0",
    ])
    @given(xs=points)
    def test_domain_error_at_the_first_offending_point(self, text, xs):
        fn = _compiled("p", text)
        values, error = _scalar_outcome(fn, xs)
        if error is None:
            assert fn(np.array(xs)).tolist() == values
            return
        with pytest.raises(funcalc.ExprDomainError) as info:
            fn(np.array(xs))
        assert (str(info.value), info.value.span) == error

    def test_first_offending_point_in_array_order(self):
        # p = 0.1 breaks the ln branch, p = 0.7 the sqrt branch; array order
        # decides which one is reported
        fn = _compiled("p", "piece(p <= 0.3 : ln(p - 0.2) ; else : sqrt(0.5 - p))")
        with pytest.raises(funcalc.ExprDomainError, match="sqrt"):
            fn(np.array([0.25, 0.7, 0.1]))
        with pytest.raises(funcalc.ExprDomainError, match="ln"):
            fn(np.array([0.25, 0.1, 0.7]))

    def test_float_in_float_out(self):
        fn = _compiled("p", catalog.CE02_X_TEXT)
        assert type(fn(0.5)) is float
        assert fn(np.array(0.5)).shape == ()

    def test_eval_expr_is_the_float_path(self):
        node = funcalc.parse(catalog.QMIT_DIAG_TEXT)
        fn = funcalc.compile_fn(node)
        for x in np.linspace(0.0, 1.0, 33).tolist():
            assert funcalc.eval_expr(node, x) == fn(x)


class TestLift:
    def test_outside_callable_runs_point_by_point_in_order(self):
        seen = []

        def q(p):
            seen.append(p)
            if p > 0.5:
                raise ZeroDivisionError(p)
            return 2.0 * p

        lifted = lift(q)
        assert lifted(np.array([0.1, 0.2])).tolist() == [0.2, 0.4]
        assert all(type(p) is float for p in seen)
        with pytest.raises(ZeroDivisionError, match="0.75"):
            lifted(np.array([0.25, 0.75, 0.9]))
        assert seen[-2:] == [0.25, 0.75]
        assert lifted(0.25) == 0.5

    def test_marked_callables_and_their_wrappers_pass_through(self):
        fn = elementwise(lambda p: p * 3.0)

        def wrapper(*args):
            return fn(*args)

        wrapper.__wrapped__ = fn
        assert lift(fn) is fn
        assert lift(wrapper) is wrapper
        once = lift(math.exp)
        assert lift(once) is once

    def test_outside_quantile_takes_arrays(self):
        X = distributions.from_quantile(lambda p: min(p, 0.5), "flat-top",
                                        validate=False)
        assert X.quantile(np.array([0.25, 0.75])).tolist() == [0.25, 0.5]


class TestVectorBisection:
    @given(k=st.floats(0.3, 4.0),
           targets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_each_target_as_alone(self, k, targets):
        fn = lambda x: x ** k
        got = monotone_inverse(fn, np.array(targets), 0.0, 1.0)
        assert got.tolist() == [monotone_inverse(fn, y, 0.0, 1.0) for y in targets]

    @given(targets=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=30),
           his=st.lists(st.floats(32.0, 200.0), min_size=30, max_size=30))
    def test_per_target_brackets(self, targets, his):
        psi = _compiled("x", "(x/0.8)^1.7 + x/10")
        hi = np.array(his[:len(targets)])
        got = monotone_inverse(psi, np.array(targets), 0.0, hi)
        assert got.tolist() == [monotone_inverse(psi, y, 0.0, h)
                                for y, h in zip(targets, hi.tolist())]

    def test_first_target_outside_the_bracket_is_named(self):
        with pytest.raises(BracketError, match=r"target 2\.0 outside \[0\.0, 1\.0\]"):
            monotone_inverse(lambda x: x, np.array([0.5, 2.0, 3.0]), 0.0, 1.0)

    def test_non_finite_value_inside_the_bracket_is_named(self):
        fn = lambda x: math.nan if 0.3 < x < 0.6 else x
        with pytest.raises(BracketError, match=r"nan at x=0\.5 inside the bracket"):
            monotone_inverse(fn, np.array([0.1, 0.35]), 0.0, 1.0)

    def test_nan_target_is_named(self):
        with pytest.raises(BracketError, match=r"target nan outside \[0\.0, 1\.0\]"):
            monotone_inverse(lambda x: x, np.array([0.5, math.nan]), 0.0, 1.0)

    @pytest.mark.parametrize("name", ["ce01_x", "rayleigh"])
    def test_hazard_quantiles(self, name, named_distributions):
        X = named_distributions[name]
        p = np.array(uniform_grid(64).points)
        assert X.quantile(p).tolist() == [X.quantile(x) for x in p.tolist()]

    @pytest.mark.parametrize("name", ["sys_two_parallel_pairs",
                                      "sys_series_with_parallel_pair",
                                      "series_product_3", "mix_cubic",
                                      "power_3", "dualpower_15"])
    def test_inverse_and_co_inverse(self, name, named_distortions):
        h = named_distortions[name]
        y = np.concatenate(([0.0, -0.5, 1.0, 2.0], np.linspace(0.001, 0.999, 50)))
        assert distortions.inverse(h, y).tolist() == \
            [distortions.inverse(h, v) for v in y.tolist()]
        assert distortions.co_inverse(h, y).tolist() == \
            [distortions.co_inverse(h, v) for v in y.tolist()]

    def test_distorted_quantile_memo_serves_floats_only(self, named_distributions,
                                                        named_distortions):
        Xh = distributions.distort(named_distributions["exp_1"],
                                   named_distortions["sys_one_of_two_pairs"])
        p = np.array([0.1, 0.5, 0.9])
        values = Xh.quantile(p)
        assert Xh.quantile.cache_info().currsize == 0
        assert [Xh.quantile(x) for x in p.tolist()] == values.tolist()
        assert Xh.quantile.cache_info().currsize == 3


# --- root solve: the bisection Chandrupatla's method replaced ---

def _bisect(fn, y, lo, hi):
    """(value, calls of fn) of the bisection monotone_inverse ran before,
    for a target inside [fn(lo), fn(hi)]: same invariant fn(a) < y <= fn(b),
    same stopping rule, b returned."""
    calls = [0]
    fn = _counted(fn, calls)
    if y <= fn(lo):
        return lo, calls[0]
    fn(hi)
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if fn(mid) >= y:
            b = mid
        else:
            a = mid
        if b - a <= 4.0 * _MACHEPS * (1.0 + abs(a) + abs(b)):
            break
    return b, calls[0]


def _counted(fn, calls):
    def counted(x):
        calls[0] += 1
        return fn(x)
    return counted


def _solve(fn, y, lo, hi):
    """(value, calls of fn) of monotone_inverse on a float target."""
    calls = [0]
    return monotone_inverse(_counted(fn, calls), y, lo, hi), calls[0]


def _within_stop_width(got, want):
    # both brackets hold the crossing and end no wider than this
    return abs(got - want) <= 4.0 * _MACHEPS * (1.0 + 2.0 * max(abs(got), abs(want)))


class TestAgainstBisection:
    @given(k=st.floats(0.3, 4.0),
           targets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_powers(self, k, targets):
        fn = lambda x: x ** k
        got = monotone_inverse(fn, np.array(targets), 0.0, 1.0).tolist()
        for value, y in zip(got, targets):
            assert _within_stop_width(value, _bisect(fn, y, 0.0, 1.0)[0]), y

    @given(targets=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=30),
           his=st.lists(st.floats(32.0, 200.0), min_size=30, max_size=30))
    def test_per_target_hazard_brackets(self, targets, his):
        psi = _compiled("x", "(x/0.8)^1.7 + x/10")
        got = monotone_inverse(psi, np.array(targets), 0.0, np.array(his[:len(targets)]))
        for value, y, h in zip(got.tolist(), targets, his):
            assert _within_stop_width(value, _bisect(psi, y, 0.0, h)[0]), y

    def test_flat_part_gives_its_left_end(self):
        fn = lambda x: min(x, 0.5)
        assert _bisect(fn, 0.5, 0.0, 1.0)[0] == 0.5
        assert monotone_inverse(fn, 0.5, 0.0, 1.0) == 0.5
        assert monotone_inverse(fn, np.array([0.5, 0.25]), 0.0, 1.0).tolist() == [0.5, 0.25]

    @given(at=st.floats(0.05, 0.95), rise=st.floats(1e-3, 2.0),
           slope=st.floats(0.0, 2.0), share=st.floats(0.0, 1.0))
    def test_a_jump_costs_at_most_twice_bisection(self, at, rise, slope, share):
        # slope 0 is a step: flat on both sides of the jump
        fn = lambda x: slope * x + (rise if x > at else 0.0)
        y = share * (slope + rise)
        got, calls = _solve(fn, y, 0.0, 1.0)
        want, bisect_calls = _bisect(fn, y, 0.0, 1.0)
        assert _within_stop_width(got, want)
        assert calls <= 2 * bisect_calls
        # forced midpoints take the same turns on the array path
        assert monotone_inverse(fn, np.array([y]), 0.0, 1.0).tolist() == [got]

    @pytest.mark.parametrize("y", [1e-300, 1e-12, 0.3, 0.999])
    def test_steep_map(self, y):
        fn = lambda x: x ** 40
        got, calls = _solve(fn, y, 0.0, 1.0)
        want, bisect_calls = _bisect(fn, y, 0.0, 1.0)
        assert _within_stop_width(got, want)
        assert calls < bisect_calls


class TestRootSolveSteps:
    # the co-inverse targets of one default grid: a distorted quantile's solve
    TARGETS = 1.0 - np.array(DEFAULT_GRID.points)

    def test_catalog_distortions_without_a_closed_inverse(self, named_distortions):
        hs = {name: h for name, h in named_distortions.items() if h.inverse_fn is None}
        assert len(hs) == 12
        array_calls, mean_calls = {}, {}
        for name, h in hs.items():
            calls = [0]
            got = monotone_inverse(elementwise(_counted(h.fn, calls)), self.TARGETS,
                                   0.0, 1.0)
            array_calls[name] = calls[0]
            values, counts = zip(*(_solve(h.fn, y, 0.0, 1.0)
                                   for y in self.TARGETS.tolist()))
            assert got.tolist() == list(values), name
            mean_calls[name] = np.mean(counts)
        # bisection takes 54 calls per target (two ends, 52 steps)
        assert max(array_calls.values()) <= 20, array_calls
        assert max(mean_calls.values()) <= 11, mean_calls

    @pytest.mark.parametrize("name", [
        "mix_cubic", "mix_quartic", "mix_dual_cubic", "mix_dual_quartic",
        "cubic_bend", "sys_two_parallel_pairs", "sys_one_of_two_pairs",
        "sys_five_comp_bridge", "sys_three_of_four",
        "sys_series_with_parallel_pair"])
    def test_smooth_catalog_distortions_match_scipy(self, name, named_distortions):
        h = named_distortions[name]
        got = monotone_inverse(h.fn, self.TARGETS, 0.0, 1.0)
        res = find_root(lambda x, y: h.fn(x) - y, (0.0, 1.0), args=(self.TARGETS,))
        assert res.success.all()
        # scipy stops within 4 eps |x| of the root, this solve within its width
        assert np.all(np.abs(got - res.x) <= 8.0 * _MACHEPS * (1.0 + 2.0 * np.abs(res.x)))


# --- quadrature: the recursive adaptive Simpson the batched pass replaced ---

def _recursive_integrate(fn, a, b, tol):
    if a == b:
        return 0.0
    fa, fb = float(fn(a)), float(fn(b))
    m = 0.5 * (a + b)
    fm = float(fn(m))
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    eps = max(tol.abs_tol, tol.rel_tol * abs(whole))
    return _adapt(fn, a, b, fa, fm, fb, whole, eps, MAX_SIMPSON_DEPTH)


def _adapt(fn, a, b, fa, fm, fb, s_whole, eps, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = float(fn(lm))
    frm = float(fn(rm))
    s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    s2 = s_left + s_right
    delta = s2 - s_whole
    noise = 50.0 * _MACHEPS * (abs(s_left) + abs(s_right) + abs(s_whole))
    if abs(delta) <= 15.0 * eps or abs(delta) <= noise:
        return s2 + delta / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"adaptive Simpson did not converge on [{a!r}, {b!r}]",
            last_estimate=s2 + delta / 15.0)
    left = _adapt(fn, a, m, fa, flm, fm, s_left, 0.5 * eps, depth - 1)
    right = _adapt(fn, m, b, fm, frm, fb, s_right, 0.5 * eps, depth - 1)
    return left + right


def _reference_curves(X, grid):
    """transform_curves assembled from per-segment recursive integrals."""
    q = X.quantile
    eps = distributions.EPS_Q
    seg_tol = orders._SEGMENT_TOL
    pts = grid.points
    p = np.array(pts)
    qv = np.array([q(x) for x in pts])
    head = _recursive_integrate(q, eps, pts[0], seg_tol)
    segments = [_recursive_integrate(q, a, b, seg_tol) for a, b in zip(pts, pts[1:])]
    # the upper-tail ladder: widths halving toward 1 - eps
    a, b = pts[-1], 1.0 - eps
    cuts = [a] + [b - (b - a) * 0.5 ** j for j in range(1, 44)] + [b]
    clean = [cuts[0]]
    for x in cuts[1:]:
        if x > clean[-1]:
            clean.append(x)
    rung_tol = Tolerance(abs_tol=max(seg_tol.abs_tol / len(clean), 1e-16),
                         rel_tol=seg_tol.rel_tol)
    tail = math.fsum(_recursive_integrate(q, lo, hi, rung_tol)
                     for lo, hi in zip(clean, clean[1:]))
    prefix = np.cumsum([head] + segments)
    suffix = np.cumsum([tail] + segments[::-1])[::-1]
    q_eps, q_hi = q(eps), q(1.0 - eps)
    return {"ttt": (1.0 - p) * qv + eps * q_eps + prefix,
            "mit": p * qv - (eps * q_eps + prefix),
            "ew": suffix + eps * q_hi - (1.0 - p) * qv,
            "quantile": qv}


class TestBatchedQuadrature:
    @pytest.mark.parametrize("name", ["exp_1", "uniform", "unit_power_030",
                                      "ce02_x", "ce02_y", "ce01_x", "rayleigh"])
    def test_transform_curves_match_per_segment_integrals(self, name,
                                                          named_distributions):
        X = named_distributions[name]
        grid = uniform_grid(48, edge_margin=0.01)
        got = orders.transform_curves(X, grid)
        want = _reference_curves(X, grid)
        for key, values in want.items():
            np.testing.assert_allclose(got[key], values, rtol=1e-14, atol=0.0)

    def test_distorted_curves_match(self, named_distributions, named_distortions):
        X = distributions.distort(named_distributions["ce02_y"],
                                  named_distortions["sys_five_comp_bridge"])
        grid = uniform_grid(24, edge_margin=0.01)
        got = orders.transform_curves(X, grid)
        for key, values in _reference_curves(X, grid).items():
            np.testing.assert_allclose(got[key], values, rtol=1e-14, atol=0.0)

    @given(a=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           width=st.floats(0.0, 2.0))
    def test_each_interval_as_alone(self, a, width):
        fn = _compiled("x", "exp(x) * sqrt(x*x + 1)")
        lo = np.array(a)
        hi = lo + width
        tol = Tolerance(abs_tol=1e-11, rel_tol=1e-11)
        got = integrate_many(fn, lo, hi, tol.abs_tol, tol.rel_tol)
        assert got.tolist() == [_recursive_integrate(fn, x, y, tol)
                                for x, y in zip(lo.tolist(), hi.tolist())]

    def test_rough_everywhere_fails_before_the_panels_pile_up(self):
        # noise keeps every panel open, doubling them each level; the pass
        # gives up at the first level over MAX_LIVE_PANELS, not at depth 40
        rng = np.random.default_rng(0)
        noise = elementwise(lambda p: rng.random(np.shape(p)))
        assert MAX_LIVE_PANELS == 1 << 18
        with pytest.raises(QuadratureFailure,
                           match=rf"on \[0\.0, {2.0 ** -18!r}\]"):
            integrate_many(noise, np.array([0.0]), np.array([1.0]), 1e-13, 1e-12)

    def test_failure_names_the_panel_the_recursion_would(self):
        jump = _compiled("p", "piece(p <= 0.5 : p ; else : p + 1)")
        tol = Tolerance(abs_tol=1e-13, rel_tol=1e-12)
        with pytest.raises(QuadratureFailure) as batched:
            integrate_many(jump, np.array([0.1, 0.499]), np.array([0.2, 0.501]),
                           tol.abs_tol, tol.rel_tol)
        with pytest.raises(QuadratureFailure) as recursive:
            _recursive_integrate(jump, 0.499, 0.501, tol)
        assert str(batched.value) == str(recursive.value)
        assert batched.value.last_estimate == recursive.value.last_estimate


# one handle of each kind; n up to 5 so the sort and the rotations matter
COPULAS = {
    "product": lambda: copulas.product(5),
    "comonotone": lambda: copulas.comonotone(3),
    "durante": lambda: copulas.durante(catalog.DEFAULT_GENERATOR_TEXT, 4),
    "jaworski": lambda: copulas.jaworski(catalog.FN_DIAG_TEXT, 5),
    "cuadras_auge": lambda: copulas.cuadras_auge(0.4),
    "frechet": lambda: copulas.frechet(0.3),
}

unit_points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30).map(
    lambda xs: [0.0, 1.0] + xs)


def _bits(values) -> list:
    # the float64 bit patterns, so that 0.0 and -0.0 differ
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _float_loop(handle, rows):
    """cop_eval entry by entry: (values, message of the first error)."""
    values = []
    for point in rows:
        try:
            values.append(copulas.cop_eval(handle, list(point)))
        except ValueError as ex:
            return values, str(ex)
    return values, None


class TestCopulaArrays:
    @pytest.mark.parametrize("kind", list(COPULAS))
    @given(ps=unit_points)
    def test_sections_equal_the_float_path(self, kind, ps):
        # boundary points (p,..(i)..,p,1,..,1) for every i, which include the
        # diagonal, and the diagonal at 1 - p that parallel systems read
        handle = COPULAS[kind]()
        n = handle.n
        p = np.array(ps)
        for i in range(1, n + 1):
            got = copulas.cop_eval(handle, [p] * i + [1.0] * (n - i))
            want = [copulas.cop_eval(handle, [x] * i + [1.0] * (n - i))
                    for x in ps]
            assert np.array_equal(got, want)
            assert _bits(got) == _bits(want)
        got = copulas.cop_eval(handle, [1.0 - p] * n)
        want = [copulas.cop_eval(handle, [1.0 - x] * n) for x in ps]
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("kind", list(COPULAS))
    @given(rows=st.lists(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                  min_size=5, max_size=5),
                         min_size=1, max_size=20))
    def test_general_points_equal_the_float_path(self, kind, rows):
        # components in any order, ties included: the sort (durante) and
        # the rotations (jaworski) see every arrangement
        handle = COPULAS[kind]()
        rows = [row[:handle.n] for row in rows]
        got = copulas.cop_eval(handle, list(np.array(rows).T))
        want, error = _float_loop(handle, rows)
        assert error is None
        assert _bits(got) == _bits(want)

    def test_floats_among_the_components_are_held_fixed(self):
        handle = copulas.jaworski(catalog.FN_DIAG_TEXT, 5)
        p = np.linspace(0.0, 1.0, 9)
        point = [0.25, p, 1.0, p, 0.5]
        got = copulas.cop_eval(handle, point)
        want = [copulas.cop_eval(handle, [0.25, x, 1.0, x, 0.5])
                for x in p.tolist()]
        assert got.shape == p.shape
        assert _bits(got) == _bits(want)
        grid = p.reshape(3, 3)
        assert copulas.cop_eval(handle, [grid] * 5).shape == (3, 3)

    @pytest.mark.parametrize("kind", list(COPULAS))
    @given(rows=st.lists(st.lists(st.floats(-0.5, 1.5) | st.just(math.nan),
                                  min_size=5, max_size=5),
                         min_size=1, max_size=12))
    def test_bad_component_raises_the_float_loops_first_error(self, kind, rows):
        handle = COPULAS[kind]()
        rows = [row[:handle.n] for row in rows]
        _, error = _float_loop(handle, rows)
        if error is None:
            return
        with pytest.raises(ValueError) as info:
            copulas.cop_eval(handle, list(np.array(rows).T))
        assert str(info.value) == error

    def test_first_offending_entry_then_first_component(self):
        handle = copulas.product(3)
        u = np.array([0.5, 0.5, 2.0])
        v = np.array([0.5, -1.0, 3.0])
        with pytest.raises(ValueError, match=r"^component -1\.0 outside"):
            copulas.cop_eval(handle, [u, v, 0.5])
        w = np.array([0.5, 0.5, 3.0])
        with pytest.raises(ValueError, match=r"^component 3\.0 outside"):
            copulas.cop_eval(handle, [w, u, 0.5])
        with pytest.raises(ValueError, match="point has 2 components"):
            copulas.cop_eval(handle, [u, v])

    @pytest.mark.parametrize("kind", list(COPULAS))
    def test_system_distortions_take_arrays(self, kind):
        handle = COPULAS[kind]()
        sig = systems.parse_signature({2: "2,-1", 3: "3,-3,1", 4: "2,0,-2,1",
                                       5: "5,-10,10,-5,1"}[handle.n])
        pts = np.linspace(0.0, 1.0, 65)
        fns = [systems._boundary_sum(sig, handle)]
        if kind not in ("durante", "jaworski"):
            fns += [systems.parallel_distortion(handle).fn,
                    systems.series_distortion(handle).fn]
        for fn in fns:
            assert _bits(fn(pts)) == _bits([fn(x) for x in pts.tolist()])

    def test_a_system_request_makes_one_cop_eval_per_term_and_sampling(
            self, monkeypatch, tmp_path):
        # 1-of-5 under product:5 has five non-zero signature terms, sampled
        # three times: validation, classification and the h_T table
        calls = []
        real = copulas.cop_eval

        def counted(handle, point):
            calls.append(len(point))
            return real(handle, point)

        monkeypatch.setattr(copulas, "cop_eval", counted)
        code = cli.main(["system", "--signature", "5,-10,10,-5,1",
                         "--copula", "product:5",
                         "--out-csv", str(tmp_path / "h.csv"),
                         "--out-json", str(tmp_path / "h.json")])
        assert code == 0
        assert 0 < len(calls) <= 15
