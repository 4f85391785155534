"""The array path against the float path it replaced, value by value.

Every layer that takes a grid evaluates it in one elementwise call: compiled
expressions, copulas and the system distortions built from them, the
monotone root solve, quantiles, cdfs, inverses and finite differences, and
the breadth-first quadrature of the transform pass.  Each has a single
implementation, on arrays, which a float enters as a one-entry array.  The
float paths they replaced are kept here as references: the float root
solve, the float copula evaluation, the float hazard quantile, cdfs,
inverses and derivative, bisection, recursive adaptive Simpson and the
breadth-first loop whose first two levels took two calls.  Each
array entry must equal what the reference gives at that point, and fail
where and how the reference fails first.
"""

from __future__ import annotations

import itertools
import math
import operator
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize.elementwise import find_root

from stochorder import (catalog, cli, copulas, distortions, distributions,
                        funcalc, numerics, orders, systems)
from stochorder.numerics import (
    DEFAULT_GRID,
    MAX_LIVE_PANELS,
    MAX_ROOT_STEPS,
    MAX_SIMPSON_DEPTH,
    BracketError,
    NumericsError,
    QuadratureFailure,
    Tolerance,
    derivative,
    elementwise,
    integrate_many,
    lift,
    monotone_inverse,
    settled,
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


# --- the float evaluation the single expression evaluator replaced ---

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


def _reference(node, v: float) -> float:
    """node at the float v, one operation after another, raising at the
    first domain rule it breaks: the float closures funcalc compiled beside
    its array closures, as one recursive function."""
    if isinstance(node, (funcalc.Num, funcalc.Const)):
        return node.value
    if isinstance(node, funcalc.Var):
        return v
    if isinstance(node, funcalc.Unary):
        return -_reference(node.operand, v)
    if isinstance(node, funcalc.Piecewise):
        for branch in node.branches:
            if v <= branch.bound_value:
                return _reference(branch.body, v)
        return _reference(node.otherwise, v)

    def fail(message):
        return funcalc.ExprDomainError(message, node.span)

    if isinstance(node, funcalc.Call):
        args = [_reference(a, v) for a in node.args]
        if node.name in ("min", "max"):
            return (min if node.name == "min" else max)(args)
        (x,) = args
        if node.name == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                raise fail("overflow in exp") from None
        if node.name == "ln":
            if x <= 0.0:
                raise fail("ln of a non-positive number")
            return math.log(x)
        if x < 0.0:
            raise fail("sqrt of a negative number")
        return math.sqrt(x)
    x, y = _reference(node.left, v), _reference(node.right, v)
    if node.op == "^":
        if x == 0.0 and y < 0.0:
            raise fail("zero raised to a negative power")
        if x < 0.0 and y != math.floor(y):
            raise fail("negative base with non-integer exponent")
        try:
            out = math.pow(x, y)
        except (OverflowError, ValueError):
            raise fail("overflow in power") from None
    else:
        if node.op == "/" and y == 0.0:
            raise fail("division by zero")
        out = _ARITHMETIC[node.op](x, y)
    if not math.isfinite(out):
        raise fail("overflow")
    return out


def _reference_outcome(node, xs):
    """(values, (message, span) of the first error) of the reference point
    by point, in order."""
    values = []
    for x in xs:
        try:
            values.append(_reference(node, x))
        except funcalc.ExprDomainError as ex:
            return values, (str(ex), ex.span)
    return values, None


def _agrees_with_reference(node, xs):
    """compile_fn(node) on the array xs, on each float and on each 0-d
    array gives the reference's values bit for bit, or its first error."""
    fn = funcalc.compile_fn(node)
    values, error = _reference_outcome(node, xs)
    if error is None:
        assert _bits(fn(np.array(xs))) == _bits(values)
    else:
        with pytest.raises(funcalc.ExprDomainError) as info:
            fn(np.array(xs))
        assert (str(info.value), info.value.span) == error
    for x, value in zip(xs, values):
        assert _bits([fn(x)]) == _bits([value]) and type(fn(x)) is float
        zero_d = fn(np.array(x))
        assert zero_d.shape == () and _bits([zero_d]) == _bits([value])
    if error is not None:
        bad = xs[len(values)]
        for arg in (bad, np.array(bad)):
            with pytest.raises(funcalc.ExprDomainError) as info:
                fn(arg)
            assert (str(info.value), info.value.span) == error


# expressions from a grammar over the literals and inputs where the domain
# rules and the folding of constants are decided
_LITERALS = ("0", "1", "-1", "2", "0.5", "710", "1e200", "1e-300", "e")
_BOUNDS = ("-1", "0", "1/2", "1", "2", "700")  # increasing, as guards must be
_INPUTS = (0.0, 1.0, 1e-300, 700.0, 2.0, 0.3, -1.0, -0.5, -2.0, -700.0)


def _expression_text(children):
    binary = st.builds(lambda a, op, b: f"({a}) {op} ({b})",
                       children, st.sampled_from("+-*/^"), children)
    unary = st.builds(lambda name, a: f"{name}({a})",
                      st.sampled_from(("exp", "ln", "sqrt", "-")), children)
    extreme = st.builds(lambda name, args: f"{name}({', '.join(args)})",
                        st.sampled_from(("min", "max")),
                        st.lists(children, min_size=2, max_size=3))
    piece = st.builds(
        lambda picks, bodies, otherwise: "piece(" + "".join(
            f"p <= {_BOUNDS[k]} : {body} ; " for k, body in zip(sorted(picks), bodies))
        + f"else : {otherwise})",
        st.sets(st.integers(0, len(_BOUNDS) - 1), min_size=1, max_size=3),
        st.lists(children, min_size=3, max_size=3), children)
    return st.one_of(binary, unary, extreme, piece)


expressions = st.recursive(st.sampled_from(_LITERALS + ("p",) * 4),
                           _expression_text, max_leaves=8)
inputs = st.lists(st.one_of(st.sampled_from(_INPUTS), st.floats(-3.0, 3.0)),
                  min_size=1, max_size=12)
# points at which the rules below break, and others
rule_points = st.lists(st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
                                 st.floats(0.0, 3.0)), min_size=1, max_size=40)


class TestCompiledExpressions:
    @pytest.mark.parametrize("var, text", CATALOG_EXPRESSIONS)
    @given(xs=points)
    def test_array_equals_float_path(self, var, text, xs):
        # numpy arithmetic is IEEE like Python's, and the math functions run
        # entry by entry, so the evaluator and the reference agree to the
        # last bit
        _agrees_with_reference(funcalc.parse(text, variables=(var,)), xs)

    @pytest.mark.parametrize("text", [
        "ln(p - 1/2)",
        "1/(p - 1/4)",
        "piece(p <= 0.3 : ln(p - 0.2) ; else : sqrt(0.5 - p))",
        "piece(p <= 0.5 : 1/(p - 0.4) ; else : (p - 0.6)^0.5)",
        "exp(800*p) - 1",
        "(1 - 2*p)^1.5 + 1/0",
        "p/0 + ln(p - 1)",
        "(2 - 4*p)^-0.5",
        "10^(400*p) - exp(710*p)",
        "0^(p - 1)",
        "(-2)^p",
    ])
    @given(xs=points)
    def test_domain_error_at_the_first_offending_point(self, text, xs):
        _agrees_with_reference(funcalc.parse(text), xs)

    @given(text=expressions, xs=inputs)
    def test_random_expressions_equal_the_reference(self, text, xs):
        # literals at the edges of every rule, including constant subtrees
        # that fold to a value or to the rule they always break
        _agrees_with_reference(funcalc.parse(text), xs)

    @given(text=expressions, xs=inputs)
    def test_random_expressions_under_a_finite_root(self, text, xs):
        # min(1, max(-1, t)) is finite wherever t is a number, inf or nan,
        # so a rule that t breaks shows in no value at the root
        _agrees_with_reference(funcalc.parse(f"min(1, max(-1, {text}))"), xs)

    @pytest.mark.parametrize("text", [
        "p + 1/(1 + exp(800*p))",  # overflow in exp
        "min(1, 1/(p - 1/2))",  # division by zero
        "1/(1 + (1e154*p)*(1e154*p))",  # overflow
        "min(1, (p - 1)^-1)",  # zero raised to a negative power
        "max(-1, (p - 2)^0.5)",  # negative base with non-integer exponent
        "1/(1 + 10^(400*p))",  # overflow in power
        "max(-1, ln(p - 1/2))",  # ln of a non-positive number
        "min(1, sqrt(p - 1/2))",  # sqrt of a negative number
    ])
    @given(xs=rule_points)
    def test_each_rule_under_a_finite_root(self, text, xs):
        _agrees_with_reference(funcalc.parse(text), xs)

    @pytest.mark.parametrize("text, message, where", [
        ("exp(1) + p", None, None),
        ("(1e200)^2 + p", "overflow in power", "0..9"),
        ("(1e200) * 1e200 + p", "overflow", "0..15"),
        ("p + ln(1 - 1)", "ln of a non-positive number", "4..13"),
        ("ln(p - 1) / 0", "ln of a non-positive number", "0..9"),
        ("exp(710) * p", "overflow in exp", "0..8"),
        ("p^(1/0)", "division by zero", "2..7"),
    ])
    @pytest.mark.parametrize("arg", [0.0, np.array(0.0), np.array([0.5, 0.0])])
    def test_folded_constants(self, text, message, where, arg):
        # a constant subtree folds once, to its value or its first rule;
        # either reaches floats, 0-d arrays and arrays alike
        fn = funcalc.compile_fn(funcalc.parse(text))
        if message is None:
            assert np.array_equal(fn(arg), math.exp(1) + np.asarray(arg))
            return
        with pytest.raises(funcalc.ExprDomainError) as info:
            fn(arg)
        assert str(info.value).startswith(f"{message} (at {where} ")

    def test_first_offending_point_in_array_order(self):
        # p = 0.1 breaks the ln branch, p = 0.7 the sqrt branch; array order
        # decides which one is reported
        fn = _compiled("p", "piece(p <= 0.3 : ln(p - 0.2) ; else : sqrt(0.5 - p))")
        with pytest.raises(funcalc.ExprDomainError, match="sqrt"):
            fn(np.array([0.25, 0.7, 0.1]))
        with pytest.raises(funcalc.ExprDomainError, match="ln"):
            fn(np.array([0.25, 0.1, 0.7]))

    def test_the_first_rule_an_entry_breaks_is_reported(self):
        # at p = 0 the ln to the left breaks before the division
        fn = _compiled("p", "ln(p) + 1/p")
        with pytest.raises(funcalc.ExprDomainError, match="ln"):
            fn(np.array([0.5, 0.0]))

    def test_nested_pieces_map_their_entries_back(self):
        # the inner ln breaks at 0.6 (entry 1), the outer sqrt at 0.1 (entry
        # 0): entry 0 comes first, so the sqrt is reported
        node = funcalc.parse("piece(p <= 1 : piece(p <= 1/2 : p ; else : ln(p - 3/4))"
                             " ; else : p) + sqrt(p - 1/2)")
        _agrees_with_reference(node, [0.1, 0.6, 0.9])
        with pytest.raises(funcalc.ExprDomainError, match="sqrt"):
            funcalc.compile_fn(node)(np.array([0.1, 0.6, 0.9]))

    def test_grids_of_any_shape(self):
        fn = _compiled("p", "piece(p <= 1/2 : p/2 ; else : sqrt(p))")
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert _bits(fn(grid).ravel()) == _bits(fn(grid.ravel()))
        assert fn(grid).shape == (3, 4)

    def test_float_in_float_out(self):
        fn = _compiled("p", catalog.CE02_X_TEXT)
        assert type(fn(0.5)) is float
        assert fn(np.array(0.5)).shape == ()

    def test_eval_expr_is_the_float_path(self):
        node = funcalc.parse(catalog.QMIT_DIAG_TEXT)
        fn = funcalc.compile_fn(node)
        for x in np.linspace(0.0, 1.0, 33).tolist():
            assert funcalc.eval_expr(node, x) == fn(x) == _reference(node, x)


# breaks division by zero at p = 1/2, ln at p <= 1/4 and overflow in power
# at p > 0.77, and no rule between
_THREE_RULES = "min(1, 1/(p - 1/2)) + max(-1, ln(p - 1/4)) + 1/(1 + 10^(400*p))"


class TestOneRun:
    @pytest.mark.parametrize("at", [0, 4999, 6789, 9999])
    @pytest.mark.parametrize("bad, later", [(0.5, 0.1), (0.1, 0.9), (0.9, 0.5)])
    def test_first_offending_entry_deep_in_a_long_array(self, at, bad, later):
        # the run of the whole array raises; halving must land on entry at,
        # not on the entry of another rule after it
        node = funcalc.parse(_THREE_RULES)
        xs = np.random.default_rng(at).uniform(0.3, 0.45, 10_000)
        xs[at] = bad
        xs[at + 1:] = np.where(np.arange(at + 1, xs.size) % 97 == 0, later, xs[at + 1:])
        with pytest.raises(funcalc.ExprDomainError) as info:
            funcalc.compile_fn(node)(xs)
        assert (str(info.value), info.value.span) == _reference_outcome(node, xs.tolist())[1]
        with pytest.raises(funcalc.ExprDomainError) as alone:
            _reference(node, bad)
        assert str(info.value) == str(alone.value)

    @pytest.mark.parametrize("text", ["p + ln(1 - 1)", "ln(1 - 1)"])
    def test_folded_broken_constant_raises_afresh(self, text):
        # the same message on every call, from a new error each time, so no
        # traceback grows from one call to the next
        fn = _compiled("p", text)
        errors = []
        for arg in (0.5, np.array([0.1, 0.2]), 0.5, 0.5):
            with pytest.raises(funcalc.ExprDomainError) as info:
                fn(arg)
            errors.append(info.value)
        assert {str(e) for e in errors} == {
            f"ln of a non-positive number (at {text.index('ln')}..{len(text)} 'ln(1 - 1)')"}
        assert len({id(e) for e in errors}) == len(errors)
        depth = [len(traceback.extract_tb(e.__traceback__)) for e in errors]
        assert depth[0] == depth[2] == depth[3]

    def test_non_finite_input_propagates(self):
        # nan and inf go through the arithmetic as IEEE has them; an
        # operation that breaks a rule on them still names it
        fn = _compiled("p", "ln(p) + exp(-p) + sqrt(p) + 2*p^3")
        assert _bits(fn(np.array([math.nan, math.inf]))) == _bits([math.nan, math.inf])
        with pytest.raises(funcalc.ExprDomainError, match="^ln of a non-positive"):
            fn(-math.inf)
        for spec in ("exp:1", "q: p^2", "hazard: x^2"):
            X = distributions.build(spec)
            assert math.isnan(X.quantile(math.nan))
            assert np.isnan(X.quantile(np.array([0.5, math.nan]))[1])
        for spec in ("exp:1", "hazard: x^2"):
            assert distributions.cdf(distributions.build(spec), math.inf) == 1.0


def _masked_inside(x, inner, lo, hi):
    """numerics.inside as a mask and a gather/scatter, whatever x holds."""
    out = np.where(x <= lo, 0.0, 1.0)
    mid = np.flatnonzero(~((x <= lo) | (x >= hi)))
    if mid.size:
        out[mid] = inner(x[mid])
    return out


class TestInside:
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.25, 0.75)])
    @given(xs=st.lists(st.floats(0.3, 0.7), min_size=1, max_size=20)
           | st.lists(st.floats(-0.5, 1.5) | st.sampled_from(
               [0.0, -0.0, 0.25, 0.75, 1.0, math.nan]), min_size=1, max_size=20))
    def test_matches_the_masked_form(self, lo, hi, xs):
        # entries at or beyond the ends read 0 or 1 and nan goes to inner,
        # which is called once; the result is a new array even when inner
        # hands back what it was given
        x = np.array(xs)
        for inner in (lambda v: v, lambda v: v * v - 0.5):
            calls = []
            got = numerics.inside(x, lambda v: calls.append(v) or inner(v), lo, hi)
            assert got is not x and not np.shares_memory(got, x)
            assert _bits(got) == _bits(_masked_inside(x, inner, lo, hi))
            assert len(calls) == (1 if np.any(~((x <= lo) | (x >= hi))) else 0)


    @pytest.mark.parametrize("x", [math.nan, 0.0, 0.5, 1.0])
    def test_zero_dimensional(self, x):
        # a 0-d array on either path: masked (nan goes to inner) or not
        got = numerics.inside(np.array(x), lambda v: v * v - 0.5)
        assert got.shape == ()
        assert _bits([got]) == _bits(_masked_inside(np.array([x]),
                                                    lambda v: v * v - 0.5, 0.0, 1.0))


def _point_functions(named_distributions, fresh_distortions) -> dict:
    """Each elementwise public function, as a function of its point."""
    X = named_distributions
    solved, closed = fresh_distortions["mix_cubic"], fresh_distortions["power_3"]
    distorted = distributions.distort(X["exp_1"], fresh_distortions["sys_one_of_two_pairs"])
    product = copulas.parse_copula_spec("product:2")
    return {
        "compile_fn": _compiled("p", catalog.CE02_X_TEXT),
        "exp quantile": X["exp_1"].quantile,
        "q: quantile": X["ce02_x"].quantile,
        "hazard quantile": X["rayleigh"].quantile,
        "distorted quantile": distorted.quantile,
        "closed cdf": lambda x: distributions.cdf(X["exp_1"], x),
        "hazard cdf": lambda x: distributions.cdf(X["rayleigh"], x),
        "cdf by inversion": lambda x: distributions.cdf(distributions.build("q: p^2"), x),
        "closed inverse": lambda y: distortions.inverse(closed, y),
        "root-solved inverse": lambda y: distortions.inverse(solved, y),
        "root-solved co_inverse": lambda p: distortions.co_inverse(solved, p),
        "monotone_inverse": lambda y: monotone_inverse(lambda x: x * x, y, 0.0, 1.0),
        "derivative": lambda x: derivative(_compiled("x", catalog.PSI_TEXT), x, lo=0.0),
        "cop_eval": lambda u: copulas.cop_eval(product, (u, 0.5)),
    }


class TestZeroDimensional:
    @pytest.mark.parametrize("name", [
        "compile_fn", "exp quantile", "q: quantile", "hazard quantile",
        "distorted quantile", "closed cdf", "hazard cdf", "cdf by inversion",
        "closed inverse", "root-solved inverse", "root-solved co_inverse",
        "monotone_inverse", "derivative", "cop_eval"])
    @pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.9])
    def test_a_point_in_gives_a_point_out(self, name, x, named_distributions,
                                          fresh_distortions):
        # a 0-d array gives a 0-d array with the float result's bits; it
        # goes first, so a root-solved inverse solves it rather than reading
        # the memo the float call fills
        fn = _point_functions(named_distributions, fresh_distortions)[name]
        got = fn(np.array(x))
        assert isinstance(got, np.ndarray) and got.shape == ()
        want = fn(x)
        assert type(want) is float and _bits([got]) == _bits([want])


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


# --- the float paths the single array path replaced, kept as references ---

def _chandrupatla(fn, y, lo, hi):
    """(value, calls of fn) of the float loop monotone_inverse ran on a
    float target before floats entered the array solve, less its old rule
    forcing a midpoint after two steps that did not halve the bracket:
    the same steps, stopping rule and errors as the array solve."""
    calls = [0]
    fn = _counted(fn, calls)
    if not lo < hi:
        raise ValueError("empty bracket")
    flo, fhi = fn(lo), fn(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise BracketError("bracket endpoints evaluate to non-finite values")
    slack = 1e-10
    if not (flo - slack <= y <= fhi + slack):
        raise BracketError(f"target {y!r} outside [{flo!r}, {fhi!r}]")
    if y <= flo:
        return lo, calls[0]
    if y > fhi:
        return hi, calls[0]
    # x1 is the newest end of the bracket, x2 the other end and x3 the end
    # x1 replaced; f* is fn - y there, negative below the target
    x1, f1, x2, f2 = lo, flo - y, hi, fhi - y
    t = 0.5
    for _ in range(MAX_ROOT_STEPS):
        x = x1 + t * (x2 - x1)
        v = fn(x)
        if not math.isfinite(v):
            raise BracketError(f"function evaluated to {v!r} at x={x!r} inside the bracket")
        ft = v - y
        if (ft >= 0.0) == (f1 >= 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, ft
        width = abs(x2 - x1)
        stop = 4.0 * _MACHEPS * (1.0 + abs(x1) + abs(x2))
        if width <= stop:
            return (x1 if f1 >= 0.0 else x2), calls[0]
        t = 0.5
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        tl = 0.5 * stop / width
        t = min(1.0 - tl, max(tl, t))
    a, b = sorted((x1, x2))
    raise BracketError(f"root solve still open after {MAX_ROOT_STEPS} steps on [{a!r}, {b!r}]")


def _float_cell(xs, vals, y):
    """(lo, hi) of the cell of the sample vals of fn at xs that a root solve
    of y starts in: [xs[j-1], xs[j]] for the first j where the running
    maximum of vals reaches y, the first cell at or below vals[0] and the
    last above vals[-1]."""
    peak, last = -math.inf, len(vals) - 1
    for j, v in enumerate(vals):
        peak = max(peak, v)
        if peak >= y:
            break
    j = last if y > vals[-1] else min(max(j, 1), last)
    return xs[j - 1], xs[j]


def _float_hazard_quantile(text):
    """The float branch of the quantile of hazard:<text>: a root solve from
    the cell of psi's table that brackets the target, its ends evaluated
    again; past hi the table holds psi at 2hi, 4hi, ... until it reaches
    the target of the largest level below 1."""
    node = funcalc.parse(text)

    def psi(x):
        return _reference(node, x)

    v0 = psi(0.0)
    hi = 1.0
    while psi(hi) < distributions._HAZARD_TARGET:
        hi *= 2.0
    xs = ([0.0] + [hi * 2.0 ** -k for k in range(70, 9, -1)]
          + [hi * i / 512 for i in range(1, 513)])
    while psi(xs[-1]) < -math.log(2.0 ** -53):
        xs.append(2.0 * xs[-1])
    vals = [psi(x) for x in xs]

    def quantile(p):
        target = -math.log(1.0 - p)
        if target <= v0:
            return 0.0
        return _chandrupatla(psi, target, *_float_cell(xs, vals, target))[0]

    return quantile


_POINTS = [i / 512 for i in range(513)]
# h at _POINTS per distortion, one float call each; each entry holds the
# distortion, so that its id is not reused
_FLOAT_SAMPLES = {}


def _float_sample(h):
    if _FLOAT_SAMPLES.get(id(h), (None,))[0] is not h:
        _FLOAT_SAMPLES[id(h)] = (h, [float(h.fn(x)) for x in _POINTS])
    return _FLOAT_SAMPLES[id(h)][1]


def _float_root_solved(h, y):
    """(value, calls of h) of the root solve of h at y from the cell of h's
    sample that brackets y, its ends evaluated again, after y is screened
    against [h(0), h(1)] as a solve on [0, 1] screens it."""
    vals = _float_sample(h)
    if not vals[0] - 1e-10 <= y <= vals[-1] + 1e-10:
        raise BracketError(f"target {y!r} outside [{vals[0]!r}, {vals[-1]!r}]")
    return _chandrupatla(h.fn, y, *_float_cell(_POINTS, vals, y))


def _float_clamp(v):
    return min(1.0, max(0.0, v))


def _float_interior(x, inner):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return inner(x)


def _float_inverse(h, y):
    if h.inverse_fn is not None:
        return _float_interior(y, lambda v: _float_clamp(h.inverse_fn(v)))
    return _float_interior(y, lambda v: _float_root_solved(h, v)[0])


def _float_co_inverse(h, p):
    if h.co_inverse_fn is not None:
        return _float_interior(p, lambda v: _float_clamp(h.co_inverse_fn(v)))
    return _float_interior(p, lambda v: 1.0 - _float_inverse(h, 1.0 - v))


def _float_distorted_quantile(q, h):
    return lambda p: q(_float_co_inverse(h, p))


# the closed-form cdfs as they were written for floats
def _float_exponential_cdf(rate):
    return lambda x: 1.0 - math.exp(-rate * x) if x > 0.0 else 0.0


def _float_hazard_cdf(text):
    node = funcalc.parse(text)
    return lambda x: 0.0 if x <= 0.0 else 1.0 - math.exp(-max(0.0, _reference(node, x)))


def _float_distorted_cdf(base_cdf, h):
    return lambda x: 1.0 - h.fn(max(0.0, min(1.0, 1.0 - float(base_cdf(x)))))


def _float_cdf(closed, q, x):
    """cdf(X, x) for a float x: the closed form clamped to [0, 1], or the
    inversion of q when there is none."""
    if closed is not None:
        return _float_clamp(float(closed(x)))
    lo, hi = distributions.EPS_Q, 1.0 - distributions.EPS_Q
    if x <= q(lo):
        return 0.0
    if x >= q(hi):
        return 1.0
    return _chandrupatla(q, x, lo, hi)[0]


def _float_derivative(fn, x, step=1e-6, lo=None):
    if lo is None or x - step >= lo:
        return (fn(x + step) - fn(x - step)) / (2.0 * step)
    return (-3.0 * fn(x) + 4.0 * fn(x + step) - fn(x + 2.0 * step)) / (2.0 * step)


def _float_xspace_gap(F, q_y, t):
    """qmit_xspace_integral as it ran point by point, on float cdf and
    quantile references, integrated by the recursive Simpson reference."""
    eps = distributions.EPS_Q

    def alpha(x):
        return q_y(min(1.0 - eps, max(eps, F(x))))

    def alpha_prime(z):
        h = 1e-3 * max(1.0, abs(z))
        if z - 2.0 * h < 0.0:
            return _float_derivative(alpha, z, step=min(h, max(z / 2.0, 1e-7)), lo=0.0)
        return (-alpha(z + 2.0 * h) + 8.0 * alpha(z + h)
                - 8.0 * alpha(z - h) + alpha(z - 2.0 * h)) / (12.0 * h)

    a_t = _float_derivative(alpha, t, step=5e-6 * max(1.0, abs(t)), lo=0.0)

    def integrand(x):
        fx = F(x)
        return 0.0 if fx <= 0.0 else (a_t - alpha_prime(x)) * fx

    return _recursive_integrate(integrand, 0.0, t, orders._XSPACE_TOL)


def _is_float_of(value, one_entry) -> bool:
    """value is a Python float with the bits of the one-entry array's entry."""
    return (type(value) is float and one_entry.shape == (1,)
            and _bits([value]) == _bits(one_entry))


class TestVectorBisection:
    @given(k=st.floats(0.3, 4.0),
           targets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_each_target_as_alone(self, k, targets):
        fn = lambda x: x ** k
        got = monotone_inverse(fn, np.array(targets), 0.0, 1.0)
        assert got.tolist() == [_chandrupatla(fn, y, 0.0, 1.0)[0] for y in targets]
        y = targets[0]
        assert _is_float_of(monotone_inverse(fn, y, 0.0, 1.0),
                            monotone_inverse(fn, np.array([y]), 0.0, 1.0))

    @given(targets=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=30),
           his=st.lists(st.floats(32.0, 200.0), min_size=30, max_size=30))
    def test_per_target_brackets(self, targets, his):
        psi = _compiled("x", "(x/0.8)^1.7 + x/10")
        hi = np.array(his[:len(targets)])
        got = monotone_inverse(psi, np.array(targets), 0.0, hi)
        assert got.tolist() == [_chandrupatla(psi, y, 0.0, h)[0]
                                for y, h in zip(targets, hi.tolist())]

    def test_first_target_outside_the_bracket_is_named(self):
        with pytest.raises(BracketError, match=r"target 2\.0 outside \[0\.0, 1\.0\]"):
            monotone_inverse(lambda x: x, np.array([0.5, 2.0, 3.0]), 0.0, 1.0)

    def test_non_finite_value_inside_the_bracket_is_named(self):
        fn = lambda x: math.nan if 0.3 < x < 0.6 else x
        message = r"^function evaluated to nan at x=0\.5 inside the bracket$"
        with pytest.raises(BracketError, match=message):
            monotone_inverse(fn, np.array([0.1, 0.35]), 0.0, 1.0)
        with pytest.raises(BracketError, match=message):
            monotone_inverse(fn, 0.35, 0.0, 1.0)
        with pytest.raises(BracketError, match=message):
            _chandrupatla(fn, 0.35, 0.0, 1.0)
        with pytest.raises(BracketError,
                           match=r"^bracket endpoints evaluate to non-finite values$"):
            monotone_inverse(lambda x: x if x < 1.0 else math.inf, 0.5, 0.0, 1.0)

    def test_nan_target_is_named(self, named_distributions, fresh_distortions):
        message = r"^target nan outside \[0\.0, 1\.0\]$"
        with pytest.raises(BracketError, match=message):
            monotone_inverse(lambda x: x, np.array([0.5, math.nan]), 0.0, 1.0)
        with pytest.raises(BracketError, match=message):
            monotone_inverse(lambda x: x, math.nan, 0.0, 1.0)
        with pytest.raises(BracketError, match=message):
            _chandrupatla(lambda x: x, math.nan, 0.0, 1.0)
        h = fresh_distortions["mix_cubic"]
        for form in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(BracketError, match=message):
                distortions.inverse(h, form)
        with pytest.raises(BracketError, match=r"^target nan outside "):
            distributions.cdf(named_distributions["ce02_x"], math.nan)

    @pytest.mark.parametrize("name", ["ce01_x", "rayleigh"])
    def test_hazard_quantiles(self, name, named_distributions):
        X = named_distributions[name]
        reference = _float_hazard_quantile(X.label[len("hazard:"):])
        p = np.array(uniform_grid(64).points)
        assert X.quantile(p).tolist() == [reference(x) for x in p.tolist()]
        assert _is_float_of(X.quantile(0.3), X.quantile(np.array([0.3])))

    @pytest.mark.parametrize("text", ["x^0.5", "0.001*x", "x^2"])
    def test_far_tail_hazard_quantiles(self, text):
        # the levels past psi(hi) solve from the table's cells beyond hi
        X = distributions.build(f"hazard: {text}")
        reference = _float_hazard_quantile(text)
        p = 1.0 - np.array([1e-13, 1e-14, 1e-15, 2.0 ** -53])
        assert X.quantile(p).tolist() == [reference(x) for x in p.tolist()]

    @pytest.mark.parametrize("name", ["sys_two_parallel_pairs",
                                      "sys_series_with_parallel_pair",
                                      "series_product_3", "mix_cubic",
                                      "power_3", "dualpower_15"])
    def test_inverse_and_co_inverse(self, name, fresh_distortions):
        h = fresh_distortions[name]
        y = np.concatenate(([0.0, -0.5, 1.0, 2.0], np.linspace(0.001, 0.999, 50)))
        assert distortions.inverse(h, y).tolist() == \
            [_float_inverse(h, v) for v in y.tolist()]
        assert distortions.co_inverse(h, y).tolist() == \
            [_float_co_inverse(h, v) for v in y.tolist()]
        for v in (0.0, 0.3, 1.0):
            assert _is_float_of(distortions.inverse(h, v),
                                distortions.inverse(h, np.array([v])))
            assert _is_float_of(distortions.co_inverse(h, v),
                                distortions.co_inverse(h, np.array([v])))

    def test_distorted_quantile_memo_serves_floats_only(self, named_distributions,
                                                        fresh_distortions):
        X = named_distributions["exp_1"]
        h = fresh_distortions["sys_one_of_two_pairs"]
        Xh = distributions.distort(X, h)
        p = np.array([0.1, 0.5, 0.9])
        values = Xh.quantile(p)
        assert Xh.quantile.cache_info().currsize == 0
        reference = _float_distorted_quantile(X.quantile, h)
        assert values.tolist() == [reference(x) for x in p.tolist()]
        for x in p.tolist():
            assert _is_float_of(Xh.quantile(x), Xh.quantile(np.array([x])))
        assert Xh.quantile.cache_info().currsize == 3

    @pytest.mark.parametrize("name", ["exp_1", "ce01_x", "exp_1 under dualpower:5",
                                      "ce01_x under dualpower:5", "ce02_x"])
    def test_cdf_equals_the_float_forms(self, name, named_distributions):
        base_name, _, h_text = name.partition(" under ")
        X = named_distributions[base_name]
        closed = {"exp_1": _float_exponential_cdf(1.0),
                  "ce01_x": _float_hazard_cdf(catalog.PSI_TEXT)}.get(base_name)
        if h_text:
            h = distortions.parse_distortion_spec(h_text)
            X = distributions.distort(X, h)
            closed = _float_distorted_cdf(closed, h)
        x = np.concatenate(([-1.0, 0.0, 1e-300, 6.0],
                            np.linspace(0.01, 3.0, 60)))
        assert _bits(distributions.cdf(X, x)) == \
            _bits([_float_cdf(closed, X.quantile, v) for v in x.tolist()])
        for v in (0.0, 0.7):
            assert _is_float_of(distributions.cdf(X, v),
                                distributions.cdf(X, np.array([v])))

    @given(xs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=20),
           step=st.floats(1e-6, 0.5), lo=st.none() | st.floats(0.0, 1.0))
    def test_derivative_per_entry(self, xs, step, lo):
        # the forward formula where x - step < lo, the central one elsewhere
        fn = _compiled("x", catalog.PSI_TEXT)
        got = derivative(fn, np.array(xs), step=step, lo=lo)
        assert _bits(got) == _bits([_float_derivative(fn, x, step, lo) for x in xs])
        steps = np.full(len(xs), step)
        assert _bits(derivative(fn, np.array(xs), step=steps, lo=lo)) == _bits(got)
        assert _is_float_of(derivative(fn, xs[0], step=step, lo=lo),
                            derivative(fn, np.array(xs[:1]), step=step, lo=lo))


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
        assert _chandrupatla(fn, y, 0.0, 1.0) == (got, calls)

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
            counted = distortions.Distortion(
                fn=elementwise(_counted(h.fn, calls)), label=name,
                strictly_increasing=h.strictly_increasing)
            counted.sampled = distortions.values_at(h)
            got = distortions.inverse(counted, self.TARGETS)
            array_calls[name] = calls[0]
            values, counts = zip(*(_float_root_solved(h, y)
                                   for y in self.TARGETS.tolist()))
            assert got.tolist() == list(values), name
            mean_calls[name] = np.mean(counts)
        # bisection takes 54 calls per target (two ends, 52 steps), and a
        # solve on all of [0, 1] took up to 16 array calls and 9 per target;
        # from the sample's cells it is at most 5, and ~4 past the two ends
        # the reference evaluates again
        assert max(array_calls.values()) <= 5, array_calls
        assert max(mean_calls.values()) <= 6.5, mean_calls

    @pytest.mark.parametrize("name", [
        "mix_cubic", "mix_quartic", "mix_dual_cubic", "mix_dual_quartic",
        "cubic_bend", "sys_two_parallel_pairs", "sys_one_of_two_pairs",
        "sys_five_comp_bridge", "sys_three_of_four",
        "sys_series_with_parallel_pair"])
    def test_smooth_catalog_distortions_match_scipy(self, name, named_distortions):
        h = named_distortions[name]
        got = distortions.inverse(h, self.TARGETS)
        res = find_root(lambda x, y: h.fn(x) - y, (0.0, 1.0), args=(self.TARGETS,))
        assert res.success.all()
        # scipy stops within 4 eps |x| of the root, this solve within its width
        assert np.all(np.abs(got - res.x) <= 8.0 * _MACHEPS * (1.0 + 2.0 * np.abs(res.x)))

    def test_hazard_quantile_starts_in_its_table_cell(self, monkeypatch):
        # the stencil of quantile_slopes on the default grid, the solve of
        # each side of a Weibull convex_transform check
        calls = []
        compile_fn = funcalc.compile_fn

        def recording(expr):
            fn = compile_fn(expr)
            return elementwise(lambda x: calls.append(np.array(x, dtype=float))
                               or fn(x))

        monkeypatch.setattr(funcalc, "compile_fn", recording)
        X = distributions.build("hazard: (x/1.40711)^1.93355")
        hi = float(calls[-1][-1])  # the build's last call is the table
        table = ([0.0] + [hi * 2.0 ** -k for k in range(70, 9, -1)]
                 + [hi * i / 512 for i in range(1, 513)])
        calls.clear()
        distributions.quantile_slopes(X, np.array(DEFAULT_GRID.points))
        assert calls
        # a solve on [0, hi] took 17 calls, the first at both ends
        assert len(calls) <= 8, len(calls)
        assert not np.isin(np.concatenate(calls), table).any()


def _flat(a, b):
    """A distortion flat at level a on [a, b]."""
    return elementwise(lambda p: np.where(
        p <= a, p, np.where(p <= b, a, a + (p - b) * (1.0 - a) / (1.0 - b))))


def _jump(at, rise):
    """A distortion that jumps by rise just past at."""
    return elementwise(lambda p: (1.0 - rise) * p + np.where(p > at, rise, 0.0))


def _dip(c, d, depth):
    """The identity up to c, then c - depth up to d: a drop of depth right
    after the sample point c, then linear up to h(1) = 1."""
    return elementwise(lambda p: np.where(
        p <= c, p, np.where(p <= d, c - depth, c + (p - d) * (1.0 - c) / (1.0 - d))))


unit_targets = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)


class TestCellStart:
    """A root solve started in the cell of a held sample against one on the
    whole range: the ends read from the sample are the ends evaluated, and
    both solves end within the stopping width of each other."""

    @given(k=st.floats(0.3, 4.0), lo=st.floats(0.0, 0.5), width=st.floats(0.01, 0.5),
           share=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_held_ends_are_the_evaluated_ends(self, k, lo, width, share):
        fn = elementwise(lambda x: x ** k)
        hi = lo + width
        y = fn(lo + np.array(share) * width)
        calls = [0]
        got = monotone_inverse(elementwise(_counted(fn, calls)), y, lo, hi,
                               values=(fn(lo), fn(hi)))
        assert _bits(got) == _bits(monotone_inverse(fn, y, lo, hi))
        ends = [0]
        monotone_inverse(elementwise(_counted(fn, ends)), y, lo, hi)
        assert calls[0] == ends[0] - 1  # the one call at both ends

    @staticmethod
    def _against_whole_range(h, y):
        h = distortions.validate(h, label="h")
        y = np.array(y)
        cell = distortions.inverse(h, y)
        whole = monotone_inverse(h.fn, y, 0.0, 1.0)
        for got, want, v in zip(cell.tolist(), whole.tolist(), y.tolist()):
            assert _within_stop_width(got, want), v
        return cell

    @given(a=st.floats(0.05, 0.9), share=st.floats(0.01, 0.9), y=unit_targets)
    def test_flat_parts(self, a, share, y):
        b = a + share * (1.0 - a)
        cell = self._against_whole_range(_flat(a, b), y + [a])
        assert abs(cell[-1] - a) <= 4.0 * _MACHEPS * (1.0 + 2.0 * a)

    @given(at=st.floats(0.05, 0.95), rise=st.floats(1e-3, 0.9), y=unit_targets)
    def test_jumps(self, at, rise, y):
        # a target inside the jump crosses just past at
        cell = self._against_whole_range(_jump(at, rise),
                                         y + [(1.0 - rise) * at + rise / 2.0])
        assert abs(cell[-1] - at) <= 4.0 * _MACHEPS * (1.0 + 2.0 * at)

    @given(i=st.integers(10, 400), span=st.integers(1, 100),
           depth=st.floats(1e-12, 0.9e-9), y=unit_targets)
    def test_a_dip_inside_the_tolerance(self, i, span, depth, y):
        c, d = i / 512, (i + span + 0.5) / 512
        h = _dip(c, d, depth)
        sample = h(np.array(_POINTS))
        assert np.any(np.diff(sample) < 0.0)
        # off the band [c - depth, c] the crossing is one point
        self._against_whole_range(h, [v for v in y if not c - depth <= v <= c])
        # inside it the running maximum still brackets the left crossing
        band = np.array([c - depth / 2.0, c])
        got = distortions.inverse(distortions.validate(h, label="h"), band)
        assert np.all(np.abs(got - band) <= 4.0 * _MACHEPS * (1.0 + 2.0 * band))


class TestSolveMemo:
    """A distortion remembers its root solves; a remembered point is the
    fresh solve bit for bit, and errors are the ones a memo-less solve
    raises."""

    def test_hits_equal_fresh_solves(self, fresh_distortions):
        hs = {name: h for name, h in fresh_distortions.items() if h.inverse_fn is None}
        assert len(hs) == 12
        rng = np.random.default_rng(7)
        first = rng.random(24)
        repeated = np.concatenate((first[::-1], first[:6], rng.random(4)))
        overlapping = np.concatenate((rng.random(5), first[3:9], repeated[-4:]))
        arrays = (first, repeated, overlapping, 1.0 - overlapping)
        # inverse solves at y, co_inverse at 1 - y
        targets = np.unique(np.concatenate([t for y in arrays for t in (y, 1.0 - y)]))
        for name, h in hs.items():
            for y in arrays:
                for fn, reference in ((distortions.inverse, _float_inverse),
                                      (distortions.co_inverse, _float_co_inverse)):
                    got = _bits(fn(h, y))
                    assert got == _bits(fn(replace(h), y)), name
                    assert got == _bits([reference(h, v) for v in y.tolist()]), name
            assert np.array_equal(h.solved[0], targets), name

    def test_no_target_is_solved_twice_across_a_pair(self, named_distributions,
                                                     fresh_distortions,
                                                     monkeypatch):
        # a scale pair shares every co-inverse target: X_h and Y_h read the
        # base quantile at the same levels and refine the same segments
        h = fresh_distortions["sys_one_of_two_pairs"]
        base = named_distributions["ce02_x"]
        scaled = distributions.from_quantile(
            elementwise(lambda p: 1.7 * base.quantile(p)), label="scaled",
            validate=False)
        Xh, Yh = distributions.distort(base, h), distributions.distort(scaled, h)
        solved = []
        real = distortions.monotone_inverse

        def counted(fn, y, lo, hi, values=None):
            solved.append(np.array(y))
            return real(fn, y, lo, hi, values=values)

        monkeypatch.setattr(distortions, "monotone_inverse", counted)
        grid = uniform_grid(48, edge_margin=0.01)
        Xh.quantile(np.array(grid.points))
        x_calls = len(solved)
        assert orders.check_order(Xh, Yh, orders.OrderKind.STAR, grid).holds
        assert len(solved) == x_calls  # the Y side's grid was all hits
        orders.transform_curves([Xh, Yh], grid)
        assert len(solved) > x_calls  # the quadrature nodes were solved
        for i, y in enumerate(solved):
            for other in solved[:i]:
                assert np.intersect1d(y, other).size == 0

    @pytest.mark.parametrize("fn, bad, message", [
        (lambda p: p * p, math.nan, r"^target nan outside \[0\.0, 1\.0\]$"),
        (lambda p: 0.9 * p, 0.95, r"^target 0\.95 outside \[0\.0, 0\.9\]$"),
    ])
    def test_a_bad_target_among_hits_raises_as_without_a_memo(self, fn, bad,
                                                              message):
        h = distortions.Distortion(fn=elementwise(fn), label="h",
                                   strictly_increasing=True)
        warm = np.linspace(0.05, 0.85, 17)
        distortions.inverse(h, warm)
        memo = h.solved
        # under 0.9 p, 0.97 is outside too: the first bad target is named
        y = np.concatenate((warm[:5], [0.3, bad, 0.97], warm[5:]))
        with pytest.raises(BracketError, match=message) as with_memo:
            distortions.inverse(h, y)
        with pytest.raises(BracketError) as without:
            distortions.inverse(replace(h), y)
        assert str(with_memo.value) == str(without.value)
        assert h.solved is memo  # nothing stored from the failed solve
        # co_inverse solves at 1 - p, screened against the same whole range
        with pytest.raises(BracketError, match=message):
            distortions.co_inverse(h, 1.0 - y)

    def test_the_memo_stays_within_its_limit(self):
        h = distortions.Distortion(fn=elementwise(lambda p: p * p), label="square",
                                   strictly_increasing=True)
        limit = distortions.SOLVED_LIMIT
        rng = np.random.default_rng(11)
        older, newer = rng.random(limit // 2 + 7), rng.random(limit // 2 + 7)
        for y in (older, newer, rng.random(limit + 100)):
            distortions.inverse(h, y)
            assert 0 < h.solved[0].size <= limit
        # on overflow the memo starts again from the newest solve
        distortions.inverse(h, older)
        keys = h.solved[0]
        assert keys.size == older.size and np.array_equal(keys, np.sort(older))

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


def _checked(fn, x):
    v = fn(x)
    i = np.flatnonzero(~np.isfinite(v))
    if i.size:
        raise NumericsError(f"integrand evaluated to {float(v[i[0]])!r} "
                            f"at x={float(x[i[0]])!r}")
    return v


def _blocks(index, ends):
    """(start, stop) of each block's run in a sorted index, for blocks of
    positions that end at ends."""
    stops = [index.size] if len(ends) == 1 else np.searchsorted(index, ends).tolist()
    return list(zip([0] + stops[:-1], stops))


def _two_call_integrate_many(fns, cuts, abs_tol, rel_tol):
    """integrate_many as it was when its first two levels took one call
    each: the cuts and the pieces' midpoints, then the midpoints of their
    halves in the loop's first pass."""
    outcomes = [None] * len(fns)
    live = np.flatnonzero(cuts[:-1] < cuts[1:])
    a, b = cuts[live], cuts[live + 1]
    m = 0.5 * (a + b)
    inner = np.flatnonzero((a < m) & (m < b))
    owners, at_cuts, fa, fm, fb = [], [], [], [], []
    for k, fn in enumerate(fns):
        try:
            f = _checked(fn, np.concatenate((cuts, m[inner])))
        except Exception as error:
            outcomes[k] = error
            continue
        owners.append(k)
        at_cuts.append(f[:cuts.size])
        fa.append(f[live])
        fb.append(f[live + 1])
        fm.append(np.where(m == a, fa[-1], fb[-1]))
        fm[-1][inner] = f[cuts.size:]
    if not owners:
        return outcomes
    n = len(owners)
    counts = [live.size] * n
    fa, fm, fb = np.concatenate(fa), np.concatenate(fm), np.concatenate(fb)
    a, b = np.concatenate([a] * n), np.concatenate([b] * n)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    eps = np.maximum(np.concatenate([np.broadcast_to(abs_tol, cuts.size - 1)[live]] * n),
                     rel_tol * np.abs(whole))
    levels, depth = [], MAX_SIMPSON_DEPTH
    while a.size:
        m = 0.5 * (a + b)
        lo, hi = numerics._pairs(a, m), numerics._pairs(m, b)
        flo, fhi = numerics._pairs(fa, fm), numerics._pairs(fm, fb)
        x = 0.5 * (lo + hi)
        fx = np.where(x == lo, flo, fhi)
        inner = np.flatnonzero((lo < x) & (x < hi))
        ends = list(itertools.accumulate(counts))
        failed = []
        for j, (start, stop) in enumerate(_blocks(inner, [2 * e for e in ends])):
            if counts[j]:
                part = inner[start:stop]
                try:
                    fx[part] = _checked(fns[owners[j]], x[part])
                except Exception as error:
                    outcomes[owners[j]] = error
                    failed.append(j)
        halves = (hi - lo) * (flo + 4.0 * fx + fhi) / 6.0
        s_left, s_right = halves[0::2], halves[1::2]
        delta = s_left + s_right - whole
        noise = 50.0 * _MACHEPS * (np.abs(s_left) + np.abs(s_right) + np.abs(whole))
        value = s_left + s_right + delta / 15.0
        moved = np.abs(delta)
        split = np.flatnonzero((moved > 15.0 * eps) & (moved > noise))
        blocks = _blocks(split, ends)
        for j, (start, stop) in enumerate(blocks):
            if (start < stop and j not in failed
                    and (depth <= 0 or 2 * (stop - start) > MAX_LIVE_PANELS)):
                i = split[start]
                outcomes[owners[j]] = QuadratureFailure(
                    f"adaptive Simpson did not converge on "
                    f"[{float(a[i])!r}, {float(b[i])!r}]",
                    last_estimate=float(value[i]))
                failed.append(j)
        keep = np.ones(split.size, dtype=bool)
        for j in failed:
            keep[slice(*blocks[j])] = False
            blocks[j] = (0, 0)
        split = split[keep]
        counts = [2 * (stop - start) for start, stop in blocks]
        levels.append((value, split))
        kids = (2 * split[:, None] + [0, 1]).ravel()
        a, b, fa, fm, fb = lo[kids], hi[kids], flo[kids], fx[kids], fhi[kids]
        whole = halves[kids]
        eps = np.repeat(0.5 * eps[split], 2)
        depth -= 1
    below = np.zeros(0)
    for value, split in reversed(levels):
        value[split] = below[0::2] + below[1::2]
        below = value
    for k, f, pieces in zip(owners, at_cuts, below.reshape(n, live.size)):
        if outcomes[k] is None:
            total = np.zeros(cuts.size - 1)
            total[live] = pieces
            outcomes[k] = (total, f)
    return outcomes


def _partition(xs, repeats, ulps):
    """Sorted cuts from xs: repeated cuts make empty pieces, and cuts one
    float apart make pieces whose midpoints round onto an end."""
    cuts = [xs[0]]
    for _ in range(ulps):
        cuts.append(math.nextafter(cuts[-1], math.inf))
    return np.array(sorted(xs + xs[:repeats] + cuts[1:]))


def _assert_same_outcome(got, want):
    """Two integrate_many outcomes: the same arrays bit for bit, or the same
    error with the same message and estimate."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
    else:
        assert str(got) == str(want)
        assert getattr(got, "last_estimate", None) == getattr(
            want, "last_estimate", None)


def _reference_curves(q, grid):
    """transform_curves assembled from per-segment recursive integrals of
    the float quantile q, the head and the upper tail each over its ladder."""
    eps = distributions.EPS_Q
    seg_tol = orders._SEGMENT_TOL
    pts = grid.points
    p = np.array(pts)
    qv = np.array([q(x) for x in pts])

    def laddered(a, b, toward_b):
        # rungs whose widths halve toward one end, each integrated alone
        # at its share of the tolerance, summed exactly
        halves = [(b - a) * 0.5 ** j for j in range(1, 44)]
        cuts = ([a] + [b - w for w in halves] + [b] if toward_b
                else [a] + [a + w for w in reversed(halves)] + [b])
        clean = [cuts[0]]
        for x in cuts[1:]:
            if x > clean[-1]:
                clean.append(x)
        rung_tol = Tolerance(abs_tol=max(seg_tol.abs_tol / len(clean), 1e-16),
                             rel_tol=seg_tol.rel_tol)
        return math.fsum(_recursive_integrate(q, lo, hi, rung_tol)
                         for lo, hi in zip(clean, clean[1:]))

    head = laddered(eps, pts[0], toward_b=False)
    segments = [_recursive_integrate(q, a, b, seg_tol) for a, b in zip(pts, pts[1:])]
    tail = laddered(pts[-1], 1.0 - eps, toward_b=True)
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
        q = X.quantile
        if X.label.startswith("hazard:"):
            q = _float_hazard_quantile(X.label[len("hazard:"):])
        grid = uniform_grid(48, edge_margin=0.01)
        got = orders.transform_curves([X], grid)[0]
        want = _reference_curves(q, grid)
        for key, values in want.items():
            np.testing.assert_allclose(got[key], values, rtol=1e-14, atol=0.0)

    def test_distorted_curves_match(self, named_distributions, fresh_distortions):
        base = named_distributions["ce02_y"]
        h = fresh_distortions["sys_five_comp_bridge"]
        X = distributions.distort(base, h)
        grid = uniform_grid(24, edge_margin=0.01)
        got = orders.transform_curves([X], grid)[0]
        q = _float_distorted_quantile(base.quantile, h)
        for key, values in _reference_curves(q, grid).items():
            np.testing.assert_allclose(got[key], values, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", [0.02, 1.3])
    def test_x_space_gap_equals_the_pointwise_integral(self, t, named_distributions):
        # the qmit counterexample pair: kinked hazard and unit exponential,
        # both under 1 - (1 - p)^5
        h = distortions.dualpower(5.0)
        X = distributions.distort(named_distributions["ce01_x"], h)
        Y = distributions.distort(named_distributions["exp_1"], h)
        F = _float_distorted_cdf(_float_hazard_cdf(catalog.PSI_TEXT), h)
        q_y = _float_distorted_quantile(named_distributions["exp_1"].quantile, h)
        want = _float_xspace_gap(lambda x: _float_cdf(F, None, x), q_y, t)
        assert _bits([orders.qmit_xspace_integral(X, Y, t)]) == _bits([want])

    def test_x_space_gap_calls_once_per_level(self, named_distributions, monkeypatch):
        # cdf and q_Y take the points of a quadrature level as one array,
        # those of the first two levels in the first call: per integrand
        # call one cdf for F, and one cdf and one q_Y for each of the two
        # alpha' stencils; one more of each for alpha'(t)
        h = distortions.dualpower(5.0)
        X = distributions.distort(named_distributions["ce01_x"], h)
        Y = distributions.distort(named_distributions["exp_1"], h)
        calls = {"cdf": 0, "quantile": 0, "integrand": 0, "points": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            wrapper.__wrapped__ = fn
            return wrapper

        def integrate(fn, *args):
            def integrand(x):
                calls["points"] += x.size
                return counted("integrand", fn)(x)
            return real_integrate(elementwise(integrand), *args)

        real_integrate = orders.integrate
        monkeypatch.setattr(orders, "integrate", integrate)
        monkeypatch.setattr(orders, "cdf", counted("cdf", orders.cdf))
        Y.quantile = counted("quantile", Y.quantile)
        orders.qmit_xspace_integral(X, Y, 1.3)
        integrand_calls = calls["integrand"]
        assert integrand_calls <= MAX_SIMPSON_DEPTH + 1
        assert calls["cdf"] == 3 * integrand_calls + 1
        assert calls["quantile"] == 2 * integrand_calls + 1
        assert calls == {"cdf": 43, "quantile": 29, "integrand": 14, "points": 185}

    @given(xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           repeats=st.integers(0, 3), ulps=st.integers(0, 3))
    def test_each_piece_as_alone(self, xs, repeats, ulps):
        fn = _compiled("x", "exp(x) * sqrt(x*x + 1)")
        cuts = _partition(xs, repeats, ulps)
        tol = Tolerance(abs_tol=1e-11, rel_tol=1e-11)
        got = settled(integrate_many([fn], cuts, tol.abs_tol, tol.rel_tol)[0])[0]
        assert got.tolist() == [_recursive_integrate(fn, x, y, tol)
                                for x, y in zip(cuts[:-1].tolist(), cuts[1:].tolist())]

    @given(xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           repeats=st.integers(0, 3), ulps=st.integers(0, 3))
    def test_first_call_covers_two_levels(self, xs, repeats, ulps):
        # the outcomes of the loop whose first two levels took two calls,
        # bit for bit, errors included; each integrand that got past its
        # first level makes one call fewer
        cuts = _partition(xs, repeats, ulps)
        fns = [_compiled("x", "exp(x) * sqrt(x*x + 1)"),
               _compiled("x", "piece(x <= 0.5 : x ; else : x + 1)"),
               _compiled("x", "ln(x + 2.5)"),
               elementwise(lambda x: np.where(np.abs(x - 1.1) < 1e-3, np.nan, x))]
        counts = {}

        def counted(key, fn):
            counts[key] = 0

            def wrapper(x):
                counts[key] += 1
                return fn(x)
            return elementwise(wrapper)

        got = integrate_many([counted(("got", k), fn) for k, fn in enumerate(fns)],
                             cuts, 1e-11, 1e-11)
        want = _two_call_integrate_many(
            [counted(("want", k), fn) for k, fn in enumerate(fns)], cuts, 1e-11, 1e-11)
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_outcome(g, w)
            fewer = 1 if counts["want", k] > 1 else 0
            assert counts["got", k] == counts["want", k] - fewer

    @given(xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           repeats=st.integers(0, 3), ulps=st.integers(0, 3),
           order=st.permutations(range(5)))
    def test_permuted_integrands_permute_the_outcomes(self, xs, repeats, ulps, order):
        # each panel carries its integrand's index, so where an integrand
        # stands among the others changes nothing of its own: its piece
        # values, its values at the cuts, its error and its call count
        cuts = _partition(xs, repeats, ulps)
        fns = [_compiled("x", "exp(x) * sqrt(x*x + 1)"),
               _compiled("x", "piece(x <= 0.5 : x ; else : x + 1)"),
               _compiled("x", "ln(x + 2.5)"),
               elementwise(lambda x: np.where(np.abs(x - 1.1) < 1e-3, np.nan, x)),
               _compiled("x", "1 / (1 + 25*x*x)")]
        counts = {}

        def counted(key, fn):
            counts[key] = 0

            def wrapper(x):
                counts[key] += 1
                return fn(x)
            return elementwise(wrapper)

        given_order = integrate_many([counted(("given", k), fn) for k, fn in enumerate(fns)],
                                     cuts, 1e-11, 1e-11)
        permuted = integrate_many([counted(("permuted", k), fns[k]) for k in order],
                                  cuts, 1e-11, 1e-11)
        for got, k in zip(permuted, order):
            _assert_same_outcome(got, given_order[k])
            assert counts["permuted", k] == counts["given", k]

    @given(xs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12),
           repeats=st.integers(0, 3))
    def test_values_at_the_cuts_are_fn_at_the_cuts(self, xs, repeats):
        # bit for bit, so the transform pass can read q at the grid from them
        fn = _compiled("x", "exp(x) * sqrt(x*x + 1)")
        cuts = np.array(sorted(xs + xs[:repeats]))
        at_cuts = settled(integrate_many([fn], cuts, 1e-11, 1e-11)[0])[1]
        assert _bits(at_cuts) == _bits(fn(cuts))
        assert _bits(at_cuts) == _bits([fn(x) for x in cuts.tolist()])

    def test_unsorted_cuts_are_refused(self):
        with pytest.raises(ValueError, match="reversed integration interval"):
            integrate_many([np.exp], np.array([0.0, 1.0, 0.5]), 1e-11, 1e-11)

    def test_rough_everywhere_fails_before_the_panels_pile_up(self):
        # noise keeps every panel open, doubling them each level; the pass
        # gives up at the first level over MAX_LIVE_PANELS, not at depth 40
        rng = np.random.default_rng(0)
        noise = elementwise(lambda p: rng.random(np.shape(p)))
        assert MAX_LIVE_PANELS == 1 << 18
        with pytest.raises(QuadratureFailure,
                           match=rf"on \[0\.0, {2.0 ** -18!r}\]"):
            settled(integrate_many([noise], np.array([0.0, 1.0]), 1e-13, 1e-12)[0])

    def test_failure_names_the_panel_the_recursion_would(self):
        # the smooth pieces before the jump close; the failure is the jump's
        jump = _compiled("p", "piece(p <= 0.5 : p ; else : p + 1)")
        tol = Tolerance(abs_tol=1e-13, rel_tol=1e-12)
        with pytest.raises(QuadratureFailure) as batched:
            settled(integrate_many([jump], np.array([0.1, 0.2, 0.499, 0.501]),
                                   tol.abs_tol, tol.rel_tol)[0])
        with pytest.raises(QuadratureFailure) as recursive:
            _recursive_integrate(jump, 0.499, 0.501, tol)
        assert str(batched.value) == str(recursive.value)
        assert batched.value.last_estimate == recursive.value.last_estimate

    def test_each_integrand_fails_alone(self):
        # one rough everywhere runs past MAX_LIVE_PANELS, a jump into the
        # depth cap, and one goes nan deep inside, while the smooth ones go
        # on: each outcome is the one the integrand has alone
        smooth = _compiled("x", "exp(x) * sqrt(x*x + 1)")
        rough = elementwise(lambda x: (x * 1e13) % 1.0)
        jump = _compiled("x", "piece(x <= 0.5 : x ; else : x + 1)")
        late_nan = elementwise(lambda x: np.where((x > 0.5) & (x < 0.5 + 1e-9),
                                                  np.nan, x + (x > 0.5)))
        cuts = np.array([0.1, 0.2, 0.499, 0.501, 0.9])
        fns = [rough, smooth, jump, late_nan, np.exp]
        joint = integrate_many(fns, cuts, 1e-13, 1e-12)
        kinds = []
        for fn, got in zip(fns, joint):
            [want] = integrate_many([fn], cuts, 1e-13, 1e-12)
            kinds.append(type(got).__name__)
            _assert_same_outcome(got, want)
        assert kinds == ["QuadratureFailure", "tuple", "QuadratureFailure",
                         "NumericsError", "tuple"]
        with pytest.raises(NumericsError, match=r"^integrand evaluated to nan"):
            settled(joint[3])

    @pytest.mark.parametrize("spec, h, grid", [
        ("q: 17/8*p - 1/2*p^2", None, DEFAULT_GRID),
        ("exp:1", "dualpower_5", DEFAULT_GRID),
        ("q: " + catalog.CE02_X_TEXT, "sys_one_of_two_pairs",
         uniform_grid(48, edge_margin=0.01)),
    ], ids=["polynomial", "exp_under_dualpower5", "ce02_x_under_system"])
    def test_transform_pass_evaluates_each_point_once(self, spec, h, grid,
                                                      fresh_distortions):
        # the first quadrature call takes the grid, the ladder cuts and
        # both end points with the midpoints and their halves' midpoints;
        # the tail ladder's last rungs are a float or two wide, so their
        # midpoints round onto cuts
        X = distributions.build(spec)
        if h is not None:
            X = distributions.distort(X, fresh_distortions[h])
        seen = []
        q = X.quantile

        @elementwise
        def recorded(p):
            seen.append(p.copy())
            return q(p)

        orders.transform_curves([replace(X, quantile=recorded)], grid)
        points = np.concatenate(seen)
        assert np.unique(points).size == points.size
        if h is None:
            # one call for the cuts, the midpoints and the midpoints of the
            # halves, whose level closes every panel
            assert len(seen) == 1


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


def _float_cop_eval(handle, point):
    """cop_eval at a point of floats, as it was evaluated before floats
    entered the array evaluation."""
    n = handle.n
    if len(point) != n:
        raise ValueError(f"point has {len(point)} components, copula needs {n}")
    for p in point:
        if not (math.isfinite(p) and -1e-12 <= p <= 1.0 + 1e-12):
            raise ValueError(f"component {p!r} outside [0,1]")
    if handle.kind == "product":
        return math.prod(point)
    if handle.kind == "comonotone":
        return min(point)
    if handle.kind == "durante":
        # smallest component times f of each larger one
        ordered = sorted(point)
        value = ordered[0]
        for p in ordered[1:]:
            value *= float(handle.generator.fn(p))
        return value
    if handle.kind == "jaworski":
        # rotation i: min(f over the components other than i, d(p_i))
        d = handle.diagonal
        fvals = [(n * p - float(d.fn(p))) / (n - 1) for p in point]
        dvals = [float(d.fn(p)) for p in point]
        total = 0.0
        for i, dv in enumerate(dvals):
            total += min(min(fvals[:i] + fvals[i + 1:]), dv)
        return total / n
    u, v = point
    if handle.kind == "cuadras_auge":
        if u <= 0.0 or v <= 0.0:
            return 0.0
        return min(u, v) ** handle.theta * (u * v) ** (1.0 - handle.theta)
    return handle.gamma * min(u, v) + (1.0 - handle.gamma) * u * v


def _float_loop(handle, rows):
    """The float reference entry by entry: (values, message of the first
    error)."""
    values = []
    for point in rows:
        try:
            values.append(_float_cop_eval(handle, list(point)))
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
            want = [_float_cop_eval(handle, [x] * i + [1.0] * (n - i))
                    for x in ps]
            assert np.array_equal(got, want)
            assert _bits(got) == _bits(want)
        got = copulas.cop_eval(handle, [1.0 - p] * n)
        want = [_float_cop_eval(handle, [1.0 - x] * n) for x in ps]
        assert _bits(got) == _bits(want)
        point = [ps[-1]] + [0.5] * (n - 1)
        assert _is_float_of(copulas.cop_eval(handle, point),
                            copulas.cop_eval(handle, [np.array([x]) for x in point]))

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
        want = [_float_cop_eval(handle, [0.25, x, 1.0, x, 0.5])
                for x in p.tolist()]
        assert got.shape == p.shape
        assert _bits(got) == _bits(want)
        grid = p.reshape(3, 3)
        assert copulas.cop_eval(handle, [grid] * 5).shape == (3, 3)

    @pytest.mark.parametrize("kind", list(COPULAS))
    def test_results_are_new_writeable_arrays(self, kind):
        # a caller may write into the result: it must be a new array, not
        # a read-only broadcast of a float or a component itself
        handle = COPULAS[kind]()
        p = np.linspace(0.0, 1.0, 9)
        for point in ([p] + [0.5] * (handle.n - 1), [1.0] * (handle.n - 1) + [p],
                      [p] * handle.n):
            got = copulas.cop_eval(handle, point)
            assert got.flags.writeable
            assert not np.shares_memory(got, p)

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
        # a point of floats meets the array path's checks and messages
        for point, message in (([0.5, math.nan, 2.0], r"^component nan outside \[0,1\]$"),
                               ([0.5, 0.5, -1.0], r"^component -1\.0 outside \[0,1\]$"),
                               ([0.5, 0.5], r"^point has 2 components, copula needs 3$")):
            with pytest.raises(ValueError, match=message):
                copulas.cop_eval(handle, point)
            with pytest.raises(ValueError, match=message):
                _float_cop_eval(handle, point)

    @pytest.mark.parametrize("kind", list(COPULAS))
    def test_system_distortions_take_arrays(self, kind, monkeypatch):
        handle = COPULAS[kind]()
        sig = systems.parse_signature({2: "2,-1", 3: "3,-3,1", 4: "2,0,-2,1",
                                       5: "5,-10,10,-5,1"}[handle.n])
        pts = np.linspace(0.0, 1.0, 65)
        fns = [systems._boundary_sum(sig, handle)]
        if kind not in ("durante", "jaworski"):
            fns += [systems.parallel_distortion(handle).fn,
                    systems.series_distortion(handle).fn]
        got = [fn(pts) for fn in fns]
        # the same system formulas on floats, over the float reference
        monkeypatch.setattr(copulas, "cop_eval", _float_cop_eval)
        for fn, values in zip(fns, got):
            assert _bits(values) == _bits([fn(x) for x in pts.tolist()])

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
