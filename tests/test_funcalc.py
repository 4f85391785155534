"""Expression language: parsing, precedence, evaluation, errors."""

from __future__ import annotations

import math
import re

import pytest

from stochorder import catalog
from stochorder.funcalc import (
    MAX_DEPTH,
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    Piecewise,
    compile_fn,
    eval_expr,
    free_variable,
    parse,
    parse_constant,
)


class TestPrecedence:
    def test_multiplication_binds_tighter_than_addition(self):
        assert parse_constant("2+3*4") == 14.0

    def test_power_is_right_associative(self):
        assert parse_constant("2^3^2") == 512.0

    def test_power_binds_tighter_than_multiplication(self):
        assert parse_constant("2*3^2") == 18.0

    def test_parentheses_override(self):
        assert parse_constant("(2+3)*4") == 20.0

    def test_division_is_left_associative(self):
        assert parse_constant("6/3/2") == 1.0

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_constant("-2^2") == -4.0

    def test_unary_minus_in_sums(self):
        assert parse_constant("-3+5") == 2.0
        assert parse_constant("2 - -3") == 5.0


class TestConstantsAndCalls:
    def test_euler_constant(self):
        assert parse_constant("e") == math.e

    def test_exponential_and_log(self):
        assert parse_constant("exp(1)") == math.e
        assert parse_constant("ln(e)") == 1.0

    def test_sqrt(self):
        assert parse_constant("sqrt(4)") == 2.0

    def test_min_max(self):
        assert parse_constant("min(2, 3)") == 2.0
        assert parse_constant("max(2, 3)") == 3.0

    def test_rational_literals_stay_exact(self):
        assert parse_constant("17/8") == 17.0 / 8.0
        assert parse_constant("1/3") == 1.0 / 3.0


class TestVariables:
    def test_default_variable_p(self):
        fn = compile_fn(parse("p^2 + 1"))
        assert fn(0.5) == 1.25

    def test_alternate_variable_x(self):
        fn = compile_fn(parse("x^2", variables=("x",)))
        assert fn(3.0) == 9.0

    def test_free_variable_reported(self):
        assert free_variable(parse("p + 1")) == "p"
        assert free_variable(parse("2 + 3")) is None

    def test_unknown_variable_rejected(self):
        with pytest.raises(ExprError):
            parse("y + 1", variables=("p",))

    def test_parse_constant_rejects_variables(self):
        with pytest.raises(ExprError):
            parse_constant("p + 1")


class TestPiecewise:
    def test_branch_selection(self):
        fn = compile_fn(parse(catalog.PSI_TEXT, variables=("x",)))
        assert fn(0.5) == pytest.approx(math.exp(0.5) - 1.0, abs=1e-15)
        assert fn(1.2) == pytest.approx(
            2.0 * math.e * math.sqrt(1.2) - math.e - 1.0, abs=1e-14)
        tail = (5.0 / 13.0) * math.sqrt(10.0 / 13.0)
        expected = (tail * math.exp(4.0 - 0.69)
                    + 2.0 * (math.sqrt(1.3) - 1.0) * math.e
                    - tail * math.e + math.e - 1.0)
        assert fn(2.0) == pytest.approx(expected, rel=1e-14)

    def test_branch_values_agree_at_knots(self):
        node = parse(catalog.PSI_TEXT, variables=("x",))
        assert isinstance(node, Piecewise)
        assert [b.bound_value for b in node.branches] == [1.0, 1.3]
        first, second = node.branches
        assert abs(eval_expr(first.body, 1.0)
                   - eval_expr(second.body, 1.0)) < 1e-12
        assert abs(eval_expr(second.body, 1.3)
                   - eval_expr(node.otherwise, 1.3)) < 1e-12

    def test_piecewise_requires_else(self):
        with pytest.raises(ExprError):
            parse("piece(x <= 1 : x)", variables=("x",))


class TestErrors:
    @pytest.mark.parametrize("source", ["2+", "foo(2)", ")(", "", "2**3",
                                        "min(2)", "piece(p : 1 ; else : 2)"])
    def test_syntax_errors(self, source):
        with pytest.raises(ExprError):
            parse(source)

    def test_syntax_error_is_expr_error_subclass(self):
        with pytest.raises(ExprSyntaxError):
            parse("2+")

    def test_log_domain(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse("ln(x)", variables=("x",)), -1.0)

    def test_sqrt_domain(self):
        with pytest.raises(ExprDomainError):
            eval_expr(parse("sqrt(x)", variables=("x",)), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(ExprDomainError):
            parse_constant("1/0")

    @pytest.mark.parametrize("source, excerpt", [("1e400", "1e400"),
                                                 ("p + (0-2)^1e400", "1e400"),
                                                 ("p^1e309", "1e309"),
                                                 ("2 * 99999e999", "99999e999")])
    def test_literal_that_overflows_is_a_located_syntax_error(self, source,
                                                             excerpt):
        start = source.index(excerpt)
        span = f"{start}..{start + len(excerpt)} {excerpt!r}"
        with pytest.raises(ExprSyntaxError,
                           match=rf"^number out of range \(at {re.escape(span)}\)$"):
            parse(source)

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * (n - 1) + "p" + ")" * (n - 1),   # grammar nesting
        lambda n: "+".join(["p"] * n),                    # a left-deep sum
        lambda n: "-" * (n - 1) + "p",                    # nested negations
        lambda n: "max(" * (n - 1) + "p" + ", 1)" * (n - 1),
        lambda n: "2^" * (n - 1) + "p",                   # an exponent tower
    ], ids=["parentheses", "sum", "negation", "calls", "powers"])
    def test_nesting_deeper_than_the_bound_is_a_syntax_error(self, nest):
        # MAX_DEPTH levels parse; one more is refused with a span, before
        # parsing, compiling or evaluating it could pass the recursion limit
        assert parse(nest(MAX_DEPTH)) is not None
        with pytest.raises(ExprSyntaxError,
                           match=rf"^expression nested deeper than {MAX_DEPTH} "
                                 r"levels \(at \d+\.\.\d+ "):
            parse(nest(MAX_DEPTH + 1))

    def test_expression_at_the_depth_bound_evaluates(self):
        assert parse_constant("+".join(["1"] * MAX_DEPTH)) == MAX_DEPTH
        assert eval_expr(parse("-" * (MAX_DEPTH - 1) + "p"), 0.25) == -0.25

    def test_largest_finite_literal_is_kept(self):
        assert parse_constant("1.7976931348623157e308") == 1.7976931348623157e308

    def test_error_carries_source_span(self):
        try:
            parse("2 + foo(3)")
        except ExprError as ex:
            assert "foo" in str(ex)
        else:  # pragma: no cover
            pytest.fail("expected a parse error")
