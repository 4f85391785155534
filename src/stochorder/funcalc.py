"""Tiny expression language for quantiles, hazards, and distortions.

Grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds above unary minus
    atom    := NUMBER | 'e' | VARIABLE
             | FUNC '(' expr (',' expr)* ')'
             | '(' expr ')'
             | 'piece' '(' guard (';' guard)* ';' 'else' ':' expr ')'
    guard   := VARIABLE '<=' const-expr ':' expr

so ``2^3^2`` is 512, ``-x^2`` is -(x^2), and ``2^-1`` is 0.5.  Functions are
exp, ln, sqrt and n-ary min/max; ``e`` is Euler's constant.  An expression may
use one variable (``p`` or ``x`` by default).  Piecewise guards must be
constants, strictly increasing left to right, and branch selection is
left-closed: the value goes to the first branch whose bound it does not
exceed.

Every AST node carries a source span; syntax and evaluation-domain errors
point back at the offending text; input nested past MAX_DEPTH is a syntax
error.  An evaluation runs the compiled tree once, with floating-point
errors raising, and each node names the domain rule its own operation broke;
when an array raises, halving finds its first offending entry
(``_evaluator``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .numerics import each, elementwise, lift, on_arrays

FUNCTIONS = ("exp", "ln", "sqrt", "min", "max")
DEFAULT_VARIABLES = ("p", "x")
# deepest nesting a parse accepts, of the grammar rules (each nested rule
# recurses through parse_unary) and of the tree it builds: parsing,
# compiling and evaluating each recurse once per level
MAX_DEPTH = 100


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    excerpt: str

    def __str__(self) -> str:
        return f"{self.start}..{self.end} {self.excerpt!r}"


class ExprError(Exception):
    """reason: the message without its span; span: where it points."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.reason, self.span = message, span
        if span is not None:
            message = f"{message} (at {span})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class ExprDomainError(ExprError):
    pass


@dataclass(frozen=True)
class Expr:
    span: SourceSpan
    depth = 1  # tree levels at and under the node; the parser sets it on inner nodes


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple


@dataclass(frozen=True)
class Branch:
    bound_expr: Expr
    bound_value: float
    body: Expr


@dataclass(frozen=True)
class Piecewise(Expr):
    var: str
    branches: tuple
    otherwise: Expr


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int
    end: int


_TOKEN_RE = re.compile(
    r"(?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<le><=)"
    r"|(?P<op>[-+*/^();:,])"
    r"|(?P<ws>\s+)"
)


def _tokenize(source: str) -> list:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, source[pos:pos + 1])
            raise ExprSyntaxError("unexpected character", span)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), m.start(), m.end()))
        pos = m.end()
    tokens.append(_Token("end", "", len(source), len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str]):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.allowed = tuple(variables)
        self.seen_var: Optional[str] = None
        self.level = 0  # parse_unary calls open

    def span_of(self, tok: _Token) -> SourceSpan:
        return SourceSpan(tok.start, tok.end, self.source[tok.start:tok.end])

    def merge(self, a: SourceSpan, b: SourceSpan) -> SourceSpan:
        return SourceSpan(a.start, b.end, self.source[a.start:b.end])

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ExprSyntaxError(f"expected {want!r}", self.span_of(tok))
        return self.next()

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def built(self, node: Expr, *children: Expr) -> Expr:
        """node, whose tree depth is one more than its deepest child's."""
        depth = 1 + max([c.depth for c in children])
        if depth > MAX_DEPTH:
            raise _too_deep(node.span)
        object.__setattr__(node, "depth", depth)
        return node

    def binary(self, op: str, left: Expr, right: Expr) -> Expr:
        return self.built(Binary(self.merge(left.span, right.span), op, left, right), left, right)

    # --- grammar ---

    def parse(self) -> Expr:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError("trailing input", self.span_of(tok))
        return node

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.next().text
            node = self.binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.next().text
            node = self.binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        self.level += 1
        if self.level > MAX_DEPTH:
            raise _too_deep(self.span_of(self.peek()))
        if self.at_op("-"):
            tok = self.next()
            operand = self.parse_unary()
            node = self.built(Unary(self.merge(self.span_of(tok), operand.span), "-", operand),
                              operand)
        else:
            node = self.parse_power()
        self.level -= 1
        return node

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_op("^"):
            self.next()
            return self.binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError("number out of range", self.span_of(tok))
            return Num(self.span_of(tok), value)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            node = self.parse_expr()
            close = self.expect("op", ")")
            inner_span = self.merge(self.span_of(tok), self.span_of(close))
            return _respan(node, inner_span)
        if tok.kind == "name":
            if tok.text == "piece":
                return self.parse_piece()
            if tok.text == "e":
                self.next()
                return Const(self.span_of(tok), "e", math.e)
            if tok.text in FUNCTIONS:
                return self.parse_call()
            if tok.text == "else":
                raise ExprSyntaxError("'else' outside piece(...)", self.span_of(tok))
            return self.parse_variable()
        raise ExprSyntaxError("expected a value", self.span_of(tok))

    def parse_variable(self) -> Expr:
        tok = self.next()
        name = tok.text
        if name not in self.allowed:
            raise ExprSyntaxError(f"unknown identifier {name!r}", self.span_of(tok))
        if self.seen_var is None:
            self.seen_var = name
        elif self.seen_var != name:
            raise ExprSyntaxError(
                f"expression must use a single variable, saw {self.seen_var!r} and {name!r}",
                self.span_of(tok),
            )
        return Var(self.span_of(tok), name)

    def parse_call(self) -> Expr:
        name_tok = self.next()
        self.expect("op", "(")
        args = [self.parse_expr()]
        while self.at_op(","):
            self.next()
            args.append(self.parse_expr())
        close = self.expect("op", ")")
        span = self.merge(self.span_of(name_tok), self.span_of(close))
        name = name_tok.text
        if name in ("exp", "ln", "sqrt") and len(args) != 1:
            raise ExprSyntaxError(f"{name} takes one argument", span)
        if name in ("min", "max") and len(args) < 2:
            raise ExprSyntaxError(f"{name} needs at least two arguments", span)
        return self.built(Call(span, name, tuple(args)), *args)

    def parse_piece(self) -> Expr:
        head = self.next()  # 'piece'
        self.expect("op", "(")
        branches = []
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "else":
                self.next()
                self.expect("op", ":")
                otherwise = self.parse_expr()
                break
            self.parse_variable()
            self.expect("le")
            bound_expr = self.parse_expr()
            if free_variable(bound_expr) is not None:
                raise ExprSyntaxError("piece guard bound must be constant", bound_expr.span)
            bound_value = eval_expr(bound_expr, 0.0)
            self.expect("op", ":")
            body = self.parse_expr()
            branches.append(Branch(bound_expr, bound_value, body))
            self.expect("op", ";")
        close = self.expect("op", ")")
        if not branches:
            raise ExprSyntaxError("piece(...) needs at least one guarded branch",
                                  self.span_of(head))
        for a, b in zip(branches, branches[1:]):
            if not a.bound_value < b.bound_value:
                raise ExprSyntaxError(
                    f"piece guard bounds must be strictly increasing, "
                    f"got {a.bound_value!r} then {b.bound_value!r}",
                    b.bound_expr.span,
                )
        span = self.merge(self.span_of(head), self.span_of(close))
        # every guard tests the one variable parse_variable saw
        return self.built(Piecewise(span, self.seen_var, tuple(branches), otherwise),
                          otherwise, *(b.body for b in branches))


def _too_deep(span: SourceSpan) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", span)


def _respan(node: Expr, span: SourceSpan) -> Expr:
    # parenthesized atoms report the span including the parens
    object.__setattr__(node, "span", span)
    return node


def free_variable(node: Expr) -> Optional[str]:
    """Name of the variable the expression uses, or None when constant."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return free_variable(node.operand)
    if isinstance(node, Binary):
        return free_variable(node.left) or free_variable(node.right)
    if isinstance(node, Call):
        for a in node.args:
            v = free_variable(a)
            if v is not None:
                return v
        return None
    if isinstance(node, Piecewise):
        return node.var
    return None


def parse(source: str, variables: Sequence[str] = DEFAULT_VARIABLES) -> Expr:
    """Parse source into an AST; raises ExprSyntaxError with a span on failure."""
    return _Parser(source, variables).parse()


def parse_constant(source: str) -> float:
    """Parse and evaluate a variable-free expression (CLI parameters)."""
    return eval_expr(parse(source, variables=()), 0.0)


def format_constant(x: float) -> str:
    """x as label text that parse_constant reads back to x exactly: "%g"
    where that round-trips (1, 0.5, 2.5), else repr (1.23456789012)."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def eval_expr(node: Expr, value: float) -> float:
    """Evaluate with the expression's single variable bound to ``value``.

    Raises ExprDomainError (with the offending subexpression's span) for
    ln of a non-positive number, sqrt of a negative, division by zero,
    0^negative, a negative base with a non-integer exponent, and overflow.
    """
    return on_arrays(_evaluator(node), float(value))


# --- evaluation ------------------------------------------------------------
#
# Each node compiles once, to a closure run(v) -> values: v is the float
# array of the variable's values, values an array of v's shape (a float for
# a constant), computed with the floating-point operations of an evaluation
# one float at a time (numpy arithmetic, the math functions entry by entry),
# so each entry equals that float's value bit for bit.  A node runs its
# operands first, then its own operation, and turns what that operation
# raises into the ExprDomainError of the rule it broke (see _evaluator).
# A constant subtree folds to its value, or to a closure that raises the
# error of the rule it always breaks, a fresh one on each call.

_RAISE = dict(all="raise", under="ignore")  # the np.errstate of every run


def _compile(node: Expr) -> tuple:
    """(run, value): value is the folded value of a constant node (0.0 for
    one that breaks a rule), None for any other."""
    if isinstance(node, (Num, Const)):
        value = node.value
        return (lambda v: value), value
    if isinstance(node, Var):
        return (lambda v: v), None
    if isinstance(node, Piecewise):
        return _piecewise(node), None
    if isinstance(node, Unary):
        parts = [_compile(node.operand)]
        operand = parts[0][0]
        run = lambda v: -operand(v)
    elif isinstance(node, Binary):
        parts = [_compile(node.left), _compile(node.right)]
        run = _binary(node, parts[0][0], parts[1][0])
    elif isinstance(node, Call):
        parts = [_compile(a) for a in node.args]
        run = _call(node, [part[0] for part in parts])
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if any(value is None for _, value in parts):
        return run, None
    try:
        with np.errstate(**_RAISE):
            value = float(run(np.zeros(1)))
        return (lambda v: value), value
    except ExprDomainError as error:
        reason, span = error.reason, error.span

    def broken(v):
        raise ExprDomainError(reason, span)

    return broken, 0.0


def _piecewise(node: Piecewise):
    bodies = [_compile(b.body)[0] for b in node.branches]
    bodies.append(_compile(node.otherwise)[0])
    bounds = np.array([b.bound_value for b in node.branches])

    def run(v):
        # index of the first branch whose bound the value does not exceed
        which = np.searchsorted(bounds, v, side="left")
        out = np.empty(v.shape)
        for k, body in enumerate(bodies):
            idx = np.flatnonzero(which == k)
            if idx.size:
                out[idx] = body(v[idx])
        return out

    return run


def _checked(node: Expr, operation: Callable, operands: list, rules: dict):
    """run(v): operation on the operands' values.  An error of a type that
    rules maps breaks the rule rules[type](*values) names, at node's span."""
    errors = tuple(rules)

    def run(v):
        values = [operand(v) for operand in operands]
        try:
            return operation(*values)
        except errors as error:
            reason = rules[type(error)](*values)
        raise ExprDomainError(reason, node.span)

    return run


_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _binary(node: Binary, left, right):
    if node.op == "^":
        return _checked(node, lambda x, y: each(math.pow, x, y), [left, right], {
            ValueError: lambda x, y: "zero raised to a negative power"
            if np.any((x == 0.0) & (y < 0.0))
            else "negative base with non-integer exponent",
            OverflowError: lambda x, y: "overflow in power"})
    by_zero = node.op == "/"
    return _checked(node, _OPERATORS[node.op], [left, right], {
        FloatingPointError: lambda x, y: "division by zero"
        if by_zero and np.any(y == 0.0) else "overflow"})


def _call(node: Call, args: list):
    name = node.name
    if name in ("min", "max"):
        def run(v):
            # the builtin's rule: a later argument replaces the current
            # pick only when strictly smaller (larger)
            xs = [a(v) for a in args]
            out = xs[0]
            for x in xs[1:]:
                out = np.where(x < out if name == "min" else x > out, x, out)
            return out
        return run
    operation, error, reason = {
        "exp": (lambda x: each(math.exp, x), OverflowError, "overflow in exp"),
        "ln": (lambda x: each(math.log, x), ValueError, "ln of a non-positive number"),
        "sqrt": (np.sqrt, FloatingPointError, "sqrt of a negative number"),
    }[name]
    return _checked(node, operation, args, {error: lambda x: reason})


def _first_error(run, v: np.ndarray) -> Optional[ExprDomainError]:
    """The error of v's first entry that breaks a rule, run(v) having
    raised (None if that entry alone raises nothing).  Entries are
    independent, so of a window that holds that entry the left half does
    if it raises, else the right half does."""
    lo, hi = 0, v.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(v[lo:mid])
            lo = mid
        except ExprDomainError:
            hi = mid
    try:
        run(v[lo:hi])
    except ExprDomainError as error:
        return error
    return None


def _evaluator(node: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """The expression on a float array: the array of its values, or the
    ExprDomainError of its first entry that breaks a rule.

    The tree runs once, with numpy's floating-point errors raising, and
    each node maps what its own operation raises to the rule it broke:

        rule                                    raised by
        division by zero                        FloatingPointError, divisor 0
        overflow of + - * /                     FloatingPointError, otherwise
        zero raised to a negative power         ValueError from math.pow, base 0
                                                and exponent < 0
        negative base with non-integer exponent ValueError from math.pow, otherwise
        overflow in power                       OverflowError from math.pow
        overflow in exp                         OverflowError from math.exp
        ln of a non-positive number             ValueError from math.log
        sqrt of a negative number               FloatingPointError (invalid)

    Underflow raises nothing, as it breaks no rule.  From finite operands
    every rule an entry breaks raises there, so a one-entry run raises the
    rule an evaluation one operation at a time breaks first.  When an
    array's run raises, halving the window that holds its first offending
    entry finds that entry, and its one-entry error is raised.  A value
    that is not finite propagates as IEEE arithmetic does (nan gives nan,
    ln(inf) is inf); an operation that IEEE flags invalid on one (inf - inf)
    raises its rule.
    """
    run, value = _compile(node)

    def evaluate(values: np.ndarray) -> np.ndarray:
        v = values.astype(float).ravel()
        with np.errstate(**_RAISE):
            try:
                out = run(v)
            except ExprDomainError as error:
                if v.size < 2:
                    raise
                raise _first_error(run, v) or error from None
        if value is not None:
            out = np.full(v.shape, out)
        return out.reshape(values.shape)

    return evaluate


def compile_fn(node: Expr) -> Callable[[float], float]:
    """Bind the AST into an elementwise callable.

    A float array in gives the array of values; a float goes through the
    same evaluator as a one-entry array and comes out a float.  An entry
    that breaks a domain rule raises its ExprDomainError, at the first such
    entry in array order.
    """
    evaluate = _evaluator(node)
    return elementwise(lambda value: on_arrays(evaluate, value))


FunctionLike = Union[Callable[[float], float], str]


def coerce_fn(fn: FunctionLike, fallback_label: str) -> Tuple[Callable[[float], float], str]:
    """(elementwise callable, label) for expression text or a callable.

    Text compiles and labels itself; a callable is lifted (numerics.lift)
    and labelled by its ``__name__`` (``fallback_label`` when it has none).
    """
    if isinstance(fn, str):
        return compile_fn(parse(fn)), fn
    return lift(fn), getattr(fn, "__name__", fallback_label)


def split_top_level(text: str, sep: str) -> list:
    """Split on sep outside parentheses (specs may nest exprs with commas)."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts

