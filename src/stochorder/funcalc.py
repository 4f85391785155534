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
point back at the offending text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .numerics import each, elementwise, lift

FUNCTIONS = ("exp", "ln", "sqrt", "min", "max")
DEFAULT_VARIABLES = ("p", "x")


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    excerpt: str

    def __str__(self) -> str:
        return f"{self.start}..{self.end} {self.excerpt!r}"


class ExprError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
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
            right = self.parse_term()
            node = Binary(self.merge(node.span, right.span), op, node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.next().text
            right = self.parse_unary()
            node = Binary(self.merge(node.span, right.span), op, node, right)
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            tok = self.next()
            operand = self.parse_unary()
            return Unary(self.merge(self.span_of(tok), operand.span), "-", operand)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_op("^"):
            self.next()
            exponent = self.parse_unary()
            return Binary(self.merge(base.span, exponent.span), "^", base, exponent)
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
        return Call(span, name, tuple(args))

    def parse_piece(self) -> Expr:
        head = self.next()  # 'piece'
        self.expect("op", "(")
        branches = []
        piece_var: Optional[str] = None
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "else":
                self.next()
                self.expect("op", ":")
                otherwise = self.parse_expr()
                break
            var_node = self.parse_variable()
            if piece_var is None:
                piece_var = var_node.name
            elif piece_var != var_node.name:
                raise ExprSyntaxError("piece guards must test the same variable", var_node.span)
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
        assert piece_var is not None
        return Piecewise(span, piece_var, tuple(branches), otherwise)


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
    node = parse(source, variables=())
    return eval_expr(node, 0.0)


def eval_expr(node: Expr, value: float) -> float:
    """Evaluate with the expression's single variable bound to ``value``.

    Raises ExprDomainError (with the offending subexpression's span) for
    ln of a non-positive number, sqrt of a negative, division by zero,
    0^negative, a negative base with a non-integer exponent, and overflow.
    """
    return _compile(node)[0](float(value))


# --- compilation -----------------------------------------------------------
#
# Each node compiles to a float closure, which follows the order of
# evaluation and the domain checks of eval_expr's definition exactly, and to
# an array closure, which computes every entry with the same floating-point
# operations (numpy arithmetic, and math functions applied entry by entry)
# and flags the entries where a check might fail.  Flagged entries are
# recomputed by the float closure, which raises there or gives the value.
# A constant subtree folds to its value when it evaluates without error.
#
# An array closure maps the float array v to (values, flags): values a float
# or an array of v's shape, flags None or a bool array of entries to recheck.


def _compile(node: Expr) -> tuple:
    """(float closure, array closure, whether node is constant)."""
    if isinstance(node, (Num, Const)):
        value = node.value
        return (lambda v: value), (lambda v: (value, None)), True
    if isinstance(node, Var):
        return (lambda v: v), (lambda v: (v, None)), False
    if isinstance(node, Unary):
        operand, operand_array, constant = _compile(node.operand)
        scalar = lambda v: -operand(v)

        def array(v):
            x, bad = operand_array(v)
            return -x, bad
    elif isinstance(node, Binary):
        ls, la, lc = _compile(node.left)
        rs, ra, rc = _compile(node.right)
        scalar = _scalar_binary(node, ls, rs)
        array = _array_binary(node.op, la, ra)
        constant = lc and rc
    elif isinstance(node, Call):
        parts = [_compile(a) for a in node.args]
        scalar = _scalar_call(node, [p[0] for p in parts])
        array = _array_call(node.name, [p[1] for p in parts])
        constant = all(p[2] for p in parts)
    elif isinstance(node, Piecewise):
        return _piecewise(node) + (False,)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if constant:
        try:
            value = scalar(0.0)
        except ExprDomainError:
            # fails wherever it is evaluated: every entry takes the float path
            return scalar, (lambda v: (0.0, np.ones(v.shape, dtype=bool))), True
        return (lambda v: value), (lambda v: (value, None)), True
    return scalar, array, False


def _piecewise(node: Piecewise) -> tuple:
    parts = [_compile(b.body) for b in node.branches] + [_compile(node.otherwise)]
    bounds = [b.bound_value for b in node.branches]
    guarded = list(zip(bounds, (p[0] for p in parts)))
    otherwise = parts[-1][0]

    def scalar(v):
        for bound, body in guarded:
            if v <= bound:
                return body(v)
        return otherwise(v)

    bound_array = np.array(bounds)
    bodies = [p[1] for p in parts]

    def array(v):
        # index of the first branch whose bound the value does not exceed
        which = np.searchsorted(bound_array, v, side="left")
        out = np.empty(v.shape)
        bad = np.zeros(v.shape, dtype=bool)
        for k, body in enumerate(bodies):
            idx = np.flatnonzero(which == k)
            if idx.size:
                x, b = body(v[idx])
                out[idx] = x
                if b is not None:
                    bad[idx] = b
        return out, bad

    return scalar, array


def _scalar_binary(node: Binary, left, right) -> Callable[[float], float]:
    span = node.span
    isfinite = math.isfinite
    op = node.op
    if op == "+":
        def apply(v):
            out = left(v) + right(v)
            if not isfinite(out):
                raise ExprDomainError("overflow", span)
            return out
    elif op == "-":
        def apply(v):
            out = left(v) - right(v)
            if not isfinite(out):
                raise ExprDomainError("overflow", span)
            return out
    elif op == "*":
        def apply(v):
            out = left(v) * right(v)
            if not isfinite(out):
                raise ExprDomainError("overflow", span)
            return out
    elif op == "/":
        def apply(v):
            lhs = left(v)
            rhs = right(v)
            if rhs == 0.0:
                raise ExprDomainError("division by zero", span)
            out = lhs / rhs
            if not isfinite(out):
                raise ExprDomainError("overflow", span)
            return out
    elif op == "^":
        def apply(v):
            out = _power(span, left(v), right(v))
            if not isfinite(out):
                raise ExprDomainError("overflow", span)
            return out
    else:  # pragma: no cover - parser only emits the above
        raise TypeError(f"unknown operator {op!r}")
    return apply


def _power(span: SourceSpan, base: float, exponent: float) -> float:
    if base == 0.0 and exponent < 0.0:
        raise ExprDomainError("zero raised to a negative power", span)
    if base < 0.0 and exponent != math.floor(exponent):
        raise ExprDomainError("negative base with non-integer exponent", span)
    try:
        return math.pow(base, exponent)
    except (OverflowError, ValueError):
        raise ExprDomainError("overflow in power", span) from None


def _scalar_call(node: Call, args: list) -> Callable[[float], float]:
    span = node.span
    name = node.name
    if name == "exp":
        (arg,) = args

        def apply(v):
            try:
                return math.exp(arg(v))
            except OverflowError:
                raise ExprDomainError("overflow in exp", span) from None
    elif name == "ln":
        (arg,) = args

        def apply(v):
            x = arg(v)
            if x <= 0.0:
                raise ExprDomainError("ln of a non-positive number", span)
            return math.log(x)
    elif name == "sqrt":
        (arg,) = args

        def apply(v):
            x = arg(v)
            if x < 0.0:
                raise ExprDomainError("sqrt of a negative number", span)
            return math.sqrt(x)
    elif name in ("min", "max"):
        pick = min if name == "min" else max

        def apply(v):
            return pick([a(v) for a in args])
    else:  # pragma: no cover
        raise TypeError(f"unknown function {name!r}")
    return apply


def _flags(*masks):
    out = None
    for mask in masks:
        if mask is not None:
            out = mask if out is None else out | mask
    return out


def _array_binary(op: str, left, right):
    def apply(v):
        x, bad_x = left(v)
        y, bad_y = right(v)
        check = None
        if op == "+":
            out = x + y
        elif op == "-":
            out = x - y
        elif op == "*":
            out = x * y
        elif op == "/":
            check = np.asarray(y == 0.0)
            out = x / np.where(check, 1.0, y)
        else:
            # overflow as numpy's power sees it, and the domain faults
            check = ~(np.abs(np.power(x, y)) < 1e300)
            if isinstance(y, float):  # a constant exponent
                if y < 0.0:
                    check |= x == 0.0
                if y != np.floor(y):
                    check |= x < 0.0
            else:
                check |= ((x == 0.0) & (y < 0.0)) | ((x < 0.0) & (y != np.floor(y)))
            safe = ~check
            out = each(math.pow, np.where(safe, x, 1.0), np.where(safe, y, 1.0))
        return out, _flags(bad_x, bad_y, check, ~np.isfinite(out))
    return apply


def _array_call(name: str, args: list):
    def apply(v):
        results = [a(v) for a in args]
        bad = _flags(*(b for _, b in results))
        xs = [x for x, _ in results]
        if name in ("min", "max"):
            # the builtin's rule: a later argument replaces the current
            # pick only when strictly smaller (larger)
            out = xs[0]
            for x in xs[1:]:
                out = np.where(x < out if name == "min" else x > out, x, out)
            return out, bad
        (x,) = xs
        if name == "exp":
            check = x > 709.0  # math.exp overflows above ~709.78
            out = each(math.exp, np.where(check, 0.0, x))
        elif name == "ln":
            check = x <= 0.0
            out = each(math.log, np.where(check, 1.0, x))
        else:
            check = x < 0.0
            out = np.sqrt(np.where(check, 0.0, x))
        return out, _flags(bad, check)
    return apply


def compile_fn(node: Expr) -> Callable[[float], float]:
    """Bind the AST into an elementwise callable.

    A float runs the compiled float closures; a float array runs the array
    closures under np.errstate, and an entry that breaks a domain rule
    raises the same ExprDomainError, at the first such entry in array order,
    as that float would.
    """
    scalar, array, _ = _compile(node)

    def fn(value):
        if not isinstance(value, np.ndarray):
            return scalar(float(value))
        v = value.astype(float)
        with np.errstate(all="ignore"):
            x, bad = array(v)
        out = np.array(x, dtype=float) if isinstance(x, np.ndarray) else np.full(v.shape, x)
        if bad is not None and bad.any():
            for i in np.flatnonzero(bad).tolist():
                out.flat[i] = scalar(float(v.flat[i]))
        return out

    return elementwise(fn)


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

