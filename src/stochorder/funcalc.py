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
            return Num(self.span_of(tok), float(tok.text))
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
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(value)
    if isinstance(node, Unary):
        return -eval_expr(node.operand, value)
    if isinstance(node, Binary):
        lhs = eval_expr(node.left, value)
        rhs = eval_expr(node.right, value)
        return _apply_binary(node, lhs, rhs)
    if isinstance(node, Call):
        args = [eval_expr(a, value) for a in node.args]
        return _apply_call(node, args)
    if isinstance(node, Piecewise):
        v = float(value)
        for branch in node.branches:
            if v <= branch.bound_value:
                return eval_expr(branch.body, value)
        return eval_expr(node.otherwise, value)
    raise TypeError(f"not an expression node: {node!r}")


def _apply_binary(node: Binary, lhs: float, rhs: float) -> float:
    op = node.op
    if op == "+":
        out = lhs + rhs
    elif op == "-":
        out = lhs - rhs
    elif op == "*":
        out = lhs * rhs
    elif op == "/":
        if rhs == 0.0:
            raise ExprDomainError("division by zero", node.span)
        out = lhs / rhs
    elif op == "^":
        out = _power(node, lhs, rhs)
    else:  # pragma: no cover - parser only emits the above
        raise TypeError(f"unknown operator {op!r}")
    if not math.isfinite(out):
        raise ExprDomainError("overflow", node.span)
    return out


def _power(node: Binary, base: float, exponent: float) -> float:
    if base == 0.0 and exponent < 0.0:
        raise ExprDomainError("zero raised to a negative power", node.span)
    if base < 0.0 and exponent != math.floor(exponent):
        raise ExprDomainError("negative base with non-integer exponent", node.span)
    try:
        return math.pow(base, exponent)
    except (OverflowError, ValueError):
        raise ExprDomainError("overflow in power", node.span) from None


def _apply_call(node: Call, args: list) -> float:
    name = node.name
    if name == "exp":
        try:
            return math.exp(args[0])
        except OverflowError:
            raise ExprDomainError("overflow in exp", node.span) from None
    if name == "ln":
        if args[0] <= 0.0:
            raise ExprDomainError("ln of a non-positive number", node.span)
        return math.log(args[0])
    if name == "sqrt":
        if args[0] < 0.0:
            raise ExprDomainError("sqrt of a negative number", node.span)
        return math.sqrt(args[0])
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    raise TypeError(f"unknown function {name!r}")  # pragma: no cover


def compile_fn(node: Expr) -> Callable[[float], float]:
    """Bind the AST into a float -> float callable."""
    return lambda value: eval_expr(node, value)


FunctionLike = Union[Callable[[float], float], Expr, str]


def coerce_fn(fn: FunctionLike, fallback_label: str) -> Tuple[Callable[[float], float], str]:
    """(callable, label) for expression text, a parsed expression or a callable.

    Text labels itself, an expression its rendering, a callable its
    ``__name__`` (``fallback_label`` when it has none).
    """
    if isinstance(fn, str):
        return compile_fn(parse(fn)), fn
    if isinstance(fn, Expr):
        return compile_fn(fn), render(fn)
    return fn, getattr(fn, "__name__", fallback_label)


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


def render(node: Expr) -> str:
    """Canonical fully parenthesized rendering; parse(render(x)) == x up to spans."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{render(node.operand)})"
    if isinstance(node, Binary):
        return f"({render(node.left)} {node.op} {render(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(render(a) for a in node.args)})"
    if isinstance(node, Piecewise):
        parts = [
            f"{node.var} <= {render(b.bound_expr)} : {render(b.body)}"
            for b in node.branches
        ]
        parts.append(f"else : {render(node.otherwise)}")
        return f"piece({' ; '.join(parts)})"
    raise TypeError(f"not an expression node: {node!r}")
