"""Exchangeable copula constructions used to model dependent component lives.

Two constructive families plus reference handles:

* generator form: C_f(p_1,...,p_n) = p_[1] * prod_{i>=2} f(p_[i]) over the
  increasing rearrangement, valid iff f(1)=1, f increasing, and f(p)/p
  decreasing (antistarshaped);
* diagonal form: given an n-diagonal d, with f(u) = (n u - d(u))/(n-1),
  C_d(p) = (1/n) sum_i min{f over n-1 cyclically rotated slots, d on the
  remaining one}; its diagonal section is exactly d, and at n=2 it reduces
  to the min{p1, p2, (d(p1)+d(p2))/2} copula.

Handles are evaluated on demand only — the downstream use is boundary
sections and diagonal identities, not densities or sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import funcalc
from .funcalc import FunctionLike
from .numerics import first, sample, validation_points

_POINT_TOL = 1e-9
MAX_DIAGONAL_DIMENSION = 12  # config sanity cap for the cyclic-average form


class CopulaValidationError(ValueError):
    """Generator/diagonal/handle parameters violate a construction condition."""


@dataclass(frozen=True)
class DuranteGenerator:
    """Validated generator f for the product-form exchangeable copula."""

    fn: Callable[[float], float]
    n: int
    label: str


@dataclass(frozen=True)
class Diagonal:
    """Validated n-dimensional diagonal function."""

    fn: Callable[[float], float]
    n: int
    label: str


@dataclass(frozen=True)
class CopulaHandle:
    """One exchangeable copula; used as survival or distributional copula
    by the caller (the construction is role-agnostic)."""

    kind: str  # product|comonotone|durante|jaworski|cuadras_auge|frechet
    n: int
    label: str
    generator: Optional[DuranteGenerator] = None
    diagonal: Optional[Diagonal] = None
    theta: Optional[float] = None
    gamma: Optional[float] = None


def _sample(fn: Callable[[float], float], label: str):
    """(validation points, finite values of fn on them); both endpoints are
    included because the conditions constrain f(1), d(0) and d(1)."""
    pts = validation_points()
    return pts, sample(fn, pts, CopulaValidationError,
                       lambda p, v: f"{label}: non-finite value {v!r} at p={p}")


def validate_generator(f: FunctionLike, n: int) -> DuranteGenerator:
    """Accept f iff f(1)=1, f increasing, and f(p)/p decreasing on a dense grid.

    The three conditions are exactly what makes the product form a copula;
    each failure is reported with its witness point.
    """
    if not (isinstance(n, int) and n >= 2):
        raise CopulaValidationError(f"dimension must be an integer >= 2, got {n!r}")
    fn, label = funcalc.coerce_fn(f, "generator")
    pts, vals = _sample(fn, label)
    if abs(vals[-1] - 1.0) > _POINT_TOL:
        raise CopulaValidationError(f"{label}: f(1) = {float(vals[-1])!r}, expected 1")
    i = first(vals[1:] < vals[:-1] - _POINT_TOL)
    if i is not None:
        raise CopulaValidationError(
            f"{label}: decreasing on [{pts[i]}, {pts[i + 1]}] "
            f"(f drops {float(vals[i])!r} -> {float(vals[i + 1])!r})")
    # f(p)/p on the points above 0
    ratios = vals[1:] / np.asarray(pts[1:])
    i = first(ratios[1:] > ratios[:-1] + _POINT_TOL)
    if i is not None:
        raise CopulaValidationError(
            f"{label}: f(p)/p increases on [{pts[i + 1]}, {pts[i + 2]}] "
            f"({float(ratios[i])!r} -> {float(ratios[i + 1])!r}); not antistarshaped")
    return DuranteGenerator(fn=fn, n=n, label=label)


def durante_eval(gen: DuranteGenerator, point: Sequence[float]) -> float:
    """C_f at a point: smallest component times f of each larger one."""
    _check_point(point, gen.n)
    ordered = sorted(point)
    value = ordered[0]
    for p in ordered[1:]:
        value *= float(gen.fn(p))
    return value


def validate_diagonal(d: FunctionLike, n: int) -> Diagonal:
    """Accept d iff d(0)=0, d(1)=1, d(p) <= p, and adjacent increments lie
    in [0, n*(p2-p1)] on a dense grid (discrete slack 1e-9*n)."""
    if not (isinstance(n, int) and n >= 2):
        raise CopulaValidationError(f"dimension must be an integer >= 2, got {n!r}")
    if n > MAX_DIAGONAL_DIMENSION:
        raise CopulaValidationError(
            f"dimension {n} exceeds cap {MAX_DIAGONAL_DIMENSION}")
    fn, label = funcalc.coerce_fn(d, "diagonal")
    pts, vals = _sample(fn, label)
    if abs(vals[0]) > _POINT_TOL:
        raise CopulaValidationError(f"{label}: d(0) = {float(vals[0])!r}, expected 0")
    if abs(vals[-1] - 1.0) > _POINT_TOL:
        raise CopulaValidationError(f"{label}: d(1) = {float(vals[-1])!r}, expected 1")
    x = np.asarray(pts)
    i = first(vals > x + _POINT_TOL)
    if i is not None:
        raise CopulaValidationError(
            f"{label}: d({pts[i]}) = {float(vals[i])!r} exceeds p")
    slack = 1e-9 * n
    inc = np.diff(vals)
    drops = inc < -slack
    i = first(drops | (inc > n * np.diff(x) + slack))
    if i is not None and drops[i]:
        raise CopulaValidationError(
            f"{label}: decreasing on [{pts[i]}, {pts[i + 1]}] "
            f"({float(vals[i])!r} -> {float(vals[i + 1])!r})")
    if i is not None:
        raise CopulaValidationError(
            f"{label}: increment {float(inc[i])!r} on [{pts[i]}, {pts[i + 1]}] exceeds "
            f"Lipschitz bound {n}*(p2-p1)")
    return Diagonal(fn=fn, n=n, label=label)


def jaworski_f(d: Diagonal, u: float) -> float:
    """The companion function f(u) = (n u - d(u))/(n-1); satisfies d <= f <= 1."""
    return (d.n * u - float(d.fn(u))) / (d.n - 1)


def jaworski_eval(d: Diagonal, point: Sequence[float]) -> float:
    """Cyclic-permutation average of mins; diagonal section equals d exactly.

    Each of the n rotations gives one component the d-slot and the other
    n-1 components f-slots, so rotation i contributes
    min(f over the components other than i, d(p_i)).
    """
    n = d.n
    _check_point(point, n)
    fvals = [jaworski_f(d, p) for p in point]
    dvals = [float(d.fn(p)) for p in point]
    total = 0.0
    for i, dv in enumerate(dvals):
        total += min(min(fvals[:i] + fvals[i + 1:]), dv)
    return total / n


def product(n: int) -> CopulaHandle:
    _check_dimension(n)
    return CopulaHandle(kind="product", n=n, label=f"product:{n}")


def comonotone(n: int) -> CopulaHandle:
    _check_dimension(n)
    return CopulaHandle(kind="comonotone", n=n, label=f"comonotone:{n}")


def durante(f: FunctionLike, n: int) -> CopulaHandle:
    gen = validate_generator(f, n)
    return CopulaHandle(kind="durante", n=n,
                        label=f"durante:f={gen.label},n={n}", generator=gen)


def jaworski(d: FunctionLike, n: int) -> CopulaHandle:
    diag = validate_diagonal(d, n)
    return CopulaHandle(kind="jaworski", n=n,
                        label=f"diagonal:d={diag.label},n={n}", diagonal=diag)


def cuadras_auge(theta: float) -> CopulaHandle:
    """Bivariate family min(u,v)^theta * (uv)^(1-theta), theta in (0,1)."""
    if not 0.0 < theta < 1.0:
        raise CopulaValidationError(f"theta must lie in (0,1), got {theta!r}")
    return CopulaHandle(kind="cuadras_auge", n=2,
                        label=f"cuadras-auge:theta={theta:g}", theta=theta)


def frechet(gamma: float) -> CopulaHandle:
    """Bivariate mixture gamma*min(u,v) + (1-gamma)*uv, gamma in (0,1)."""
    if not 0.0 < gamma < 1.0:
        raise CopulaValidationError(f"gamma must lie in (0,1), got {gamma!r}")
    return CopulaHandle(kind="frechet", n=2,
                        label=f"frechet:gamma={gamma:g}", gamma=gamma)


def _check_dimension(n: int) -> None:
    if not (isinstance(n, int) and 2 <= n <= MAX_DIAGONAL_DIMENSION):
        raise CopulaValidationError(
            f"dimension must be an integer in [2, {MAX_DIAGONAL_DIMENSION}], got {n!r}")


def _check_point(point: Sequence[float], n: int) -> None:
    if len(point) != n:
        raise ValueError(f"point has {len(point)} components, copula needs {n}")
    for p in point:
        if not (math.isfinite(p) and -1e-12 <= p <= 1.0 + 1e-12):
            raise ValueError(f"component {p!r} outside [0,1]")


def cop_eval(handle: CopulaHandle, point: Sequence[float]) -> float:
    """Evaluate the copula at a point in [0,1]^n."""
    _check_point(point, handle.n)
    if handle.kind == "product":
        return math.prod(point)
    if handle.kind == "comonotone":
        return min(point)
    if handle.kind == "durante":
        return durante_eval(handle.generator, point)
    if handle.kind == "jaworski":
        return jaworski_eval(handle.diagonal, point)
    if handle.kind == "cuadras_auge":
        u, v = point
        if u <= 0.0 or v <= 0.0:
            return 0.0
        return min(u, v) ** handle.theta * (u * v) ** (1.0 - handle.theta)
    if handle.kind == "frechet":
        u, v = point
        return handle.gamma * min(u, v) + (1.0 - handle.gamma) * u * v
    raise ValueError(f"unknown copula kind {handle.kind!r}")


def boundary_section(handle: CopulaHandle, p: float, i: int) -> float:
    """Closed form of C at (p, ...(i times)..., p, 1, ..., 1).

    These sections are the system distortions of k-out-of-n structures; they
    must agree with generic evaluation (asserted in tests, not here).
    """
    n = handle.n
    if not 1 <= i <= n:
        raise ValueError(f"i must lie in [1, {n}], got {i!r}")
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"p must lie in [0,1], got {p!r}")
    if i == 1:
        return p  # uniform margins
    if handle.kind == "product":
        return p ** i
    if handle.kind == "comonotone":
        return p
    if handle.kind == "durante":
        return p * float(handle.generator.fn(p)) ** (i - 1)
    if handle.kind == "jaworski":
        d = handle.diagonal
        return ((n - i) * jaworski_f(d, p) + i * float(d.fn(p))) / n
    if handle.kind == "cuadras_auge":
        return p ** (2.0 - handle.theta)  # i == 2: the diagonal section
    if handle.kind == "frechet":
        return handle.gamma * p + (1.0 - handle.gamma) * p * p
    raise ValueError(f"unknown copula kind {handle.kind!r}")


def parse_copula_spec(text: str) -> CopulaHandle:
    """Textual forms: `durante:f=<expr>,n=<int>`, `diagonal:d=<expr>,n=<int>`,
    `product:<n>`, `comonotone:<n>`, `cuadras-auge:theta=<v>`, `frechet:gamma=<v>`.

    Commas inside expressions (min/max calls) are respected.
    """
    text = text.strip()
    try:
        if text.startswith("product:"):
            return product(int(text[len("product:"):]))
        if text.startswith("comonotone:"):
            return comonotone(int(text[len("comonotone:"):]))
        if text.startswith("cuadras-auge:"):
            rest = text[len("cuadras-auge:"):].strip()
            if not rest.startswith("theta="):
                raise CopulaValidationError(
                    f"expected cuadras-auge:theta=<v>, got {text!r}")
            return cuadras_auge(funcalc.parse_constant(rest[len("theta="):]))
        if text.startswith("frechet:"):
            rest = text[len("frechet:"):].strip()
            if not rest.startswith("gamma="):
                raise CopulaValidationError(
                    f"expected frechet:gamma=<v>, got {text!r}")
            return frechet(funcalc.parse_constant(rest[len("gamma="):]))
        for prefix, key, builder in (("durante:", "f", durante),
                                     ("diagonal:", "d", jaworski)):
            if text.startswith(prefix):
                body = text[len(prefix):]
                parts = [s.strip() for s in funcalc.split_top_level(body, ",")]
                expr_text = None
                n = None
                for part in parts:
                    if part.startswith(key + "="):
                        expr_text = part[len(key) + 1:]
                    elif part.startswith("n="):
                        n = int(part[2:])
                    else:
                        raise CopulaValidationError(
                            f"unexpected field {part!r} in {text!r}")
                if expr_text is None or n is None:
                    raise CopulaValidationError(
                        f"{prefix[:-1]} spec needs {key}=<expr> and n=<int>, got {text!r}")
                return builder(expr_text, n)
    except (ValueError, funcalc.ExprError) as ex:
        if isinstance(ex, CopulaValidationError):
            raise
        raise CopulaValidationError(f"bad copula spec {text!r}: {ex}") from None
    raise CopulaValidationError(f"unrecognized copula spec {text!r}")
