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
sections and diagonal identities, not densities or sampling.  ``cop_eval``
is elementwise (``numerics.elementwise``): the components of a point may be
floats or float arrays of one shape, and each array entry is the value at
the point of floats taken from that entry.  There is one evaluation, on
arrays; a point of floats enters it as one-entry arrays
(``numerics.on_arrays``).  A system distortion samples a grid in one call
per signature term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import funcalc
from .funcalc import FunctionLike
from .numerics import (SCAN_TIE_TOL, InputError, each, first, on_arrays, sample,
                       validation_points)

MAX_DIAGONAL_DIMENSION = 12  # config sanity cap for the cyclic-average form


class CopulaValidationError(InputError):
    """Generator/diagonal/handle parameters violate a construction condition."""


@dataclass(frozen=True)
class DuranteGenerator:
    """Validated generator f for the product-form exchangeable copula."""

    fn: Callable[[float], float]
    n: int
    label: str


@dataclass(frozen=True)
class Diagonal:
    """Validated n-dimensional diagonal function; ``sampled`` is d at the
    513 points of ``validation_points()``, the read-only sample its
    validation checked."""

    fn: Callable[[float], float]
    n: int
    label: str
    sampled: np.ndarray = field(compare=False, repr=False)


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


def validate_generator(f: FunctionLike, n: int) -> DuranteGenerator:
    """Accept f iff f(1)=1, f increasing, and f(p)/p decreasing on a dense grid.

    The three conditions are exactly what makes the product form a copula.
    f is sampled at the 513 points i/512 (both ends, since f(1) is
    constrained) and certified by numerics.sample: finite, f(1) = 1 and no
    step down, each within SCAN_TIE_TOL; then f(p)/p must not step up by
    more than SCAN_TIE_TOL.  The first fault is reported with its witness.
    """
    if not (isinstance(n, int) and n >= 2):
        raise CopulaValidationError(f"dimension must be an integer >= 2, got {n!r}")
    fn, label = funcalc.coerce_fn(f, "generator")
    pts = validation_points()
    vals = sample(fn, pts, CopulaValidationError, label, "f", ends=((-1, 1.0),))
    # f(p)/p on the points above 0
    ratios = vals[1:] / np.asarray(pts[1:])
    i = first(ratios[1:] > ratios[:-1] + SCAN_TIE_TOL)
    if i is not None:
        raise CopulaValidationError(
            f"{label}: f(p)/p increases on [{pts[i + 1]}, {pts[i + 2]}] "
            f"({float(ratios[i])!r} -> {float(ratios[i + 1])!r}); not antistarshaped")
    return DuranteGenerator(fn=fn, n=n, label=label)


def validate_diagonal(d: FunctionLike, n: int) -> Diagonal:
    """Accept d iff d(0)=0, d(1)=1, d(p) <= p, and adjacent increments lie
    in [0, n*(p2-p1)] on a dense grid.

    d is sampled at the 513 points i/512 and certified by numerics.sample:
    finite, d(0) = 0 and d(1) = 1 within SCAN_TIE_TOL, and no step down by
    more than SCAN_TIE_TOL*n; then d(p) <= p within SCAN_TIE_TOL, and no
    step up by more than n*(p2-p1) + SCAN_TIE_TOL*n.  The first fault is
    reported with its witness.
    """
    if not (isinstance(n, int) and n >= 2):
        raise CopulaValidationError(f"dimension must be an integer >= 2, got {n!r}")
    if n > MAX_DIAGONAL_DIMENSION:
        raise CopulaValidationError(
            f"dimension {n} exceeds cap {MAX_DIAGONAL_DIMENSION}")
    fn, label = funcalc.coerce_fn(d, "diagonal")
    pts = validation_points()
    slack = SCAN_TIE_TOL * n
    vals = sample(fn, pts, CopulaValidationError, label, "d",
                  ends=((0, 0.0), (-1, 1.0)), step_slack=slack)
    x = np.asarray(pts)
    i = first(vals > x + SCAN_TIE_TOL)
    if i is not None:
        raise CopulaValidationError(
            f"{label}: d({pts[i]}) = {float(vals[i])!r} exceeds p")
    inc = np.diff(vals)
    i = first(inc > n * np.diff(x) + slack)
    if i is not None:
        raise CopulaValidationError(
            f"{label}: increment {float(inc[i])!r} on [{pts[i]}, {pts[i + 1]}] exceeds "
            f"Lipschitz bound {n}*(p2-p1)")
    vals.setflags(write=False)
    return Diagonal(fn=fn, n=n, label=label, sampled=vals)


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
    label = f"cuadras-auge:theta={funcalc.format_constant(theta)}"
    return CopulaHandle(kind="cuadras_auge", n=2, label=label, theta=theta)


def frechet(gamma: float) -> CopulaHandle:
    """Bivariate mixture gamma*min(u,v) + (1-gamma)*uv, gamma in (0,1)."""
    if not 0.0 < gamma < 1.0:
        raise CopulaValidationError(f"gamma must lie in (0,1), got {gamma!r}")
    label = f"frechet:gamma={funcalc.format_constant(gamma)}"
    return CopulaHandle(kind="frechet", n=2, label=label, gamma=gamma)


def _check_dimension(n: int) -> None:
    if not (isinstance(n, int) and 2 <= n <= MAX_DIAGONAL_DIMENSION):
        raise CopulaValidationError(
            f"dimension must be an integer in [2, {MAX_DIAGONAL_DIMENSION}], got {n!r}")


def _check_components(u: Sequence[np.ndarray]) -> None:
    """Reject the first entry with a component outside [0, 1] (up to
    1e-12), naming its first such component."""
    rows = np.stack(u).reshape(len(u), -1)
    # nan fails both comparisons and an infinity one of them
    ok = (rows >= -1e-12) & (rows <= 1.0 + 1e-12)
    if not ok.all():
        j = first(~ok.all(axis=0))
        k = first(~ok[:, j])
        raise ValueError(f"component {float(rows[k, j])!r} outside [0,1]")


def cop_eval(handle: CopulaHandle, point: Sequence[float]) -> float:
    """Evaluate the copula at a point in [0,1]^n.

    With float arrays among the components (floats held fixed), the array
    of its values at each entry; a point of floats gives a float.
    """
    return on_arrays(lambda *u: _cop_eval_many(handle, u), *point)


def _min(values):
    # min(values) entry by entry: a later value replaces the current one
    # only if strictly smaller, as the builtin does
    low = values[0]
    for v in values[1:]:
        low = np.where(v < low, v, low)
    return low


def _cop_eval_many(handle: CopulaHandle, point: Sequence) -> np.ndarray:
    """cop_eval on components that are floats or float arrays of one shape,
    at least one an array."""
    if len(point) != handle.n:
        raise ValueError(f"point has {len(point)} components, copula needs {handle.n}")
    shape = np.broadcast(*point).shape
    u = [np.full(shape, p, dtype=float) for p in point]
    _check_components(u)
    if handle.kind == "product":
        value = u[0]
        for p in u[1:]:
            value = value * p
        return value
    if handle.kind == "comonotone":
        return _min(u)
    if handle.kind == "durante":
        ordered = np.sort(np.stack(u), axis=0, kind="stable")
        value = ordered[0]
        for p in ordered[1:]:
            value = value * handle.generator.fn(p)
        return value
    if handle.kind == "jaworski":
        d = handle.diagonal
        n = d.n
        fvals = [(n * p - d.fn(p)) / (n - 1) for p in u]
        dvals = [d.fn(p) for p in u]
        total = 0.0
        for i, dv in enumerate(dvals):
            total = total + _min([_min(fvals[:i] + fvals[i + 1:]), dv])
        return total / n
    if handle.kind == "cuadras_auge":
        a, b = u
        out = np.zeros(shape)
        pos = (a > 0.0) & (b > 0.0)
        a, b = a[pos], b[pos]
        out[pos] = (each(pow, _min([a, b]), handle.theta)
                    * each(pow, a * b, 1.0 - handle.theta))
        return out
    if handle.kind == "frechet":
        a, b = u
        return handle.gamma * _min([a, b]) + (1.0 - handle.gamma) * a * b
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
                fields = {}
                for part in funcalc.split_top_level(body, ","):
                    name, eq, value = part.strip().partition("=")
                    if not eq or name not in (key, "n"):
                        raise CopulaValidationError(
                            f"unexpected field {part.strip()!r} in {text!r}")
                    if name in fields:
                        raise CopulaValidationError(
                            f"field {name!r} given more than once in {text!r}")
                    fields[name] = int(value) if name == "n" else value
                if len(fields) < 2:
                    raise CopulaValidationError(
                        f"{prefix[:-1]} spec needs {key}=<expr> and n=<int>, got {text!r}")
                return builder(fields[key], fields["n"])
    except (ValueError, funcalc.ExprError) as ex:
        if isinstance(ex, CopulaValidationError):
            raise
        raise CopulaValidationError(f"bad copula spec {text!r}: {ex}") from None
    raise CopulaValidationError(f"unrecognized copula spec {text!r}")
