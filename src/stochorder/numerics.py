"""Shared numeric kernel: grids, tolerances, sampling, quadrature, bisection.

Conventions used throughout the package:

* "increasing" always means non-decreasing; adjacent ties count both ways.
* Quantile-space functionals live on the open interval (0, 1), so grids keep
  an explicit edge margin and integrals are truncated near the endpoints.
* Quadrature is adaptive Simpson with an explicit failure mode instead of a
  silent fallback; the depth cap is generous because near-endpoint integrands
  of the form -log(1-t) need ~30 bisection levels to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Sequence

import numpy as np

_MACHEPS = 2.220446049250313e-16

MAX_BISECTION_ITER = 200
MAX_SIMPSON_DEPTH = 40
LADDER_RUNGS = 44
SCAN_TIE_TOL = 1e-9


class NumericsError(Exception):
    """Base class for numeric-kernel failures."""


class QuadratureFailure(NumericsError):
    """Adaptive refinement hit the depth cap without meeting tolerance.

    Carries the best available estimate so callers can decide whether to
    degrade gracefully or abort.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


class BracketError(NumericsError):
    """Target value lies outside the bracketing interval."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair; both strictly positive and finite."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


DEFAULT_QUAD_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation points inside an open interval.

    ``edge_margin`` keeps the points away from the interval ends, where the
    quantile-space functionals are allowed to blow up.  At least 16 points are
    required; scans on fewer points are too coarse to certify anything.
    """

    points: tuple
    lo: float = 0.0
    hi: float = 1.0
    edge_margin: float = 1e-3

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 16:
            raise ValueError(f"grid needs at least 16 points, got {len(pts)}")
        if not (self.edge_margin > 0):
            raise ValueError("edge_margin must be positive")
        if not self.lo < self.hi:
            raise ValueError("empty interval")
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise ValueError(f"grid points not strictly increasing at {a}")
        if pts[0] < self.lo + self.edge_margin - 1e-15 or pts[-1] > self.hi - self.edge_margin + 1e-15:
            raise ValueError("grid points leak into the edge margin")

    @property
    def count(self) -> int:
        return len(self.points)

    def describe(self) -> str:
        return f"{self.count}:{self.points[0]:.6g}:{self.points[-1]:.6g}"


DEFAULT_GRID_COUNT = 512
DEFAULT_EDGE_MARGIN = 1e-3


def uniform_grid(count: int = DEFAULT_GRID_COUNT,
                 lo: float = 0.0,
                 hi: float = 1.0,
                 edge_margin: float = DEFAULT_EDGE_MARGIN) -> Grid:
    """Equally spaced grid on [lo+edge_margin, hi-edge_margin]."""
    pts = np.linspace(lo + edge_margin, hi - edge_margin, count)
    return Grid(points=tuple(pts), lo=lo, hi=hi, edge_margin=edge_margin)


def default_grid() -> Grid:
    return uniform_grid()


# validators sample [0,1] endpoints included; independent of scan grids
VALIDATION_COUNT = 513


def validation_points(count: int = VALIDATION_COUNT) -> list:
    """count equally spaced points on [0, 1], both endpoints included."""
    return [i / (count - 1) for i in range(count)]


def sample(fn: Callable[[float], float],
           points: Sequence[float],
           error: type,
           message: Callable[[float, float], str]) -> np.ndarray:
    """Evaluate fn at points in order, as a float array.

    Stops at the first non-finite value x -> v and raises
    ``error(message(x, v))``; later points are not evaluated.
    """
    out = np.empty(len(points))
    for i, x in enumerate(points):
        v = float(fn(x))
        if not math.isfinite(v):
            raise error(message(x, v))
        out[i] = v
    return out


def first(mask: np.ndarray) -> Optional[int]:
    """Index of the first true entry of mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _eval_checked(fn: Callable[[float], float], x: float) -> float:
    v = float(fn(x))
    if not math.isfinite(v):
        raise NumericsError(f"integrand evaluated to {v!r} at x={x!r}")
    return v


def integrate(fn: Callable[[float], float],
              a: float,
              b: float,
              tol: Tolerance = DEFAULT_QUAD_TOL) -> float:
    """Adaptive Simpson quadrature of fn over [a, b].

    Raises QuadratureFailure when the refinement hits MAX_SIMPSON_DEPTH without
    meeting the tolerance; the exception carries the last estimate.  A small
    rounding-noise floor keeps integrable endpoint blowups from failing
    spuriously once the interval-local error is at machine level.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a == b:
        return 0.0
    if a > b:
        raise ValueError("reversed integration interval")
    fa = _eval_checked(fn, a)
    fb = _eval_checked(fn, b)
    m = 0.5 * (a + b)
    fm = _eval_checked(fn, m)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    eps = max(tol.abs_tol, tol.rel_tol * abs(whole))
    return _adapt(fn, a, b, fa, fm, fb, whole, eps, MAX_SIMPSON_DEPTH)


def _adapt(fn, a, b, fa, fm, fb, s_whole, eps, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _eval_checked(fn, lm)
    frm = _eval_checked(fn, rm)
    s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    s2 = s_left + s_right
    delta = s2 - s_whole
    # Richardson correction on acceptance; the noise floor stops refinement
    # from chasing rounding error on very thin panels.
    noise = 50.0 * _MACHEPS * (abs(s_left) + abs(s_right) + abs(s_whole))
    if abs(delta) <= 15.0 * eps or abs(delta) <= noise:
        return s2 + delta / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"adaptive Simpson did not converge on [{a!r}, {b!r}]",
            last_estimate=s2 + delta / 15.0,
        )
    half_eps = 0.5 * eps
    left = _adapt(fn, a, m, fa, flm, fm, s_left, half_eps, depth - 1)
    right = _adapt(fn, m, b, fm, frm, fb, s_right, half_eps, depth - 1)
    return left + right


def edge_ladder_integral(fn: Callable[[float], float],
                         a: float,
                         b: float,
                         side: Literal["lo", "hi"],
                         tol: Tolerance = DEFAULT_QUAD_TOL) -> tuple[float, list]:
    """Integrate over [a, b] with geometric refinement toward one endpoint.

    Splits the interval into LADDER_RUNGS rungs whose widths halve toward
    ``side`` (fewer where the cuts collapse at machine precision); each
    rung is integrated adaptively.  This keeps the recursion shallow for
    integrable endpoint singularities (log-type quantiles near p=1).  Returns
    (value, per-rung contributions ordered from the singular end outward);
    the rung list lets callers run divergence heuristics.
    """
    if a == b:
        return 0.0, []
    if a > b:
        raise ValueError("reversed integration interval")
    width = b - a
    cuts = [0.5 ** j for j in range(1, LADDER_RUNGS)]
    if side == "hi":
        pts = [a] + [b - width * c for c in cuts] + [b]
    else:
        pts = [b] + [a + width * c for c in cuts] + [a]
        pts.reverse()
    # dedupe collapsed cuts at machine precision
    clean = [pts[0]]
    for x in pts[1:]:
        if x > clean[-1]:
            clean.append(x)
    piece_tol = Tolerance(abs_tol=max(tol.abs_tol / len(clean), 1e-16),
                          rel_tol=tol.rel_tol)
    pieces = []
    for lo_, hi_ in zip(clean, clean[1:]):
        pieces.append(integrate(fn, lo_, hi_, piece_tol))
    total = math.fsum(pieces)
    if side == "hi":
        pieces = pieces[::-1]  # report toward the singular end
    return total, pieces


def monotone_inverse(fn: Callable[[float], float],
                     y: float,
                     lo: float,
                     hi: float) -> float:
    """Left-continuous generalized inverse of a non-decreasing fn by bisection.

    Returns (up to bracketing width) inf{x in [lo, hi] : fn(x) >= y}.  For a
    continuous strictly increasing fn this is the ordinary inverse and the
    result satisfies |fn(x) - y| <= local slope * bracket width.  Values of y
    outside [fn(lo), fn(hi)] (beyond DEFAULT_QUAD_TOL.abs_tol slack) raise
    BracketError.
    """
    if not lo < hi:
        raise ValueError("empty bracket")
    flo = fn(lo)
    fhi = fn(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise BracketError("bracket endpoints evaluate to non-finite values")
    slack = DEFAULT_QUAD_TOL.abs_tol
    if y < flo - slack or y > fhi + slack:
        raise BracketError(f"target {y!r} outside [{flo!r}, {fhi!r}]")
    if y <= flo:
        return lo
    a, b = lo, hi
    for _ in range(MAX_BISECTION_ITER):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if fn(mid) >= y:
            b = mid
        else:
            a = mid
        if b - a <= 4.0 * _MACHEPS * (1.0 + abs(a) + abs(b)):
            break
    return b


def derivative(fn: Callable[[float], float],
               x: float,
               step: float = 1e-6,
               lo: Optional[float] = None) -> float:
    """Finite-difference derivative: central, or the three-point forward
    formula (second order, like the central one) where x - step < lo."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    h = step
    if lo is None or x - h >= lo:
        return (fn(x + h) - fn(x - h)) / (2.0 * h)
    return (-3.0 * fn(x) + 4.0 * fn(x + h) - fn(x + 2.0 * h)) / (2.0 * h)
