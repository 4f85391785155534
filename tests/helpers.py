"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from stochorder.copulas import CopulaHandle, Diagonal
from stochorder.distributions import Distribution, quantile_slopes, slope_fault
from stochorder.orders import excess_wealth


# the accuracy a transform curve is held to: the pass refines each piece to
# 1e-13 absolute or 1e-12 relative (orders._SEGMENT_TOL), and a curve point
# sums up to hundreds of pieces, so 1e-12 relative to its terms plus 1e-12
CURVE_REL_TOL = 1e-12
CURVE_ABS_TOL = 1e-12


# ce01_x's cumulative hazard psi (catalog.PSI_TEXT) piece by piece, its
# slope and its inverse: e^x - 1 up to x = 1, 2e sqrt(x) - e - 1 up to 13/10,
# then C exp(x^2 - 69/100) + D; psi and psi' are continuous at both knots
PSI_KNOTS = (1.0, 1.3)
_E = math.e
_PSI_C = 5.0 / 13.0 * math.sqrt(10.0 / 13.0)
_PSI_D = 2.0 * (math.sqrt(1.3) - 1.0) * _E - _PSI_C * _E + _E - 1.0


def psi(x: float) -> float:
    if x <= 1.0:
        return math.expm1(x)
    if x <= 1.3:
        return 2.0 * _E * math.sqrt(x) - _E - 1.0
    return _PSI_C * math.exp(x * x - 0.69) + _PSI_D


def psi_slope(x: float) -> float:
    if x <= 1.0:
        return math.exp(x)
    if x <= 1.3:
        return _E / math.sqrt(x)
    return 2.0 * x * _PSI_C * math.exp(x * x - 0.69)


def psi_inverse(t: float) -> float:
    if t <= psi(1.0):
        return math.log1p(t)
    if t <= psi(1.3):
        return ((t + _E + 1.0) / (2.0 * _E)) ** 2
    return math.sqrt(0.69 + math.log((t - _PSI_D) / _PSI_C))


def interior_points(lo: float, hi: float, count: int) -> list:
    """count points strictly inside (lo, hi), evenly spaced."""
    step = (hi - lo) / (count + 1)
    return [lo + step * i for i in range(1, count + 1)]


def max_abs_diff(f: Callable[[float], float],
                 g: Callable[[float], float],
                 points: Iterable[float]) -> float:
    return max(abs(f(p) - g(p)) for p in points)


def max_abs(values: Sequence[float]) -> float:
    return max(abs(v) for v in values)


# dyadic probe grid including both endpoints
GRID65 = tuple(i / 64 for i in range(65))
# the same grid without the endpoints, for ratio-style probes
GRID63 = tuple(i / 64 for i in range(1, 64))


def reference_json_text(doc) -> str:
    """The JSON bytes every CLI document must have: the json module's own
    indented, key-sorted encoding."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_csv_text(header: Sequence[str], rows: Iterable[Sequence],
                       comment: Optional[str] = None) -> str:
    """The CSV bytes of rows, one row at a time: each value as "%.17g"."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    head = f"# {comment}\n" if comment else ""
    return head + ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# pointwise references: the library computes these quantities on grids (the
# convex_transform and dmrl verdict curves, cop_eval); the tests check it
# against these one-point forms

# Durante generator expressions valid at any dimension
GENERATORS = {
    "independence": "p",
    "sqrt": "p^0.5",
    "frechet_mix": "0.6*p + 0.4",
    "quarter_power": "p^0.25",
}


class DegenerateDensityError(ValueError):
    """Quantile derivative vanished or blew up where a density was needed."""


def density_at_quantile(X: Distribution, p: float) -> float:
    """f(F^-1(p)) computed as 1/q'(p) (see quantile_slopes); zero or
    non-finite q' raises DegenerateDensityError."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be interior, got {p!r}")
    qp = float(quantile_slopes(X, np.array([p]))[0])
    fault = slope_fault(X, qp, p)
    if fault is not None:
        raise DegenerateDensityError(fault)
    return 1.0 / qp


def dmrl_integral(X: Distribution, Y: Distribution, p: float) -> float:
    """I(p) = ew_Y(p) - s(p) ew_X(p), s the density ratio at p: one point of
    the dmrl gap that reproduce ce02 writes."""
    s = density_at_quantile(X, p) / density_at_quantile(Y, p)
    return excess_wealth(Y, p) - s * excess_wealth(X, p)


def jaworski_f(d: Diagonal, u: float) -> float:
    """The companion function f(u) = (n u - d(u))/(n-1); satisfies d <= f <= 1."""
    return (d.n * u - float(d.fn(u))) / (d.n - 1)


def boundary_section(handle: CopulaHandle, p: float, i: int) -> float:
    """Closed form of C at (p, ...(i times)..., p, 1, ..., 1): the
    distortion of a series system of i of the n components."""
    n = handle.n
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
