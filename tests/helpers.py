"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from stochorder.copulas import CopulaHandle, Diagonal
from stochorder.distributions import Distribution, quantile_slopes, slope_fault
from stochorder.orders import excess_wealth


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
