"""Distributions with the quantile function as the primitive.

Everything downstream (order transforms, counterexample curves) happens in
quantile space, so the quantile is the stored object and the cdf is derived,
either from a closed form attached at build time (exponential, hazard, and
distorted forms admit one) or by numeric inversion of q.  Supports are
non-negative; means may be infinite, guarded by a tail-divergence heuristic
rather than a symbolic test.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import distortions as dist_mod
from . import funcalc
from .numerics import (
    VALIDATION_COUNT,
    Tolerance,
    BracketError,
    derivative,
    edge_ladder_integral,
    first,
    monotone_inverse,
    sample,
)

# truncation of the open interval (0,1) for quantile evaluation/integration;
# tight enough that rectangle-corrected integrals meet 1e-8 acceptance bands
EPS_Q = 1e-12
_HAZARD_TARGET = 30.0  # -ln(1 - p) at p = 1 - 1e-13; hazards must reach it


class InfiniteMeanError(ValueError):
    """Mean requested for a distribution whose tail integral diverges."""


class DegenerateDensityError(ValueError):
    """Quantile derivative vanished or blew up where a density was needed."""


class SpecError(ValueError):
    """Malformed distribution spec text or invalid parameters."""


@dataclass
class Distribution:
    """Immutable distribution handle.

    ``cdf_fn`` is an optional closed-form fast path; cdf() falls back to
    inverting the quantile.  Whether the mean is finite is judged from the
    tail of q wherever a mean-dependent quantity is integrated.
    """

    quantile: Callable[[float], float]
    label: str
    cdf_fn: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class DistributionSpec:
    """One of: exponential(rate), quantile_expr, hazard-expr, distorted(base, h)."""

    kind: str  # "exponential" | "quantile_expr" | "hazard" | "distorted"
    rate: Optional[float] = None
    expr_text: Optional[str] = None
    base: Optional["DistributionSpec"] = None
    h_spec: Optional[str] = None

    def render(self) -> str:
        if self.kind == "exponential":
            return f"exp:{self.rate:g}"
        if self.kind == "quantile_expr":
            return f"q:{self.expr_text}"
        if self.kind == "hazard":
            return f"hazard:{self.expr_text}"
        if self.kind == "distorted":
            return f"distort({self.base.render()}, h={self.h_spec})"
        raise SpecError(f"unknown spec kind {self.kind!r}")


def parse_spec(text: str) -> DistributionSpec:
    """Textual forms: `exp:1.0`, `q:<expr in p>`, `hazard:<expr in x>`,
    `distort(<spec>, h=<distortion spec>)`."""
    text = text.strip()
    if text.startswith("exp:"):
        try:
            rate = funcalc.parse_constant(text[len("exp:"):])
        except funcalc.ExprError as ex:
            raise SpecError(f"bad exponential rate in {text!r}: {ex}") from None
        return DistributionSpec(kind="exponential", rate=rate)
    if text.startswith("q:"):
        return DistributionSpec(kind="quantile_expr", expr_text=text[len("q:"):].strip())
    if text.startswith("hazard:"):
        return DistributionSpec(kind="hazard", expr_text=text[len("hazard:"):].strip())
    if text.startswith("distort(") and text.endswith(")"):
        inner = text[len("distort("):-1]
        parts = funcalc.split_top_level(inner, ",")
        if len(parts) != 2:
            raise SpecError(f"distort(...) needs exactly base spec and h=..., got {text!r}")
        base = parse_spec(parts[0])
        h_part = parts[1].strip()
        if not h_part.startswith("h="):
            raise SpecError(f"second distort(...) argument must be h=..., got {h_part!r}")
        return DistributionSpec(kind="distorted", base=base, h_spec=h_part[2:].strip())
    raise SpecError(f"unrecognized distribution spec {text!r}")


def _validate_quantile(fn: Callable[[float], float], label: str) -> None:
    # open-interval sample; q must be finite, non-decreasing, and >= 0
    lo, hi = 1e-9, 1.0 - 1e-9
    count = VALIDATION_COUNT
    pts = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    vals = sample(fn, pts, SpecError,
                  lambda p, v: f"{label}: quantile not finite at p={p!r}")
    i = first(vals[1:] < vals[:-1] - 1e-9)
    if i is not None:
        raise SpecError(f"{label}: quantile decreasing near p={pts[i + 1]!r} "
                        f"({float(vals[i])!r} -> {float(vals[i + 1])!r})")
    if vals[0] < -1e-9:
        raise SpecError(f"{label}: negative support (q near 0 is {float(vals[0])!r})")


def from_quantile(fn: Callable[[float], float], label: str,
                  cdf_fn: Optional[Callable[[float], float]] = None,
                  validate: bool = True) -> Distribution:
    """Wrap a quantile callable as a Distribution (catalog entry point).

    Only validation evaluates fn; an unvalidated build evaluates nothing."""
    if validate:
        _validate_quantile(fn, label)
    return Distribution(quantile=fn, label=label, cdf_fn=cdf_fn)


def build(spec: Union[DistributionSpec, str]) -> Distribution:
    """Materialize a spec, validating invariants on dense samples."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.kind == "exponential":
        rate = spec.rate
        if rate is None or not (math.isfinite(rate) and rate > 0):
            raise SpecError(f"exponential rate must be positive, got {rate!r}")
        q = lambda p: -math.log(1.0 - p) / rate
        cdf_fn = lambda x: 1.0 - math.exp(-rate * x) if x > 0.0 else 0.0
        return from_quantile(q, label=spec.render(), cdf_fn=cdf_fn, validate=False)
    if spec.kind == "quantile_expr":
        try:
            expr = funcalc.parse(spec.expr_text)
        except funcalc.ExprError as ex:
            raise SpecError(f"bad quantile expression: {ex}") from None
        return from_quantile(funcalc.compile_fn(expr), label=spec.render())
    if spec.kind == "hazard":
        return _build_hazard(spec)
    if spec.kind == "distorted":
        base = build(spec.base)
        h = dist_mod.parse_distortion_spec(spec.h_spec)
        return distort(base, h)
    raise SpecError(f"unknown spec kind {spec.kind!r}")


def _build_hazard(spec: DistributionSpec) -> Distribution:
    """F(x) = 1 - e^(-psi(x)) for an increasing unbounded cumulative hazard."""
    try:
        expr = funcalc.parse(spec.expr_text)
    except funcalc.ExprError as ex:
        raise SpecError(f"bad hazard expression: {ex}") from None
    psi = funcalc.compile_fn(expr)
    v0 = float(psi(0.0))
    if v0 < -1e-9:
        raise SpecError(f"{spec.render()}: hazard negative at 0 ({v0!r})")
    hi = 1.0
    while float(psi(hi)) < _HAZARD_TARGET:
        hi *= 2.0
        if hi > 2.0 ** 64:
            raise SpecError(f"{spec.render()}: hazard does not reach "
                            f"{_HAZARD_TARGET} (not unbounded?)")
    # monotonicity on [0, hi]
    steps = 512
    xs = [hi * i / steps for i in range(1, steps + 1)]
    vals = sample(psi, xs, SpecError,
                  lambda x, v: f"{spec.render()}: hazard not finite at x={x!r}")
    i = first(vals < np.r_[v0, vals[:-1]] - 1e-9)
    if i is not None:
        raise SpecError(f"{spec.render()}: hazard decreasing near x={xs[i]!r}")

    def quantile(p: float, _psi=psi, _hi=hi) -> float:
        target = -math.log(1.0 - p)
        if target <= float(_psi(0.0)):
            return 0.0
        h = _hi
        while float(_psi(h)) < target:
            h *= 2.0
            if h > 2.0 ** 64:
                raise BracketError("hazard bracket growth exhausted")
        return monotone_inverse(_psi, target, 0.0, h)

    def cdf_fn(x: float, _psi=psi) -> float:
        if x <= 0.0:
            return 0.0
        return 1.0 - math.exp(-max(0.0, float(_psi(x))))

    return from_quantile(quantile, label=spec.render(), cdf_fn=cdf_fn,
                         validate=False)


def cdf(X: Distribution, x: float) -> float:
    """F(x), clamped to [0,1]; closed form when available, else inversion of q."""
    if X.cdf_fn is not None:
        return min(1.0, max(0.0, float(X.cdf_fn(x))))
    lo, hi = EPS_Q, 1.0 - EPS_Q
    q = X.quantile
    if x <= q(lo):
        return 0.0
    if x >= q(hi):
        return 1.0
    return monotone_inverse(q, x, lo, hi)


def survival(X: Distribution, x: float) -> float:
    return 1.0 - cdf(X, x)


def density_at_quantile(X: Distribution, p: float) -> float:
    """f(F^-1(p)) computed as 1/q'(p); density-ratio diagnostics ride on this.

    The 1e-5 step shrinks near the endpoints so the central difference stays
    inside (0,1).  Zero or non-finite q' raises DegenerateDensityError.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be interior, got {p!r}")
    h = min(1e-5, p / 4.0, (1.0 - p) / 4.0)
    qp = derivative(X.quantile, p, step=h)
    if not math.isfinite(qp) or qp <= 0.0:
        raise DegenerateDensityError(
            f"{X.label}: quantile derivative {qp!r} at p={p!r}")
    return 1.0 / qp


# tail rungs whose contributions stop decaying signal a divergent mean;
# 0.9 per-rung ratio corresponds to a tail like (1-p)^(-0.85), close enough
# to the integrability boundary to refuse
_DIVERGENCE_RATIO = 0.9
_DIVERGENCE_RUNGS = 12


def check_tail_decay(label: str, hi_pieces: Sequence[float]) -> None:
    """Raise InfiniteMeanError when the rungs of an edge-ladder integral of q
    toward p=1 (ordered from the singular end outward) refuse to decay.

    Tail decay is judged on the rungs at scales 2^-2 .. 2^-14 of the ladder
    width from the endpoint: far enough out that the EPS_Q truncation does
    not clip them, close enough in that the tail exponent dominates.  That
    band sits near the end of the list.
    """
    band = [abs(v) for v in hi_pieces[-(_DIVERGENCE_RUNGS + 2):-2]]
    ratios = []
    for closer, farther in zip(band, band[1:]):
        if farther > 1e-300:
            ratios.append(closer / farther)
    if ratios and statistics.median(ratios) >= _DIVERGENCE_RATIO:
        raise InfiniteMeanError(
            f"{label}: infinite mean, tail contributions not decaying "
            f"(rung ratios {[round(r, 3) for r in ratios]})")


# a 1e-12 budget for the mean, split between the halves below and above 0.5
_HALF_MEAN_TOL = Tolerance(abs_tol=5e-13, rel_tol=1e-12)


def mean(X: Distribution) -> float:
    """∫₀¹ q(p) dp on [EPS_Q, 1-EPS_Q] with endpoint rectangle corrections.

    The corrections make ttt + ew = mean hold to ~1e-10 instead of ~1e-5.
    Raises InfiniteMeanError when the geometric tail rungs refuse to decay.
    """
    q = X.quantile
    lo, hi = EPS_Q, 1.0 - EPS_Q
    lo_val, _ = edge_ladder_integral(q, lo, 0.5, side="lo", tol=_HALF_MEAN_TOL)
    hi_val, hi_pieces = edge_ladder_integral(q, 0.5, hi, side="hi",
                                             tol=_HALF_MEAN_TOL)
    check_tail_decay(X.label, hi_pieces)
    return lo * q(lo) + lo_val + hi_val + lo * q(hi)


def distort(X: Distribution, h: dist_mod.Distortion) -> Distribution:
    """Distorted distribution: survival h(F̄), i.e. q_h(p) = q(1 - h⁻¹(1-p)).

    The quantile is memoized because a generic h inverse costs a bisection,
    and a request still meets some points twice: neighbouring quadrature
    segments share their ends, and the grid points are sampled again for
    the curves and for star.  With one transform pass per side (see
    orders.check_orders) most lookups miss; the memo stays while
    bench/tracer.py reads its cache_info() for the hit ratio.
    """
    q = X.quantile

    @functools.lru_cache(maxsize=65536)
    def q_h(p: float) -> float:
        return q(dist_mod.co_inverse(h, p))

    cdf_h = None
    if X.cdf_fn is not None:
        base_cdf = X.cdf_fn
        hfn = h.fn
        # F_h = 1 - h(F̄) = h*(F)
        cdf_h = lambda x: 1.0 - hfn(max(0.0, min(1.0, 1.0 - float(base_cdf(x)))))
    return from_quantile(q_h, label=f"distort({X.label}, h={h.label})",
                         cdf_fn=cdf_h, validate=False)
