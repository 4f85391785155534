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
from typing import Callable, Optional, Sequence

import numpy as np

from . import distortions as dist_mod
from . import funcalc
from .numerics import (
    SCAN_TIE_TOL,
    VALIDATION_COUNT,
    InputError,
    Tolerance,
    clamp,
    derivative,
    each,
    edge_ladder_integral,
    elementwise,
    inside,
    lift,
    monotone_inverse,
    on_arrays,
    sample,
    sample_cells,
)

# truncation of the open interval (0,1) for quantile evaluation/integration;
# tight enough that rectangle-corrected integrals meet 1e-8 acceptance bands
EPS_Q = 1e-12
_HAZARD_TARGET = 30.0  # -ln(1 - p) at p = 1 - 1e-13; hazards must reach it
_TAIL_TARGET = -math.log(2.0 ** -53)  # -ln(1 - p) at the largest float p < 1


class InfiniteMeanError(InputError):
    """Mean requested for a distribution whose tail integral diverges."""


class SpecError(InputError):
    """Malformed distribution spec text or invalid parameters."""


@dataclass
class Distribution:
    """Immutable distribution handle.

    ``quantile`` is elementwise (a quantile callable from outside is lifted
    here): a float array of probabilities gives the array of quantiles.
    ``cdf_fn`` is an optional closed-form fast path, elementwise likewise;
    cdf() falls back to inverting the quantile.  Whether the mean is finite
    is judged from the tail of q wherever a mean-dependent quantity is
    integrated.
    """

    quantile: Callable[[float], float]
    label: str
    cdf_fn: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        self.quantile = lift(self.quantile)
        if self.cdf_fn is not None:
            self.cdf_fn = lift(self.cdf_fn)


# the open-interval sample of _validate_quantile, built once: VALIDATION_COUNT
# points lo + (hi - lo) * i / (count - 1) on [lo, hi]
_CHECK_LO, _CHECK_HI = 1e-9, 1.0 - 1e-9
_QUANTILE_CHECK_POINTS = (_CHECK_LO + (_CHECK_HI - _CHECK_LO)
                          * np.arange(VALIDATION_COUNT) / (VALIDATION_COUNT - 1))
_QUANTILE_CHECK_POINTS.setflags(write=False)


def _validate_quantile(fn: Callable[[float], float], label: str) -> None:
    # open-interval sample, certified by numerics.sample (finite, no step
    # down); then q must be >= 0, each within SCAN_TIE_TOL
    vals = sample(fn, _QUANTILE_CHECK_POINTS, SpecError, label, "q")
    if vals[0] < -SCAN_TIE_TOL:
        raise SpecError(f"{label}: negative support (q near 0 is {float(vals[0])!r})")


def from_quantile(fn: Callable[[float], float], label: str,
                  cdf_fn: Optional[Callable[[float], float]] = None,
                  validate: bool = True) -> Distribution:
    """Wrap a quantile callable as a Distribution; spec text goes through
    build instead.

    Only validation evaluates fn; an unvalidated build evaluates nothing."""
    if validate:
        _validate_quantile(fn, label)
    return Distribution(quantile=fn, label=label, cdf_fn=cdf_fn)


def build(text: str) -> Distribution:
    """The distribution that spec text describes, validated on dense samples.

    Textual forms: `exp:<rate>`, `q:<expr in p>`, `hazard:<expr in x>`,
    `distort(<spec>, h=<distortion spec>)`; each is parsed in its own
    branch.  `exp:r` and `hazard:` are both built by _survival from a
    cumulative hazard: r x with its closed inverse, or the expression with
    a root solve from its table (_build_hazard).  A distorted spec builds
    its base text first."""
    text = text.strip()
    if text.startswith("exp:"):
        try:
            rate = funcalc.parse_constant(text[len("exp:"):])
        except funcalc.ExprError as ex:
            raise SpecError(f"bad exponential rate in {text!r}: {ex}") from None
        if not (math.isfinite(rate) and rate > 0):
            raise SpecError(f"exponential rate must be positive, got {rate!r}")
        return _survival(elementwise(lambda x: rate * x), lambda t: t / rate,
                         f"exp:{funcalc.format_constant(rate)}")
    if text.startswith("q:"):
        expr_text = text[len("q:"):].strip()
        try:
            expr = funcalc.parse(expr_text)
        except funcalc.ExprError as ex:
            raise SpecError(f"bad quantile expression: {ex}") from None
        return from_quantile(funcalc.compile_fn(expr), label=f"q:{expr_text}")
    if text.startswith("hazard:"):
        return _build_hazard(text[len("hazard:"):].strip())
    if text.startswith("distort(") and text.endswith(")"):
        parts = funcalc.split_top_level(text[len("distort("):-1], ",")
        if len(parts) != 2:
            raise SpecError(f"distort(...) needs exactly base spec and h=..., got {text!r}")
        h_part = parts[1].strip()
        if not h_part.startswith("h="):
            raise SpecError(f"second distort(...) argument must be h=..., got {h_part!r}")
        return distort(build(parts[0]), dist_mod.parse_distortion_spec(h_part[2:].strip()))
    raise SpecError(f"unrecognized distribution spec {text!r}")


def _build_hazard(expr_text: str) -> Distribution:
    """The distribution with the increasing unbounded cumulative hazard psi
    in expr_text (see _survival).

    hi is the first power of 2 (from 1) where psi reaches _HAZARD_TARGET.
    psi is tabled at 0, at the geometric head hi 2^-k (k = 70..10) and at
    hi i/512 (i = 1..512), in one call past psi(0), and certified by
    numerics.sample: finite, and no step down by more than SCAN_TIE_TOL
    from psi(0) on.
    Past hi it holds psi at 2hi, 4hi, ... (up to 2^64, while finite) until
    psi reaches _TAIL_TARGET, -ln(1 - p) at the largest level p below 1.
    A quantile is one root solve from the table's cell that brackets its
    target, with psi at the cell's ends read from the table
    (numerics.sample_cells).  The head keeps the cells narrow where psi
    has a root cusp at 0, as x^0.5 does.
    """
    try:
        expr = funcalc.parse(expr_text)
    except funcalc.ExprError as ex:
        raise SpecError(f"bad hazard expression: {ex}") from None
    label = f"hazard:{expr_text}"
    psi = funcalc.compile_fn(expr)
    v0 = float(psi(0.0))
    if v0 < -SCAN_TIE_TOL:
        raise SpecError(f"{label}: hazard negative at 0 ({v0!r})")
    # psi at 1, 2, 4, ... (up to 2^64) until it reaches _TAIL_TARGET; hi is
    # the first power where it reaches _HAZARD_TARGET, or is nan, which the
    # sample's check then names
    powers, levels = [1.0], [float(psi(1.0))]
    while levels[-1] < _TAIL_TARGET and powers[-1] < 2.0 ** 64:
        powers.append(2.0 * powers[-1])
        levels.append(float(psi(powers[-1])))
    j = next((j for j, v in enumerate(levels) if not v < _HAZARD_TARGET), None)
    if j is None:
        raise SpecError(f"{label}: hazard does not reach "
                        f"{_HAZARD_TARGET} (not unbounded?)")
    hi = powers[j]
    steps = 512
    xs = hi * np.concatenate((2.0 ** -np.arange(70.0, 9.0, -1.0),
                              np.arange(1, steps + 1) / steps))
    # the steps on [0, hi] start from psi(0) = v0, held
    vals = sample(psi, xs, SpecError, label, "psi", (0.0, v0))
    # the table past hi: the finite levels at the later powers
    tail = np.isfinite(levels[j + 1:])
    xs = np.r_[0.0, xs, np.array(powers[j + 1:])[tail]]
    vals = np.r_[v0, vals, np.array(levels[j + 1:])[tail]]

    def inverse(target: np.ndarray) -> np.ndarray:
        # a nan target has no quantile: it is not the atom at 0; level 1
        # has the limit inf
        out = np.where(target < np.inf, 0.0, target)
        live = np.flatnonzero((target > v0) & (target < np.inf))
        lo, h, values = sample_cells(xs, vals, target[live])
        out[live] = monotone_inverse(psi, target[live], lo, h, values=values)
        return out

    return _survival(psi, inverse, label)


def _survival(psi: Callable, inverse: Callable, label: str) -> Distribution:
    """The distribution with cumulative hazard psi, elementwise and
    non-decreasing from psi(0) >= 0: F(x) = 1 - e^(-psi(max(x, 0))), 0 at
    x <= 0, and q(p) = inverse(-ln(1 - p)), inverse mapping an array of
    targets to the left end of each one's level set of psi."""

    @elementwise
    def cdf_fn(x):
        # an entry x <= 0 reads 0; psi is taken at 0 there, finite as checked
        v = psi(np.maximum(x, 0.0))
        return np.where(x <= 0.0, 0.0,
                        1.0 - each(math.exp, -np.where(v > 0.0, v, 0.0)))

    return from_quantile(
        elementwise(lambda p: on_arrays(lambda p: inverse(_cumulative_hazard(p)), p)),
        label=label, cdf_fn=cdf_fn, validate=False)


def _cumulative_hazard(p: np.ndarray) -> np.ndarray:
    """-ln(1 - p) at each level p: the exponential's quantile times its
    rate, inf at level 1, its limit there.  A level outside [0, 1] has no
    quantile and reads as nan, as a nan level does."""
    c = np.where((p < 0.0) | (p > 1.0), np.nan, 1.0 - p)
    top = c == 0.0
    return np.where(top, np.inf, -each(math.log, np.where(top, 1.0, c)))


def cdf(X: Distribution, x):
    """F(x) at x or at each entry of an array x, clamped to [0,1]; closed
    form when available, else inversion of q."""
    return on_arrays(lambda x: _cdf(X, x), x)


def _cdf(X: Distribution, x: np.ndarray) -> np.ndarray:
    if X.cdf_fn is not None:
        return clamp(X.cdf_fn(x))
    lo, hi = EPS_Q, 1.0 - EPS_Q
    q = X.quantile
    q_lo, q_hi = q(np.array([lo, hi])).tolist()
    return inside(x, lambda v: monotone_inverse(q, v, lo, hi, values=(q_lo, q_hi)),
                  q_lo, q_hi)


def quantile_slopes(X: Distribution, p: np.ndarray) -> np.ndarray:
    """q'(p) by central differences at each point of p, all in (0, 1).

    The 1e-5 step shrinks near the endpoints so the difference stays
    inside (0,1); the quantile is called once, on both stencil sides.
    """
    h = np.minimum(np.minimum(1e-5, p / 4.0), (1.0 - p) / 4.0)
    return derivative(X.quantile, p, step=h)


def slope_fault(X: Distribution, qp: float, p: float) -> Optional[str]:
    """Why q'(p) = qp yields no density (zero or non-finite), or None."""
    if math.isfinite(qp) and qp > 0.0:
        return None
    return f"{X.label}: quantile derivative {qp!r} at p={p!r}"


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

    An array of probabilities is inverted through h in one co_inverse call;
    where h has no closed inverse, its root solves are remembered by h
    itself (exact targets, bounded size), so every distribution distorted
    by the same h shares them.  Float calls (mean's endpoint terms, the
    pointwise transforms) also go through a memo of quantile values here,
    which exposes cache_info() to profilers; grid passes do not use it.
    """
    q = X.quantile

    @functools.lru_cache(maxsize=65536)
    def at_point(p: float) -> float:
        return q(dist_mod.co_inverse(h, p))

    @elementwise
    def q_h(p):
        if isinstance(p, np.ndarray):
            return q(dist_mod.co_inverse(h, p))
        return at_point(p)

    q_h.cache_info = at_point.cache_info

    cdf_h = None
    if X.cdf_fn is not None:
        base_cdf = X.cdf_fn
        hfn = h.fn
        # F_h = 1 - h(F̄) = h*(F)
        cdf_h = elementwise(lambda x: 1.0 - hfn(1.0 - clamp(base_cdf(x))))
    return from_quantile(q_h, label=f"distort({X.label}, h={h.label})",
                         cdf_fn=cdf_h, validate=False)
