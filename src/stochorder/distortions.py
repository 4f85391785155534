"""Distortion functions: validation, dual, inverse, shape reports.

A distortion is an increasing h:[0,1] -> [0,1] with h(0)=0 and h(1)=1,
applied to a survival function.  Shape matters for order preservation:
starshaped means h(p)/p increasing on (0,1], antistarshaped means decreasing;
convexity implies starshapedness and concavity implies antistarshapedness.
Classification is grid-relative: verdicts certify sampled behavior at a
tolerance, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import funcalc
from .numerics import (
    Grid,
    SCAN_TIE_TOL,
    first,
    monotone_inverse,
    sample,
    validation_points,
)

_ENDPOINT_TOL = 1e-9


class DistortionValidationError(ValueError):
    """Candidate function fails a distortion axiom; message carries a witness."""


@dataclass
class Distortion:
    """Validated distortion function.

    ``inverse_fn`` is an optional closed-form inverse used as a fast path;
    the generalized bisection inverse is the fallback.  ``co_inverse_fn`` is
    an optional closed form of p -> 1 - inverse(1-p), the map distorted
    quantiles ride on; carrying it avoids the 1-(1-p) roundtrip, whose
    ~1e-16 quantization gets amplified into visible jumps wherever the
    co-inverse has unbounded slope (e.g. p^(1/k) near 0).
    """

    fn: Callable[[float], float]
    label: str
    strictly_increasing: bool
    inverse_fn: Optional[Callable[[float], float]] = None
    co_inverse_fn: Optional[Callable[[float], float]] = None

    def __call__(self, p: float) -> float:
        return self.fn(p)


@dataclass(frozen=True)
class ShapeReport:
    """Shape flags for a distortion, all certified on the reporting grid.

    ``strictly_increasing`` and ``dual_antistarshaped`` ride along because the
    preservation theorems key on them: ew/dmrl need antistarshaped + strict,
    qmit needs a strictly increasing h whose dual is antistarshaped.
    """

    convex: bool
    concave: bool
    starshaped: bool
    antistarshaped: bool
    strictly_increasing: bool
    dual_antistarshaped: bool
    witnesses: dict = field(default_factory=dict)

    def flags(self) -> dict:
        return {
            "convex": self.convex,
            "concave": self.concave,
            "starshaped": self.starshaped,
            "antistarshaped": self.antistarshaped,
            "strictly_increasing": self.strictly_increasing,
            "dual_antistarshaped": self.dual_antistarshaped,
        }


def validate(fn: funcalc.FunctionLike,
             label: Optional[str] = None,
             inverse_fn: Optional[Callable[[float], float]] = None,
             co_inverse_fn: Optional[Callable[[float], float]] = None) -> Distortion:
    """Check distortion axioms on a dense [0,1] sample and wrap the function.

    Accepts a callable or expression text.  Rejects endpoint violations
    (h(0) != 0, h(1) != 1) and any decreasing adjacent pair, each with the
    witness point in the message.  Strictness is set by grid behavior: no
    adjacent tie larger than the tolerance allows.
    """
    fn, own_label = funcalc.coerce_fn(fn, "distortion")
    label = own_label if label is None else label
    pts = validation_points()
    vals = sample(fn, pts, DistortionValidationError,
                  lambda p, v: f"{label}: non-finite value {v!r} at p={p}")
    if abs(vals[0]) > _ENDPOINT_TOL:
        raise DistortionValidationError(f"{label}: h(0) = {float(vals[0])!r}, expected 0")
    if abs(vals[-1] - 1.0) > _ENDPOINT_TOL:
        raise DistortionValidationError(f"{label}: h(1) = {float(vals[-1])!r}, expected 1")
    i = first(vals[1:] < vals[:-1] - _ENDPOINT_TOL)
    if i is not None:
        raise DistortionValidationError(
            f"{label}: decreasing on [{pts[i]}, {pts[i + 1]}] "
            f"(h drops from {float(vals[i])!r} to {float(vals[i + 1])!r})")
    strictly = not np.any(np.diff(vals) <= SCAN_TIE_TOL)
    return Distortion(fn=fn, label=label, strictly_increasing=strictly,
                      inverse_fn=inverse_fn, co_inverse_fn=co_inverse_fn)


def dual(h: Distortion) -> Distortion:
    """Dual distortion h*(p) = 1 - h(1-p); distorts the cdf as h does the survival."""
    fn = h.fn
    dual_fn = lambda p: 1.0 - fn(1.0 - p)
    inv = None
    if h.inverse_fn is not None:
        base_inv = h.inverse_fn
        inv = lambda y: 1.0 - base_inv(1.0 - y)
    # 1 - dual(h)^-1(1-p) = h^-1(p), so the dual's co-inverse is h's inverse
    return Distortion(fn=dual_fn, label=f"dual({h.label})",
                      strictly_increasing=h.strictly_increasing, inverse_fn=inv,
                      co_inverse_fn=h.inverse_fn)


def inverse(h: Distortion, y: float) -> float:
    """Generalized (left-continuous) inverse of h at y in [0,1].

    Uses the closed-form inverse when the distortion carries one; otherwise
    bisection.  Values at the endpoints map to 0/1 exactly.
    """
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return 1.0
    if h.inverse_fn is not None:
        return min(1.0, max(0.0, h.inverse_fn(y)))
    return monotone_inverse(h.fn, y, 0.0, 1.0)


def co_inverse(h: Distortion, p: float) -> float:
    """1 - inverse(h, 1-p), computed without the complement roundtrip when
    the distortion carries a closed co-inverse (distorted quantiles are
    q(co_inverse(h, p)), and the roundtrip's 1e-16 quantization matters
    wherever this map has steep slope)."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    if h.co_inverse_fn is not None:
        return min(1.0, max(0.0, h.co_inverse_fn(p)))
    return 1.0 - inverse(h, 1.0 - p)


def classify(h: Distortion, grid: Optional[Grid] = None) -> ShapeReport:
    """Shape classification on a dense uniform sample of (0,1].

    star/antistar read the steps of h(p)/p, convex/concave the divided
    second differences, and the dual's antistarshapedness the steps of
    h*(p)/p.  A step within SCAN_TIE_TOL is a tie and counts both ways, so
    the identity is all four shapes at once.  Each failed flag's witness is
    the first grid point that contradicts it: the left end of the first
    offending step, or the centre of the first offending second difference.
    """
    if grid is not None:
        pts = list(grid.points)
    else:
        # (0,1] sample: ratios need p > 0, endpoint p=1 anchors h(1)/1 = 1
        pts = validation_points()[1:]
    p = np.array(pts)
    vals = np.array([h.fn(x) for x in pts], dtype=float)
    step = np.diff(vals / p)
    dual_vals = 1.0 - np.array([h.fn(1.0 - x) for x in pts], dtype=float)
    dual_step = np.diff(dual_vals / p)
    # divided second differences approximate h'' up to O(spacing^2)
    slopes = np.diff(vals) / np.diff(p)
    curvature = 2.0 * np.diff(slopes) / (p[2:] - p[:-2])
    # flag -> (mask of contradicting entries, offset from entry to grid point)
    contradictions = {
        "convex": (curvature < -SCAN_TIE_TOL, 1),
        "concave": (curvature > SCAN_TIE_TOL, 1),
        "starshaped": (step < -SCAN_TIE_TOL, 0),
        "antistarshaped": (step > SCAN_TIE_TOL, 0),
        "dual_antistarshaped": (dual_step > SCAN_TIE_TOL, 0),
    }
    witnesses: dict = {}
    for flag, (mask, offset) in contradictions.items():
        i = first(mask)
        if i is not None:
            witnesses[flag] = pts[i + offset]
    return ShapeReport(**{flag: flag not in witnesses for flag in contradictions},
                       strictly_increasing=h.strictly_increasing,
                       witnesses=witnesses)


# --- built-in families ---

def identity() -> Distortion:
    return Distortion(fn=lambda p: p, label="identity", strictly_increasing=True,
                      inverse_fn=lambda y: y,
                      co_inverse_fn=lambda p: p)


def power(k: float) -> Distortion:
    """h(p) = p^k, k > 0; convex and starshaped for k >= 1."""
    if not k > 0:
        raise DistortionValidationError(f"power exponent must be positive, got {k!r}")
    return Distortion(fn=lambda p: p ** k, label=f"power:{k:g}",
                      strictly_increasing=True,
                      inverse_fn=lambda y: y ** (1.0 / k),
                      co_inverse_fn=lambda p: 1.0 - (1.0 - p) ** (1.0 / k))


def dualpower(k: float) -> Distortion:
    """h(p) = 1-(1-p)^k, k > 0; concave and antistarshaped for k >= 1."""
    if not k > 0:
        raise DistortionValidationError(f"dualpower exponent must be positive, got {k!r}")
    return Distortion(fn=lambda p: 1.0 - (1.0 - p) ** k, label=f"dualpower:{k:g}",
                      strictly_increasing=True,
                      inverse_fn=lambda y: 1.0 - (1.0 - y) ** (1.0 / k),
                      co_inverse_fn=lambda p: p ** (1.0 / k))


def parse_distortion_spec(text: str) -> Distortion:
    """CLI/config distortion forms: `identity`, `power:k`, `dualpower:k`,
    `h:<expr in p>`, or a bare expression."""
    text = text.strip()
    if text == "identity":
        return identity()
    if text.startswith("power:"):
        return power(funcalc.parse_constant(text[len("power:"):]))
    if text.startswith("dualpower:"):
        return dualpower(funcalc.parse_constant(text[len("dualpower:"):]))
    if text.startswith("h:"):
        return validate(text[len("h:"):])
    return validate(text)
