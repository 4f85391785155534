"""Distortion functions: validation, dual, inverse, composition, shape reports.

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
    Tolerance,
    DEFAULT_QUAD_TOL,
    first,
    monotone_inverse,
    monotone_scan,
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

    Accepts a callable, a parsed expression, or expression text.  Rejects
    endpoint violations (h(0) != 0, h(1) != 1) and any decreasing adjacent
    pair, each with the witness point in the message.  Strictness is set by
    grid behavior: no adjacent tie larger than the tolerance allows.
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


def inverse(h: Distortion, y: float, tol: Tolerance = DEFAULT_QUAD_TOL) -> float:
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
    return monotone_inverse(h.fn, y, 0.0, 1.0, tol=tol)


def co_inverse(h: Distortion, p: float, tol: Tolerance = DEFAULT_QUAD_TOL) -> float:
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
    return 1.0 - inverse(h, 1.0 - p, tol=tol)


def compose_on_survival(h1: Distortion, h2: Distortion) -> Distortion:
    """Pointwise h2(h1(p)): the distortion of applying h1 then h2 to a survival."""
    f1, f2 = h1.fn, h2.fn
    inv = None
    if h1.inverse_fn is not None and h2.inverse_fn is not None:
        i1, i2 = h1.inverse_fn, h2.inverse_fn
        inv = lambda y: i1(i2(y))
    coinv = None
    if h1.co_inverse_fn is not None and h2.co_inverse_fn is not None:
        c1, c2 = h1.co_inverse_fn, h2.co_inverse_fn
        coinv = lambda p: c1(c2(p))
    return validate(lambda p: f2(f1(p)),
                    label=f"({h2.label}) o ({h1.label})",
                    inverse_fn=inv,
                    co_inverse_fn=coinv)


def classify(h: Distortion, grid: Optional[Grid] = None,
             tie_tol: float = SCAN_TIE_TOL) -> ShapeReport:
    """Shape classification on a dense uniform sample of (0,1].

    star/antistar via monotone_scan of h(p)/p; convex/concave via sign_scan of
    divided second differences; the dual's antistarshapedness via the same
    ratio scan on h*.  "increasing" is non-decreasing throughout, so the
    identity is all four shapes at once.  Witnesses record the first grid
    point violating each failed property.
    """
    if grid is not None:
        pts = list(grid.points)
    else:
        # (0,1] sample: ratios need p > 0, endpoint p=1 anchors h(1)/1 = 1
        pts = validation_points()[1:]
    vals = [h.fn(p) for p in pts]
    ratios = [v / p for v, p in zip(vals, pts)]
    star_scan = monotone_scan(ratios, abs_tol=tie_tol)
    starshaped = star_scan.verdict in ("increasing", "constant")
    antistarshaped = star_scan.verdict in ("decreasing", "constant")

    # divided second differences approximate h'' up to O(spacing^2)
    d2 = []
    for i in range(1, len(pts) - 1):
        s_right = (vals[i + 1] - vals[i]) / (pts[i + 1] - pts[i])
        s_left = (vals[i] - vals[i - 1]) / (pts[i] - pts[i - 1])
        d2.append(2.0 * (s_right - s_left) / (pts[i + 1] - pts[i - 1]))
    # sign_scan semantics: convex iff no significant negative curvature,
    # concave iff no significant positive; an all-flat profile is both
    has_neg_curv = any(v < -tie_tol for v in d2)
    has_pos_curv = any(v > tie_tol for v in d2)
    convex = not has_neg_curv
    concave = not has_pos_curv

    dual_ratios = [(1.0 - h.fn(1.0 - p)) / p for p in pts]
    dual_scan = monotone_scan(dual_ratios, abs_tol=tie_tol)
    dual_antistar = dual_scan.verdict in ("decreasing", "constant")

    witnesses: dict = {}
    if not starshaped and star_scan.witness_index is not None:
        witnesses["starshaped"] = pts[star_scan.witness_index]
    if not antistarshaped and star_scan.witness_index is not None:
        witnesses["antistarshaped"] = pts[star_scan.witness_index]
    if star_scan.verdict == "increasing":
        witnesses.setdefault("antistarshaped", pts[0])
    if star_scan.verdict == "decreasing":
        witnesses.setdefault("starshaped", pts[0])
    if not convex:
        idx = next((i for i, v in enumerate(d2) if v < -tie_tol), 0)
        witnesses["convex"] = pts[idx + 1]
    if not concave:
        idx = next((i for i, v in enumerate(d2) if v > tie_tol), 0)
        witnesses["concave"] = pts[idx + 1]
    if not dual_antistar and dual_scan.witness_index is not None:
        witnesses["dual_antistarshaped"] = pts[dual_scan.witness_index]
    if dual_scan.verdict == "increasing":
        witnesses.setdefault("dual_antistarshaped", pts[0])

    return ShapeReport(convex=convex, concave=concave,
                       starshaped=starshaped, antistarshaped=antistarshaped,
                       strictly_increasing=h.strictly_increasing,
                       dual_antistarshaped=dual_antistar,
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


def from_expression(text: str) -> Distortion:
    return validate(text)


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
        return from_expression(text[len("h:"):])
    return from_expression(text)
