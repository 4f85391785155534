"""Distortion functions: validation, dual, inverse, shape reports.

A distortion is an increasing h:[0,1] -> [0,1] with h(0)=0 and h(1)=1,
applied to a survival function.  Shape matters for order preservation:
starshaped means h(p)/p increasing on (0,1], antistarshaped means decreasing;
convexity implies starshapedness and concavity implies antistarshapedness.
Classification is grid-relative: verdicts certify sampled behavior at a
tolerance, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from . import funcalc
from .numerics import (
    SCAN_TIE_TOL,
    VALIDATION_COUNT,
    InputError,
    clamp,
    each,
    elementwise,
    first,
    inside,
    lift,
    monotone_inverse,
    on_arrays,
    sample,
    sample_cells,
    validation_points,
)

# root-solved points a distortion remembers: two float64 arrays of at most
# this many entries (512 KB); past it the memo starts again from the newest
SOLVED_LIMIT = 1 << 15
# the points of h.sampled, as the x ends of the cells a root solve starts in
_SAMPLE_POINTS = np.array(validation_points())


class DistortionValidationError(InputError):
    """Candidate function fails a distortion axiom; message carries a witness."""


@dataclass
class Distortion:
    """Validated distortion function.

    ``fn`` and the optional maps below are elementwise (callables from
    outside are lifted here), so h takes a float array of probabilities.
    ``inverse_fn`` is an optional closed-form inverse used as a fast path;
    the generalized inverse by root solve is the fallback.  ``co_inverse_fn``,
    p -> 1 - inverse(1-p), the map distorted quantiles ride on, is derived
    as that expression when not given; ``dual`` swaps the two, so the dual
    of p^k has co-inverse p^(1/k), free of the 1-(1-p) roundtrip whose
    ~1e-16 quantization its unbounded slope near 0 would amplify.

    Without ``inverse_fn``, each distortion remembers its root solves:
    ``solved`` holds the targets solved so far, sorted, and their
    inverses, at most SOLVED_LIMIT of them, looked up by exact key.

    ``sampled`` is h at the 513 points i/512 of ``validation_points()``,
    read-only: ``validate`` keeps the sample it checked, any other
    distortion takes it on first use (see values_at).  ``classify`` and the
    system tables read it instead of evaluating h again, and each root
    solve starts in the cell of it that brackets its target, with h at the
    cell's ends read from it (see _root_solved).

    Neither is an init argument, so ``dataclasses.replace`` and ``dual``
    start with an empty memo and no sample.
    """

    fn: Callable[[float], float]
    label: str
    strictly_increasing: bool
    inverse_fn: Optional[Callable[[float], float]] = None
    co_inverse_fn: Optional[Callable[[float], float]] = None
    solved: Tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(0), np.empty(0)),
        init=False, compare=False, repr=False)
    sampled: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.fn = lift(self.fn)
        if self.inverse_fn is not None:
            inv = self.inverse_fn = lift(self.inverse_fn)
            if self.co_inverse_fn is None:
                self.co_inverse_fn = elementwise(lambda p: 1.0 - inv(1.0 - p))
        if self.co_inverse_fn is not None:
            self.co_inverse_fn = lift(self.co_inverse_fn)

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

    Accepts a callable or expression text.  h is sampled at the 513 points
    i/512 and certified by numerics.sample: finite, h(0) = 0 and h(1) = 1,
    and no step down, each within SCAN_TIE_TOL; the first fault is refused
    with its witness in the message.  Strictness is set by grid behavior:
    no adjacent step of at most SCAN_TIE_TOL.
    """
    fn, own_label = funcalc.coerce_fn(fn, "distortion")
    label = own_label if label is None else label
    vals = sample(fn, validation_points(), DistortionValidationError, label, "h",
                  ends=((0, 0.0), (-1, 1.0)))
    strictly = not np.any(np.diff(vals) <= SCAN_TIE_TOL)
    h = Distortion(fn=fn, label=label, strictly_increasing=strictly,
                   inverse_fn=inverse_fn, co_inverse_fn=co_inverse_fn)
    vals.setflags(write=False)
    h.sampled = vals
    return h


def _evaluated(h: Distortion, points: tuple) -> np.ndarray:
    vals = np.asarray(h.fn(np.array(points)), dtype=float)
    vals.setflags(write=False)
    return vals


def values_at(h: Distortion, count: int = VALIDATION_COUNT) -> np.ndarray:
    """h at validation_points(count), count >= 2, read-only.

    When count - 1 divides 512 these points are every (512/(count - 1))-th
    point i/512 of h's sample, the same floats, so they are read from
    ``h.sampled`` (taken here on first use if validate did not keep one);
    any other count is evaluated.
    """
    points = validation_points(count)
    step, rest = divmod(VALIDATION_COUNT - 1, count - 1)
    if rest:
        return _evaluated(h, points)
    if h.sampled is None:
        h.sampled = _evaluated(h, validation_points())
    return h.sampled[::step]


def dual(h: Distortion) -> Distortion:
    """Dual distortion h*(p) = 1 - h(1-p); distorts the cdf as h does the survival.

    The inverse of h* is h's co-inverse and its co-inverse is h's inverse,
    so the dual swaps the pair and dual(dual(h)) carries h's own."""
    fn = h.fn
    return Distortion(fn=elementwise(lambda p: 1.0 - fn(1.0 - p)),
                      label=f"dual({h.label})",
                      strictly_increasing=h.strictly_increasing,
                      inverse_fn=h.co_inverse_fn, co_inverse_fn=h.inverse_fn)


def inverse(h: Distortion, y):
    """Generalized (left-continuous) inverse of h at y in [0,1], or at each
    entry of an array y.

    Uses the closed-form inverse when the distortion carries one; otherwise
    a root solve of h (numerics.monotone_inverse), remembered per
    distortion (see _root_solved).  Values at the endpoints map to 0/1
    exactly.
    """
    if h.inverse_fn is not None:
        inner = lambda v: clamp(h.inverse_fn(v))
    else:
        inner = lambda v: _root_solved(h, v)
    return on_arrays(lambda y: inside(y, inner), y)


def _root_solved(h: Distortion, y: np.ndarray) -> np.ndarray:
    """The generalized inverse of h at y by root solve, served from h.solved
    where a target was solved before.

    A miss y is solved by monotone_inverse from the cell [x_(j-1), x_j] of
    h's sample (values_at) where s_(j-1) < y <= s_j, s the sample's running
    maximum, with h at the cell's ends read from the sample
    (numerics.sample_cells); a target outside [h(0), h(1)] raises what a
    solve on [0, 1] raises.

    Each target's solve is independent of the others in its array, so a
    remembered value is bit for bit the fresh solve.  The misses are solved
    in their order by one call, so its errors are the ones a solve of all
    of y would raise, and they are stored only after it returns.
    """
    keys, values = h.solved
    at = np.searchsorted(keys, y)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == y[hit]
    out = np.empty(y.shape)
    out[hit] = values[at[hit]]
    miss = np.flatnonzero(~hit)
    if miss.size:
        lo, hi, ends = sample_cells(_SAMPLE_POINTS, values_at(h), y[miss])
        out[miss] = monotone_inverse(h.fn, y[miss], lo, hi, values=ends)
        h.solved = _remember(keys, values, y[miss], out[miss])
    return out


def _remember(keys: np.ndarray, values: np.ndarray, new_keys: np.ndarray,
              new_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted memo (keys, values) with new entries merged in; when they
    would pass SOLVED_LIMIT, the new entries alone, cut to the limit."""
    new_keys, first_at = np.unique(new_keys, return_index=True)
    new_values = new_values[first_at]
    if keys.size + new_keys.size > SOLVED_LIMIT:
        return new_keys[:SOLVED_LIMIT], new_values[:SOLVED_LIMIT]
    at = np.searchsorted(keys, new_keys)
    return np.insert(keys, at, new_keys), np.insert(values, at, new_values)


def co_inverse(h: Distortion, p):
    """1 - inverse(h, 1-p), computed without the complement roundtrip when
    the distortion carries a closed co-inverse (distorted quantiles are
    q(co_inverse(h, p)), and the roundtrip's 1e-16 quantization matters
    wherever this map has steep slope).  Takes a float or an array.
    Without a closed form it goes through inverse, so its root solves
    share the distortion's memo with inverse's."""
    if h.co_inverse_fn is not None:
        inner = lambda v: clamp(h.co_inverse_fn(v))
    else:
        inner = lambda v: 1.0 - inverse(h, 1.0 - v)
    return on_arrays(lambda p: inside(p, inner), p)


def classify(h: Distortion) -> ShapeReport:
    """Shape classification on the points i/512, i = 1..512, of (0,1].

    h and its dual are read from h's sample (values_at): p and 1 - p are
    both among its points, so nothing is evaluated past the one sample of h.

    star/antistar read the steps of h(p)/p, convex/concave the divided
    second differences, and the dual's antistarshapedness the steps of
    h*(p)/p.  A step within SCAN_TIE_TOL is a tie and counts both ways, so
    the identity is all four shapes at once.  Each failed flag's witness is
    the first sample point that contradicts it: the left end of the first
    offending step, or the centre of the first offending second difference.
    """
    # (0,1] sample: ratios need p > 0, endpoint p=1 anchors h(1)/1 = 1
    pts = validation_points()[1:]
    p = np.array(pts)
    # h(1 - i/512) is the sample's entry 512 - i
    whole = values_at(h)
    vals, flipped = whole[1:], whole[-2::-1]
    step = np.diff(vals / p)
    dual_vals = 1.0 - flipped
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
    same = elementwise(lambda p: p)
    return Distortion(fn=same, label="identity", strictly_increasing=True,
                      inverse_fn=same, co_inverse_fn=same)


def _pow(k: float) -> Callable:
    """p -> p ** k, elementwise."""
    return elementwise(lambda p: each(pow, p, k))


def power(k: float) -> Distortion:
    """h(p) = p^k, k > 0 and finite; convex and starshaped for k >= 1."""
    if not (k > 0 and np.isfinite(k)):
        raise DistortionValidationError(
            f"power exponent must be positive and finite, got {k!r}")
    return Distortion(fn=_pow(k), label=f"power:{funcalc.format_constant(k)}",
                      strictly_increasing=True, inverse_fn=_pow(1.0 / k))


def dualpower(k: float) -> Distortion:
    """h(p) = 1-(1-p)^k, k > 0 and finite; concave and antistarshaped for k >= 1."""
    if not (k > 0 and np.isfinite(k)):
        raise DistortionValidationError(
            f"dualpower exponent must be positive and finite, got {k!r}")
    # the dual of p^k: 1-(1-p)^k, with inverse 1-(1-y)^(1/k) and co-inverse p^(1/k)
    return replace(dual(power(k)), label=f"dualpower:{funcalc.format_constant(k)}")


def parse_distortion_spec(text: str) -> Distortion:
    """CLI/config distortion forms: `identity`, `power:k`, `dualpower:k`,
    `h:<expr in p>`, or a bare expression; other text whose part before its
    first ':' is a bare name is refused as a mistyped form."""
    text = text.strip()
    if text == "identity":
        return identity()
    name, colon, rest = text.partition(":")
    if colon and name in ("power", "dualpower"):
        try:
            k = funcalc.parse_constant(rest)
        except funcalc.ExprError as ex:
            raise DistortionValidationError(f"bad {name} exponent in {text!r}: {ex}") from None
        return power(k) if name == "power" else dualpower(k)
    if colon and name == "h":
        return validate(rest.strip())
    if colon and name.strip().isidentifier():
        raise DistortionValidationError(f"unrecognized distortion spec {text!r}")
    return validate(text)
