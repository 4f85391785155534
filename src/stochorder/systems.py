"""Coherent-system distortions from minimal signatures and exchangeable copulas.

A system lifetime with exchangeable component lives is a distorted version of
the common component distribution: h_T(p) = sum_i a_i * C(p,..(i)..,p,1,..,1)
where (a_1,...,a_n) is the minimal signature and C the survival copula.  For
the generator-form copula this collapses to sum_k a_k * p * f(p)^(k-1); for
the diagonal-form copula to alpha*p + beta*d(p) with signature-only
coefficients.  Shape classification of h_T (starshaped / antistarshaped)
feeds the preservation advisor, which says which stochastic orders survive
the system construction.  Every h_T built here is elementwise: the generic
boundary sum and the series and parallel distortions sample a grid in one
``copulas.cop_eval`` call per non-zero signature term.

Signature entries are exact rationals (a float is refused), so they sum to
1 exactly and the closed-form classification constants (omega, Delta,
roots, alpha, beta) come out exact.

A parallel distortion is the dual of the series one, the diagonal section
of the copula.  Caution: where that section is flat at 0 (e.g. product,
n >= 2), the parallel co-inverse has unbounded slope at 0; the product,
Cuadras-Auge and comonotone sections have closed inverses, but
generator/diagonal parallels fall back to a root solve and are best kept
out of integration-heavy paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import copulas as cop_mod
from . import distortions as dist_mod
from .distortions import Distortion, ShapeReport
from .numerics import (DEFAULT_GRID, SCAN_TIE_TOL, InputError, each, elementwise,
                       first, sample, validation_points)
from .orders import ORDERS, OrderKind

_CROSSCHECK_TOL = 1e-12
_CROSSCHECK_COUNT = 65

class SignatureError(InputError):
    """Minimal-signature entries violate an invariant."""


def rational_str(value) -> str:
    """Render exact rationals as num/den; floats in full precision."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


@dataclass(frozen=True)
class MinimalSignature:
    """Coefficients (a_1,...,a_n) of the series-systems representation
    F_T-bar = sum a_i F-bar_{1:i}; they must sum to 1 so that h_T(1)=1."""

    a: Tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.a)

    def label(self) -> str:
        return ",".join(rational_str(x) for x in self.a)

    def floats(self) -> Tuple[float, ...]:
        return tuple(float(x) for x in self.a)


def signature(entries: Sequence[Union[int, str, Fraction]]) -> MinimalSignature:
    """Build a validated signature from ints, Fractions and rational text,
    which must sum to 1 exactly; a float (or a bool) is refused."""
    if len(entries) < 2:
        raise SignatureError(f"need at least 2 entries, got {len(entries)}")
    coerced = []
    for e in entries:
        if isinstance(e, (int, Fraction, str)) and not isinstance(e, bool):
            coerced.append(Fraction(e))  # text may carry surrounding spaces
        else:
            raise SignatureError(
                f"entry {e!r} is not an int, a Fraction or rational text")
    total = sum(coerced)
    if total != 1:
        raise SignatureError(f"entries must sum to 1, got {rational_str(total)}")
    return MinimalSignature(a=tuple(coerced))


def parse_signature(text: str) -> MinimalSignature:
    """Parse '2,0,-2,1' (integers or num/den fractions); an empty entry,
    a trailing comma's too, is refused rather than dropped."""
    parts = [s.strip() for s in text.split(",")]
    if "" in parts:
        raise SignatureError(
            f"bad signature {text!r}: entry {parts.index('') + 1} is empty")
    try:
        return signature(parts)
    except (ValueError, ZeroDivisionError) as ex:
        if isinstance(ex, SignatureError):
            raise
        raise SignatureError(f"bad signature {text!r}: {ex}") from None


@dataclass(frozen=True)
class SystemDistortion:
    """The distortion h_T of a system, plus where it came from."""

    h: Distortion
    sig: MinimalSignature
    closed_form: Optional[str] = None


@dataclass(frozen=True)
class DiagParams:
    """h_T(p) = alpha*p + beta*d(p) for diagonal-form copulas; alpha+beta=1."""

    alpha: Fraction
    beta: Fraction


@dataclass(frozen=True)
class ShapeClassification:
    """Outcome of a closed-form or grid shape analysis of h_T.

    verdict is one of: starshaped_any_f, antistarshaped_any_f,
    starshaped_if, antistarshaped_if (threshold on f(0) attached),
    starshaped, antistarshaped (concrete generator/diagonal),
    identity, inconclusive.
    """

    verdict: str
    threshold: Optional[object] = None  # Fraction or float
    parameters: dict = field(default_factory=dict)
    notes: str = ""
    direct: Optional[ShapeReport] = None

    def describe(self) -> str:
        if self.verdict.endswith("_if"):
            return f"{self.verdict[:-3]} if f(0) >= {rational_str(self.threshold)}"
        return self.verdict

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "description": self.describe()}
        if self.threshold is not None:
            out["threshold"] = rational_str(self.threshold)
        if self.parameters:
            out["parameters"] = {k: rational_str(v)
                                 for k, v in self.parameters.items()}
        if self.notes:
            out["notes"] = self.notes
        if self.direct is not None:
            out["direct_flags"] = self.direct.flags()
        return out


def _require_dimension(sig: MinimalSignature, n: int, what: str) -> None:
    if n != sig.n:
        raise SignatureError(
            f"signature has {sig.n} entries but {what} dimension is {n}")


def _boundary_sum(sig: MinimalSignature, copula: cop_mod.CopulaHandle):
    """p -> sum_i a_i * C(p,..(i)..,p,1,..,1), unvalidated; elementwise, so
    a grid costs one cop_eval per non-zero a_i."""
    n = sig.n
    terms = [(i, a) for i, a in enumerate(sig.floats(), start=1) if a != 0.0]
    return elementwise(
        lambda p: sum(a * cop_mod.cop_eval(copula, [p] * i + [1.0] * (n - i))
                      for i, a in terms))


def system_distortion(sig: MinimalSignature,
                      copula: cop_mod.CopulaHandle) -> SystemDistortion:
    """h_T(p) = sum_i a_i * C(p,..(i)..,p,1,..,1) for any copula handle.

    Generator- and diagonal-form copulas get their closed forms; the other
    kinds get the boundary sum.  Validation as a distortion is mandatory: a
    real vector summing to 1 need not give a monotone h_T for every copula.
    """
    if copula.kind == "durante":
        return durante_system_distortion(sig, copula)
    if copula.kind == "jaworski":
        return diag_system_distortion(sig, copula)
    _require_dimension(sig, copula.n, "copula")
    h = dist_mod.validate(_boundary_sum(sig, copula),
                          label=f"system(a={sig.label()}; {copula.label})")
    return SystemDistortion(h=h, sig=sig)


def build_system(signature_text: str, copula_text: str
                 ) -> Tuple[cop_mod.CopulaHandle, SystemDistortion]:
    """The copula and the system distortion that signature and copula spec
    text describe, the signature parsed first."""
    sig = parse_signature(signature_text)
    handle = cop_mod.parse_copula_spec(copula_text)
    return handle, system_distortion(sig, handle)


def _closed_form(sig: MinimalSignature, copula: cop_mod.CopulaHandle,
                 form: str, part: str, h_fn, closed_text: str) -> SystemDistortion:
    """The system distortion h_fn of a {form}-form copula (part names its
    generator or diagonal), validated, then cross-checked against its boundary
    sum on the 65 points i/64, where h is read from its validation sample."""
    _require_dimension(sig, copula.n, form)
    h = dist_mod.validate(h_fn, label=f"system(a={sig.label()}; {part})")
    pts = validation_points(_CROSSCHECK_COUNT)
    a = dist_mod.values_at(h, _CROSSCHECK_COUNT)
    what = f"{form}-form system"
    # the generic form is compared with h, not certified: it need only be finite
    b = sample(_boundary_sum(sig, copula), pts, SignatureError, f"{what}, generic form",
               "h", step_slack=math.inf)
    i = first(np.abs(a - b) > _CROSSCHECK_TOL)
    if i is not None:
        raise SignatureError(
            f"{what}: closed form {float(a[i])!r} != generic {float(b[i])!r} at p={pts[i]}")
    return SystemDistortion(h=h, sig=sig, closed_form=closed_text)


def _signed_terms(terms) -> str:
    parts = []
    for coeff, body in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        text = body if mag == 1 else f"{rational_str(mag)}*{body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + text)
    return " ".join(parts) if parts else "0"


def durante_system_distortion(sig: MinimalSignature,
                              copula: cop_mod.CopulaHandle) -> SystemDistortion:
    """Closed form sum_k a_k * p * f(p)^(k-1) for a generator-form copula
    (see _closed_form)."""
    gen = copula.generator
    weights = sig.floats()
    fn = gen.fn

    @elementwise
    def h_fn(p):
        fp = fn(p)
        total = 0.0
        power = 1.0  # f(p)^(k-1)
        for a in weights:
            total += a * p * power
            power *= fp
        return total

    bodies = ["p", "p*f(p)"] + [f"p*f(p)^{k}" for k in range(2, sig.n)]
    return _closed_form(sig, copula, "generator", f"f={gen.label}", h_fn,
                        _signed_terms(zip(sig.a, bodies)))


def diag_system_params(sig: MinimalSignature) -> DiagParams:
    """alpha = sum a_i (n-i)/(n-1), and beta = sum a_i (i-1)/(n-1), which is
    1 - alpha exactly since the a_i sum to 1."""
    n = sig.n
    alpha = sum((a * (n - i) for i, a in enumerate(sig.a, start=1)),
                Fraction(0)) / (n - 1)
    return DiagParams(alpha=alpha, beta=1 - alpha)


def diag_system_distortion(sig: MinimalSignature,
                           copula: cop_mod.CopulaHandle) -> SystemDistortion:
    """Closed form alpha*p + beta*d(p) for a diagonal-form copula, whose
    boundary sum is the cyclic average (see _closed_form)."""
    d = copula.diagonal
    params = diag_system_params(sig)
    alpha = float(params.alpha)
    beta = float(params.beta)
    dfn = d.fn

    @elementwise
    def h_fn(p):
        return alpha * p + beta * dfn(p)

    return _closed_form(sig, copula, "diagonal", f"d={d.label}", h_fn,
                        _signed_terms([(params.alpha, "p"), (params.beta, "d(p)")]))


def durante_condition_values(sig: MinimalSignature,
                             gen: cop_mod.DuranteGenerator,
                             points: Sequence[float]) -> np.ndarray:
    """Sample S(p) = sum_{k=1}^{n-1} k a_{k+1} f(p)^(k-1); its sign decides
    whether h_T is starshaped (>= 0) or antistarshaped (<= 0)."""
    _require_dimension(sig, gen.n, "generator")
    weights = sig.floats()
    fvals = np.asarray(gen.fn(np.asarray(points, dtype=float)), dtype=float)
    total = np.zeros_like(fvals)
    power = np.ones_like(fvals)  # f(p)^(k-1)
    for k in range(1, sig.n):
        total += k * weights[k] * power
        power *= fvals
    return total


def durante_shape_condition(sig: MinimalSignature,
                            gen: cop_mod.DuranteGenerator) -> ShapeClassification:
    """h_T is starshaped [antistarshaped] iff
    S(p) = sum_{k=1}^{n-1} k a_{k+1} f(p)^(k-1) is >= 0 [<= 0]; scan S on the
    default grid."""
    points = DEFAULT_GRID.points
    values = durante_condition_values(sig, gen, points)
    params = {"condition_min": float(values.min()),
              "condition_max": float(values.max())}
    # an all-zero S (within SCAN_TIE_TOL) reads starshaped
    i = first(values < -SCAN_TIE_TOL)
    if i is None:
        return ShapeClassification(verdict="starshaped", parameters=params,
                                   notes="h_T(p)/p increasing on the grid")
    if not np.any(values > SCAN_TIE_TOL):
        return ShapeClassification(verdict="antistarshaped", parameters=params,
                                   notes="h_T(p)/p decreasing on the grid")
    witness_p = points[i]
    return ShapeClassification(
        verdict="inconclusive", parameters=params,
        notes=f"shape condition changes sign (witness p={witness_p:.6g})")


def _sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _shapes(lead: Fraction) -> Tuple[str, str]:
    """(shape of h_T where S >= 0 past the largest root of S in f, the other
    shape), read off the sign of the leading coefficient of S."""
    if lead > 0:
        return "starshaped", "antistarshaped"
    return "antistarshaped", "starshaped"


def classify_3component(sig: MinimalSignature) -> ShapeClassification:
    """Closed-form shape of h_T for n=3 and any valid generator f.

    The condition S(f) = a2 + 2 a3 f is affine in f with root
    omega = -a2/(2 a3); since f maps into [f(0), 1], the sign of S over that
    range follows from omega's position relative to 0 and 1.
    """
    if sig.n != 3:
        raise SignatureError(f"classify_3component needs n=3, got n={sig.n}")
    a2, a3 = sig.a[1], sig.a[2]
    if a3 == 0:
        if a2 > 0:
            return ShapeClassification(
                verdict="starshaped_any_f", parameters={"a2": a2},
                notes="a3=0: condition reduces to a2 >= 0")
        if a2 < 0:
            return ShapeClassification(
                verdict="antistarshaped_any_f", parameters={"a2": a2},
                notes="a3=0: condition reduces to a2 <= 0")
        return ShapeClassification(
            verdict="identity", parameters={"a2": a2},
            notes="a2=a3=0: h_T(p)=p (both starshaped and antistarshaped)")
    omega = -a2 / (2 * a3)
    params = {"omega": omega}
    star, anti = _shapes(a3)
    if omega >= 1:
        return ShapeClassification(f"{anti}_any_f", parameters=params)
    if omega > 0:
        return ShapeClassification(f"{star}_if", threshold=omega,
                                   parameters=params)
    return ShapeClassification(f"{star}_any_f", parameters=params)


def classify_4component(sig: MinimalSignature) -> ShapeClassification:
    """Closed-form shape of h_T for n=4 and any valid generator f.

    The condition S(f) = a2 + 2 a3 f + 3 a4 f^2 is a parabola in f; with
    Delta = a3^2 - 3 a2 a4 and roots x = (-a3 +/- sqrt(Delta))/(3 a4), the
    sign over f-ranges [f(0), 1] (subsets of [0,1]) is read off the root
    positions.  a4=0 reduces to the 3-component scheme.
    """
    if sig.n != 4:
        raise SignatureError(f"classify_4component needs n=4, got n={sig.n}")
    a2, a3, a4 = sig.a[1], sig.a[2], sig.a[3]
    if a4 == 0:
        reduced = MinimalSignature(a=(sig.a[0], a2, a3))
        result = classify_3component(reduced)
        notes = "a4=0: reduced to the 3-component scheme"
        if result.notes:
            notes += "; " + result.notes
        return replace(result, notes=notes)
    delta = a3 * a3 - 3 * a2 * a4
    params = {"delta": delta}
    star, anti = _shapes(a4)
    if delta <= 0:
        return ShapeClassification(f"{star}_any_f", parameters=params)
    root = _sqrt_fraction(delta)
    if root is not None:
        x1 = (-a3 - root) / (3 * a4)
        x2 = (-a3 + root) / (3 * a4)
    else:
        s = math.sqrt(float(delta))
        x1 = (float(-a3) - s) / (3 * float(a4))
        x2 = (float(-a3) + s) / (3 * float(a4))
    lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
    params = {"delta": delta, "x1": lo, "x2": hi}
    if hi <= 0:
        return ShapeClassification(f"{star}_any_f", parameters=params)
    if hi < 1:
        return ShapeClassification(f"{star}_if", threshold=hi, parameters=params)
    # hi >= 1 from here
    if lo <= 0:
        return ShapeClassification(f"{anti}_any_f", parameters=params)
    if lo < 1:
        return ShapeClassification(f"{anti}_if", threshold=lo, parameters=params)
    return ShapeClassification(f"{star}_any_f", parameters=params)


def classify_diag(built: SystemDistortion,
                  d: cop_mod.Diagonal,
                  shape: ShapeReport) -> ShapeClassification:
    """h_T = alpha*p + beta*d(p) is starshaped [antistarshaped] iff d is
    starshaped and beta > 0 [< 0]; outside the theorem's reach ``shape``,
    the caller's classification of the built h_T, is attached instead.
    The diagonal's flags are read from the sample ``validate_diagonal``
    kept, which checked d's distortion axioms (up to its own slack)."""
    sig = built.sig
    _require_dimension(sig, d.n, "diagonal")
    params = diag_system_params(sig)
    base = {"alpha": params.alpha, "beta": params.beta}
    if params.beta == 0:
        return ShapeClassification(
            verdict="identity", parameters=base,
            notes="beta=0: h_T(p)=p (both starshaped and antistarshaped)")
    # only the starshaped flag is read, so strictness is left unset
    d_dist = Distortion(fn=d.fn, label=f"diagonal {d.label}",
                        strictly_increasing=False)
    d_dist.sampled = d.sampled
    if dist_mod.classify(d_dist).starshaped:
        if params.beta > 0:
            return ShapeClassification(
                verdict="starshaped", parameters=base,
                notes="diagonal is starshaped and beta > 0")
        return ShapeClassification(
            verdict="antistarshaped", parameters=base,
            notes="diagonal is starshaped and beta < 0")
    return ShapeClassification(
        verdict="inconclusive", parameters=base,
        notes="diagonal is not starshaped; direct grid classification attached",
        direct=shape)


def shape_theorems(built: SystemDistortion,
                   copula: cop_mod.CopulaHandle,
                   shape: ShapeReport) -> dict:
    """Report fields from the shape results that apply to the copula kind
    of a built system: the n=3/n=4 corollary and the shape condition for
    the generator form, alpha, beta and the diagonal theorem for the
    diagonal form; none for the other kinds.  ``shape`` is the caller's
    classification of built.h."""
    sig = built.sig
    if copula.kind == "durante":
        out = {"shape_condition": durante_shape_condition(
            sig, copula.generator).to_json()}
        if sig.n == 3:
            out["corollary"] = classify_3component(sig).to_json()
        elif sig.n == 4:
            out["corollary"] = classify_4component(sig).to_json()
        return out
    if copula.kind == "jaworski":
        report = classify_diag(built, copula.diagonal, shape).to_json()
        return {"diag_params": report["parameters"],
                "diag_classification": report}
    return {}


def series_distortion(surv_copula: cop_mod.CopulaHandle) -> Distortion:
    """g(p) = C(p,...,p) for the survival copula C: the distortion of a
    series system (lifetime = min of components); closed inverses for the
    sections p^n (product), p^(2-theta) (Cuadras-Auge) and p (comonotone)."""
    handle = surv_copula
    n = handle.n
    inverse_fn = co_inverse_fn = None
    if handle.kind in ("product", "cuadras_auge"):
        k = n if handle.kind == "product" else 2.0 - handle.theta
        inverse_fn = elementwise(lambda y: each(pow, y, 1.0 / k))
    elif handle.kind == "comonotone":
        inverse_fn = co_inverse_fn = elementwise(lambda p: p)

    @elementwise
    def h_fn(p):
        return cop_mod.cop_eval(handle, [p] * n)

    return dist_mod.validate(h_fn, label=f"series({handle.label})",
                             inverse_fn=inverse_fn,
                             co_inverse_fn=co_inverse_fn)


def parallel_distortion(dist_copula: cop_mod.CopulaHandle) -> Distortion:
    """h(p) = 1 - C(1-p,...,1-p) for the distributional copula C: the
    distortion of a parallel system (lifetime = max of components), the
    dual of the series distortion of C."""
    return replace(dist_mod.dual(series_distortion(dist_copula)),
                   label=f"parallel({dist_copula.label})")


@dataclass(frozen=True)
class PreservationAdvice:
    order: OrderKind
    verdict: str  # preserved | not_guaranteed
    reason: str


def preservation_advice(order: OrderKind, shape: ShapeReport) -> PreservationAdvice:
    """Does distorting both distributions by an h of this shape keep the
    order?  Yes when h has every shape flag the order's row in
    orders.ORDERS needs (none for an order invariant under any common
    distortion)."""
    order = OrderKind(order)
    row = ORDERS[order]
    if all(getattr(shape, flag) for flag in row.needs):
        return PreservationAdvice(order, "preserved", row.because)
    return PreservationAdvice(order, "not_guaranteed", row.requires)
