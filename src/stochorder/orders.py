"""Quantile-space order transforms and verdicts for six stochastic orders.

The transforms (total time on test, excess wealth, mean inactivity time) are
computed from the quantile function by integration by parts, so only q itself
is integrated:

    ttt(p) = (1-p) q(p) + integral_0^p q(t) dt        (area under survival)
    ew(p)  = integral_p^1 q(t) dt - (1-p) q(p)        (upper tail wealth)
    mit(p) = p q(p) - integral_0^p q(t) dt            (area under cdf)

with the open interval truncated at EPS_Q and rectangle corrections at both
ends; this keeps ttt + ew = mean at ~1e-12 rather than ~1e-6.

Order semantics (margins oriented so "holds" means margin >= -tol):
    ttt:  ttt_X(p) <= ttt_Y(p) pointwise
    ew:   ew_X(p) <= ew_Y(p) pointwise
    dmrl: ew_Y(p)/ew_X(p) increasing in p
    qmit: mit_X(p)/mit_Y(p) decreasing in p
    convex_transform: density_X(q_X(p))/density_Y(q_Y(p)) increasing in p
    star: q_Y(p)/q_X(p) increasing in p
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .distributions import (
    EPS_Q,
    DegenerateDensityError,
    Distribution,
    InfiniteMeanError,
    check_tail_decay,
    density_at_quantile,
)
from .numerics import (
    Grid,
    Tolerance,
    default_grid,
    derivative,
    edge_ladder_integral,
    integrate,
    uniform_grid,
)


class OrderKind(str, Enum):
    TTT = "ttt"
    EW = "ew"
    DMRL = "dmrl"
    QMIT = "qmit"
    CONVEX_TRANSFORM = "convex_transform"
    STAR = "star"


# orders whose verdict is a monotone-ratio scan rather than pointwise margins
_RATIO_KINDS = {OrderKind.DMRL, OrderKind.QMIT,
                OrderKind.CONVEX_TRANSFORM, OrderKind.STAR}

DEFAULT_CHECK_TOL = Tolerance(abs_tol=1e-8, rel_tol=1e-8)
_QUAD_TOL = Tolerance(abs_tol=1e-11, rel_tol=1e-11)
_SEGMENT_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-12)
_DENOM_EPS = 1e-12  # ratio denominators at or below this are excluded


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of one order check over a grid.

    holds is true iff witnesses is empty.  Witnesses are (p, margin) with
    margin negative: for pointwise kinds the margin is value_y - value_x at
    p; for ratio kinds it is the adjacent-pair ratio step in the required
    direction, anchored at the left point of the violating pair.  curve
    carries the sampled comparison (excluded points removed); notes record
    exclusions and other caveats.
    """

    kind: OrderKind
    holds: bool
    witnesses: Tuple[Tuple[float, float], ...]
    curve: Dict[str, Tuple[float, ...]]
    grid: Grid
    tolerance: Tolerance
    notes: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "holds": self.holds,
            "witnesses": [{"p": p, "margin": m} for p, m in self.witnesses],
            "grid": self.grid.describe(),
            "tolerance": {"abs_tol": self.tolerance.abs_tol,
                          "rel_tol": self.tolerance.rel_tol},
            "curve": {key: list(vals) for key, vals in self.curve.items()},
            "notes": list(self.notes),
        }


def _require_interior(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p!r}")


def ttt_transform(X: Distribution, p: float,
                  tol: Tolerance = _QUAD_TOL) -> float:
    """Area under the survival function up to the p-quantile; increasing in p."""
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    body = integrate(q, eps, p, tol) if p > eps else 0.0
    return (1.0 - p) * q(p) + eps * q(eps) + body


def mit_transform(X: Distribution, p: float,
                  tol: Tolerance = _QUAD_TOL) -> float:
    """Area under the cdf up to the p-quantile; increasing in p, 0 at p=0."""
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    body = integrate(q, eps, p, tol) if p > eps else 0.0
    return p * q(p) - (eps * q(eps) + body)


def excess_wealth(X: Distribution, p: float,
                  tol: Tolerance = _QUAD_TOL) -> float:
    """Upper-tail wealth beyond the p-quantile; decreasing in p, 0 at p=1."""
    _require_interior(p)
    if not X.finite_mean:
        raise InfiniteMeanError(f"{X.label}: excess wealth needs a finite mean")
    q = X.quantile
    eps = EPS_Q
    hi = 1.0 - eps
    tail, _ = edge_ladder_integral(q, p, hi, side="hi", tol=tol)
    return tail + eps * q(hi) - (1.0 - p) * q(p)


def transform_curves(X: Distribution, grid: Optional[Grid] = None,
                     tol: Tolerance = _SEGMENT_TOL,
                     require_finite_mean: bool = False) -> Dict[str, Tuple[float, ...]]:
    """ttt/ew/mit sampled over a grid in one cumulative pass.

    Integrates q once per grid segment and assembles all three transforms
    from prefix/suffix sums, so a 512-point curve costs ~513 small
    quadratures instead of 1536 full ones.  The ew curve is infinite when
    the mean is: require_finite_mean raises InfiniteMeanError when the
    upper-tail rungs refuse to decay (ttt and mit stay defined).
    """
    grid = grid if grid is not None else default_grid()
    q = X.quantile
    eps = EPS_Q
    pts = grid.points
    qvals = [q(p) for p in pts]
    q_eps = q(eps)
    q_hi = q(1.0 - eps)

    head = integrate(q, eps, pts[0], tol)
    segments = [integrate(q, a, b, tol) for a, b in zip(pts, pts[1:])]
    tail_last, tail_rungs = edge_ladder_integral(q, pts[-1], 1.0 - eps,
                                                 side="hi", tol=tol)
    if require_finite_mean:
        check_tail_decay(X.label, tail_rungs)

    prefix = []
    acc = head
    for seg in [0.0] + segments:
        acc += seg
        prefix.append(acc)
    suffix = [0.0] * len(pts)
    acc = tail_last
    for i in range(len(pts) - 1, -1, -1):
        suffix[i] = acc
        if i > 0:
            acc += segments[i - 1]

    ttt = tuple((1.0 - p) * qv + eps * q_eps + pre
                for p, qv, pre in zip(pts, qvals, prefix))
    mit = tuple(p * qv - (eps * q_eps + pre)
                for p, qv, pre in zip(pts, qvals, prefix))
    ew = tuple(suf + eps * q_hi - (1.0 - p) * qv
               for p, qv, suf in zip(pts, qvals, suffix))
    return {"p": pts, "ttt": ttt, "ew": ew, "mit": mit,
            "quantile": tuple(qvals)}


def _threshold(tol: Tolerance, *values: float) -> float:
    scale = max((abs(v) for v in values), default=0.0)
    return tol.abs_tol + tol.rel_tol * scale


def _ratio_samples(X: Distribution, Y: Distribution, kind: OrderKind,
                   grid: Grid) -> Tuple[List[float], List[float], List[float],
                                        List[float], List[str]]:
    """Per-point numerator/denominator samples for the ratio kinds.

    Returns kept (p, value_x, value_y, ratio) lists plus exclusion notes;
    points with degenerate denominators or densities are dropped.
    """
    pts = grid.points
    notes: List[str] = []
    kept_p: List[float] = []
    vx_list: List[float] = []
    vy_list: List[float] = []
    ratio: List[float] = []

    if kind in (OrderKind.DMRL, OrderKind.QMIT):
        key = "ew" if kind == OrderKind.DMRL else "mit"
        need_mean = key == "ew"
        cx = transform_curves(X, grid, require_finite_mean=need_mean)[key]
        cy = transform_curves(Y, grid, require_finite_mean=need_mean)[key]
        for p, vx, vy in zip(pts, cx, cy):
            den = vx if kind == OrderKind.DMRL else vy
            num = vy if kind == OrderKind.DMRL else vx
            if abs(den) <= _DENOM_EPS:
                notes.append(f"excluded p={p:.6g}: {key} denominator ~0")
                continue
            kept_p.append(p)
            vx_list.append(vx)
            vy_list.append(vy)
            ratio.append(num / den)
        return kept_p, vx_list, vy_list, ratio, notes

    for p in pts:
        if kind == OrderKind.STAR:
            vx = X.quantile(p)
            vy = Y.quantile(p)
            if abs(vx) <= 1e-9:
                notes.append(f"excluded p={p:.6g}: quantile of X ~0")
                continue
            r = vy / vx
        else:  # convex_transform
            try:
                vx = density_at_quantile(X, p)
                vy = density_at_quantile(Y, p)
            except DegenerateDensityError as ex:
                notes.append(f"excluded p={p:.6g}: {ex}")
                continue
            r = vx / vy
        kept_p.append(p)
        vx_list.append(vx)
        vy_list.append(vy)
        ratio.append(r)
    return kept_p, vx_list, vy_list, ratio, notes


def check_order(X: Distribution, Y: Distribution, kind: OrderKind,
                grid: Optional[Grid] = None,
                tol: Tolerance = DEFAULT_CHECK_TOL) -> OrderVerdict:
    """Grid-certified verdict for one order between X and Y.

    Pointwise kinds (ttt, ew) witness every grid point whose margin
    value_y - value_x drops below -tol; ratio kinds witness every adjacent
    grid pair where the ratio steps the wrong way beyond tol.  The verdict
    is relative to the grid: "holds" certifies the sampled points only.
    """
    kind = OrderKind(kind)
    grid = grid if grid is not None else default_grid()
    witnesses: List[Tuple[float, float]] = []
    notes: List[str] = []

    if kind in (OrderKind.TTT, OrderKind.EW):
        key = kind.value
        need_mean = key == "ew"
        cx = transform_curves(X, grid, require_finite_mean=need_mean)[key]
        cy = transform_curves(Y, grid, require_finite_mean=need_mean)[key]
        margins = []
        for p, vx, vy in zip(grid.points, cx, cy):
            m = vy - vx
            margins.append(m)
            if m < -_threshold(tol, vx, vy):
                witnesses.append((p, m))
        curve = {"p": grid.points, "value_x": cx, "value_y": cy,
                 "functional": tuple(margins)}
        notes.append(f"functional is the pointwise margin {key}_y - {key}_x")
        return OrderVerdict(kind=kind, holds=not witnesses,
                            witnesses=tuple(witnesses), curve=curve,
                            grid=grid, tolerance=tol, notes=tuple(notes))

    kept_p, vx_list, vy_list, ratio, excl = _ratio_samples(X, Y, kind, grid)
    notes.extend(excl)
    if len(kept_p) < 2:
        raise ValueError(f"{kind.value}: fewer than two usable grid points")
    decreasing = kind == OrderKind.QMIT
    for i in range(len(ratio) - 1):
        step = ratio[i + 1] - ratio[i]
        if decreasing:
            step = -step
        if step < -_threshold(tol, ratio[i], ratio[i + 1]):
            witnesses.append((kept_p[i], step))
    direction = "decreasing" if decreasing else "increasing"
    names = {OrderKind.DMRL: "excess-wealth ratio ew_y/ew_x",
             OrderKind.QMIT: "mean-inactivity ratio mit_x/mit_y",
             OrderKind.CONVEX_TRANSFORM: "density ratio at matched quantiles",
             OrderKind.STAR: "quantile ratio q_y/q_x"}
    notes.append(f"functional is the {names[kind]}; must be {direction}")
    curve = {"p": tuple(kept_p), "value_x": tuple(vx_list),
             "value_y": tuple(vy_list), "functional": tuple(ratio)}
    return OrderVerdict(kind=kind, holds=not witnesses,
                        witnesses=tuple(witnesses), curve=curve,
                        grid=grid, tolerance=tol, notes=tuple(notes))


def dmrl_integral(X: Distribution, Y: Distribution, p: float,
                  tol: Tolerance = _QUAD_TOL) -> float:
    """One-parameter integral form of the dmrl comparison at p.

    I(p) = ew_Y(p) - s(p) ew_X(p) with s the density ratio
    density_X(q_X(p))/density_Y(q_Y(p)); the order holds iff I >= 0 on
    (0,1).  Cross-checks the ratio-monotonicity verdict.
    """
    _require_interior(p)
    s = density_at_quantile(X, p) / density_at_quantile(Y, p)
    return excess_wealth(Y, p, tol) - s * excess_wealth(X, p, tol)


def dmrl_integral_curve(X: Distribution, Y: Distribution,
                        grid: Optional[Grid] = None) -> Dict[str, Tuple[float, ...]]:
    """Sampled I(p) over a grid (one excess-wealth pass per distribution)."""
    grid = grid if grid is not None else default_grid()
    ew_x = transform_curves(X, grid, require_finite_mean=True)["ew"]
    ew_y = transform_curves(Y, grid, require_finite_mean=True)["ew"]
    values = []
    for p, ex, ey in zip(grid.points, ew_x, ew_y):
        s = density_at_quantile(X, p) / density_at_quantile(Y, p)
        values.append(ey - s * ex)
    return {"p": grid.points, "value": tuple(values)}


def dmrl_two_point_table(X: Distribution, Y: Distribution, count: int = 32,
                         tol: Tolerance = DEFAULT_CHECK_TOL) -> dict:
    """Two-parameter diagnostic I(p, q) = ew_Y(q) - s(p) ew_X(q) on p <= q.

    Equivalent in the limit to the one-parameter form; sampled on a coarse
    triangular grid as a numerical cross-check, not a verdict.
    """
    grid = uniform_grid(count=max(16, count))
    ew_x = transform_curves(X, grid)["ew"]
    ew_y = transform_curves(Y, grid)["ew"]
    slopes = [density_at_quantile(X, p) / density_at_quantile(Y, p)
              for p in grid.points]
    worst = math.inf
    worst_at = (grid.points[0], grid.points[0])
    negatives = 0
    checked = 0
    for i, s in enumerate(slopes):
        for j in range(i, grid.count):
            value = ew_y[j] - s * ew_x[j]
            checked += 1
            if value < worst:
                worst = value
                worst_at = (grid.points[i], grid.points[j])
            if value < -_threshold(tol, ew_x[j], ew_y[j]):
                negatives += 1
    return {"min_value": worst, "argmin": worst_at,
            "negative_count": negatives, "checked": checked}


_XSPACE_TOL = Tolerance(abs_tol=1e-8, rel_tol=1e-8)


def qmit_xspace_integral(X: Distribution, Y: Distribution, t: float,
                         tol: Tolerance = _XSPACE_TOL,
                         step: Optional[float] = None) -> float:
    """x-space form of the qmit comparison at threshold t.

    With alpha(x) = q_Y(F_X(x)), computes
        integral_0^t [alpha'(t) - alpha'(x)] F_X(x) dx,
    which must be >= 0 for all t for qmit to hold.  Kept in x-space because
    the counterexample exhibiting the failure window is stated there.

    alpha' uses a five-point stencil with a wide step: alpha rides a
    cdf/quantile roundtrip whose cancellation noise near F ~ 1 would swamp
    a narrow central difference, while the fourth-order truncation keeps
    the wide step accurate.  The default tolerance is matched to that noise
    floor (~1e-8); the counterexample signals are >= 1e-4.
    """
    from .distributions import cdf  # local import avoids cycle at module load

    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    q_y = Y.quantile
    lo_clamp, hi_clamp = EPS_Q, 1.0 - EPS_Q

    def F(x: float) -> float:
        return min(1.0, max(0.0, cdf(X, x)))

    def alpha(x: float) -> float:
        return q_y(min(hi_clamp, max(lo_clamp, F(x))))

    def alpha_prime(z: float) -> float:
        h = step if step is not None else 1e-3 * max(1.0, abs(z))
        if z - 2.0 * h < 0.0:
            return derivative(alpha, z, step=min(h, max(z / 2.0, 1e-7)), lo=0.0)
        return (-alpha(z + 2.0 * h) + 8.0 * alpha(z + h)
                - 8.0 * alpha(z - h) + alpha(z - 2.0 * h)) / (12.0 * h)

    # the single outer slope alpha'(t) multiplies the whole integral, so it
    # uses a narrow central difference: the wide stencil's O(h * curvature
    # jump) error at a kink of alpha would shift the result visibly, while
    # the roundtrip noise on one narrow difference only costs ~1e-6 here
    a_t = derivative(alpha, t, step=5e-6 * max(1.0, abs(t)), lo=0.0)

    def integrand(x: float) -> float:
        fx = F(x)
        if fx <= 0.0:
            return 0.0
        return (a_t - alpha_prime(x)) * fx

    return integrate(integrand, 0.0, t, tol)


@dataclass(frozen=True)
class ImplicationReport:
    """Internal-consistency alarm over the one-directional order chains.

    The chains convex_transform => dmrl, convex_transform => qmit, and
    qmit => star must never be violated by correct numerics; a violation
    here is a numerical red flag, not a mathematical finding.
    """

    verdicts: Dict[str, bool]
    violations: Tuple[str, ...]
    consistent: bool

    def to_json(self) -> dict:
        return {"verdicts": dict(self.verdicts),
                "violations": list(self.violations),
                "consistent": self.consistent}


_CHAINS = (
    (OrderKind.CONVEX_TRANSFORM, OrderKind.DMRL),
    (OrderKind.CONVEX_TRANSFORM, OrderKind.QMIT),
    (OrderKind.QMIT, OrderKind.STAR),
)


def order_implication_check(X: Distribution, Y: Distribution,
                            grid: Optional[Grid] = None,
                            tol: Tolerance = DEFAULT_CHECK_TOL) -> ImplicationReport:
    """Evaluate all six orders and flag violations of the implication chains."""
    grid = grid if grid is not None else default_grid()
    verdicts = {kind.value: check_order(X, Y, kind, grid, tol).holds
                for kind in OrderKind}
    violations = []
    for stronger, weaker in _CHAINS:
        if verdicts[stronger.value] and not verdicts[weaker.value]:
            violations.append(f"{stronger.value} holds but {weaker.value} fails")
    return ImplicationReport(verdicts=verdicts, violations=tuple(violations),
                             consistent=not violations)


def write_curve_csv(verdict: OrderVerdict, fp) -> None:
    """Stream a verdict's sampled curve as CSV: p,value_x,value_y,functional."""
    fp.write("p,value_x,value_y,functional\n")
    curve = verdict.curve
    for p, vx, vy, fv in zip(curve["p"], curve["value_x"],
                             curve["value_y"], curve["functional"]):
        fp.write(f"{p:.17g},{vx:.17g},{vy:.17g},{fv:.17g}\n")
