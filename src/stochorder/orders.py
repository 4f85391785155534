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

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .distributions import (
    EPS_Q,
    DegenerateDensityError,
    Distribution,
    check_tail_decay,
    density_at_quantile,
)
from .numerics import (
    DEFAULT_GRID,
    Grid,
    Tolerance,
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


def ttt_transform(X: Distribution, p: float) -> float:
    """Area under the survival function up to the p-quantile; increasing in p."""
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    body = integrate(q, eps, p, _QUAD_TOL) if p > eps else 0.0
    return (1.0 - p) * q(p) + eps * q(eps) + body


def mit_transform(X: Distribution, p: float) -> float:
    """Area under the cdf up to the p-quantile; increasing in p, 0 at p=0."""
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    body = integrate(q, eps, p, _QUAD_TOL) if p > eps else 0.0
    return p * q(p) - (eps * q(eps) + body)


def excess_wealth(X: Distribution, p: float) -> float:
    """Upper-tail wealth beyond the p-quantile; decreasing in p, 0 at p=1.

    Raises InfiniteMeanError when the tail rungs of the integral refuse to
    decay, as mean() does.
    """
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    hi = 1.0 - eps
    tail, rungs = edge_ladder_integral(q, p, hi, side="hi", tol=_QUAD_TOL)
    check_tail_decay(X.label, rungs)
    return tail + eps * q(hi) - (1.0 - p) * q(p)


def transform_curves(X: Distribution, grid: Grid = DEFAULT_GRID,
                     require_finite_mean: bool = False) -> Dict[str, Tuple[float, ...]]:
    """ttt/ew/mit sampled over a grid in one cumulative pass.

    Integrates q once per grid segment and assembles all three transforms
    from prefix/suffix sums, so a 512-point curve costs ~513 small
    quadratures instead of 1536 full ones.  The ew curve is infinite when
    the mean is: require_finite_mean raises InfiniteMeanError when the
    upper-tail rungs refuse to decay (ttt and mit stay defined).
    """
    q = X.quantile
    eps = EPS_Q
    pts = grid.points
    p = np.array(pts)
    qv = np.array([q(x) for x in pts], dtype=float)
    q_eps = q(eps)
    q_hi = q(1.0 - eps)

    head = integrate(q, eps, pts[0], _SEGMENT_TOL)
    segments = [integrate(q, a, b, _SEGMENT_TOL) for a, b in zip(pts, pts[1:])]
    tail_last, tail_rungs = edge_ladder_integral(q, pts[-1], 1.0 - eps,
                                                 side="hi", tol=_SEGMENT_TOL)
    if require_finite_mean:
        check_tail_decay(X.label, tail_rungs)

    # sequential sums: prefix runs from the head out, suffix from the tail in
    prefix = np.cumsum([head] + segments)
    suffix = np.cumsum([tail_last] + segments[::-1])[::-1]
    ttt = (1.0 - p) * qv + eps * q_eps + prefix
    mit = p * qv - (eps * q_eps + prefix)
    ew = suffix + eps * q_hi - (1.0 - p) * qv
    return {"p": pts, "ttt": tuple(ttt.tolist()), "ew": tuple(ew.tolist()),
            "mit": tuple(mit.tolist()), "quantile": tuple(qv.tolist())}


def _threshold(tol: Tolerance, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return tol.abs_tol + tol.rel_tol * np.maximum(np.abs(a), np.abs(b))


def density_ratios(X: Distribution, Y: Distribution,
                    points: Sequence[float]) -> np.ndarray:
    """s(p) = density_X(q_X(p)) / density_Y(q_Y(p)) at each point."""
    return np.array([density_at_quantile(X, p) / density_at_quantile(Y, p)
                     for p in points])


# key -> (curve of X, curve of Y) from the transform passes of one request
_Curves = Callable[[str], Tuple[np.ndarray, np.ndarray]]


def _ratio_samples(X: Distribution, Y: Distribution, kind: OrderKind,
                   grid: Grid, curves: _Curves) -> Tuple[np.ndarray, np.ndarray,
                                                         np.ndarray, np.ndarray,
                                                         List[str]]:
    """Numerator/denominator samples for the ratio kinds.

    Returns the kept (p, value_x, value_y, ratio) arrays plus exclusion
    notes; points with degenerate denominators or densities are dropped.
    The ratio is value_y/value_x for dmrl and star, value_x/value_y for
    qmit and convex_transform.  dmrl and qmit read their ew/mit samples
    from curves.
    """
    pts = grid.points
    if kind == OrderKind.CONVEX_TRANSFORM:
        notes = []
        kept = []
        for p in pts:
            try:
                kept.append((p, density_at_quantile(X, p),
                             density_at_quantile(Y, p)))
            except DegenerateDensityError as ex:
                notes.append(f"excluded p={p:.6g}: {ex}")
        p, vx, vy = np.array(kept, dtype=float).reshape(-1, 3).T
        return p, vx, vy, vx / vy, notes
    if kind == OrderKind.STAR:
        vx, vy = np.array([(X.quantile(p), Y.quantile(p)) for p in pts],
                          dtype=float).T
        den, eps, why = vx, 1e-9, "quantile of X ~0"
    else:
        key = "ew" if kind == OrderKind.DMRL else "mit"
        vx, vy = curves(key)
        den = vx if kind == OrderKind.DMRL else vy
        eps, why = _DENOM_EPS, f"{key} denominator ~0"
    p = np.array(pts)
    keep = np.abs(den) > eps
    notes = [f"excluded p={x:.6g}: {why}" for x in p[~keep].tolist()]
    p, vx, vy = p[keep], vx[keep], vy[keep]
    ratio = vx / vy if kind == OrderKind.QMIT else vy / vx
    return p, vx, vy, ratio, notes


_RATIO_NAMES = {OrderKind.DMRL: "excess-wealth ratio ew_y/ew_x",
                OrderKind.QMIT: "mean-inactivity ratio mit_x/mit_y",
                OrderKind.CONVEX_TRANSFORM: "density ratio at matched quantiles",
                OrderKind.STAR: "quantile ratio q_y/q_x"}


def check_orders(X: Distribution, Y: Distribution, kinds: Sequence[OrderKind],
                 grid: Grid = DEFAULT_GRID,
                 tol: Tolerance = DEFAULT_CHECK_TOL) -> List[OrderVerdict]:
    """Grid-certified verdicts for several orders between X and Y, in order.

    ttt, ew, dmrl and qmit all read the transform curves of X and Y, so
    each side's transform_curves pass runs at most once per call, when the
    first kind needing it is checked; the pass refuses an infinite mean
    when ew or dmrl is among the kinds.

    Pointwise kinds (ttt, ew) witness every grid point whose margin
    value_y - value_x drops below -tol; ratio kinds witness every adjacent
    grid pair where the ratio steps the wrong way beyond tol.  Both are one
    scan of upper - lower against abs_tol + rel_tol * max(|lower|, |upper|).
    The verdict is relative to the grid: "holds" certifies the sampled
    points only.
    """
    kinds = [OrderKind(kind) for kind in kinds]
    need_mean = OrderKind.EW in kinds or OrderKind.DMRL in kinds
    passes: List[Dict[str, Tuple[float, ...]]] = []

    def curves(key: str) -> Tuple[np.ndarray, np.ndarray]:
        for side in (X, Y)[len(passes):]:
            passes.append(transform_curves(side, grid, require_finite_mean=need_mean))
        return np.array(passes[0][key]), np.array(passes[1][key])

    return [_verdict(X, Y, kind, grid, tol, curves) for kind in kinds]


def _verdict(X: Distribution, Y: Distribution, kind: OrderKind, grid: Grid,
             tol: Tolerance, curves: _Curves) -> OrderVerdict:
    if kind in (OrderKind.TTT, OrderKind.EW):
        key = kind.value
        p = np.array(grid.points)
        vx, vy = curves(key)
        functional = vy - vx
        at, lower, upper = p, vx, vy
        notes = [f"functional is the pointwise margin {key}_y - {key}_x"]
    else:
        p, vx, vy, functional, notes = _ratio_samples(X, Y, kind, grid, curves)
        if p.size < 2:
            raise ValueError(f"{kind.value}: fewer than two usable grid points")
        decreasing = kind == OrderKind.QMIT
        at, lower, upper = p[:-1], functional[:-1], functional[1:]
        if decreasing:
            lower, upper = upper, lower
        direction = "decreasing" if decreasing else "increasing"
        notes.append(f"functional is the {_RATIO_NAMES[kind]}; must be {direction}")
    margin = upper - lower
    bad = np.flatnonzero(margin < -_threshold(tol, lower, upper))
    witnesses = tuple(zip(at[bad].tolist(), margin[bad].tolist()))
    curve = {"p": tuple(p.tolist()), "value_x": tuple(vx.tolist()),
             "value_y": tuple(vy.tolist()), "functional": tuple(functional.tolist())}
    return OrderVerdict(kind=kind, holds=not witnesses, witnesses=witnesses,
                        curve=curve, grid=grid, tolerance=tol, notes=tuple(notes))


def check_order(X: Distribution, Y: Distribution, kind: OrderKind,
                grid: Grid = DEFAULT_GRID,
                tol: Tolerance = DEFAULT_CHECK_TOL) -> OrderVerdict:
    """Grid-certified verdict for one order between X and Y (see check_orders)."""
    return check_orders(X, Y, (kind,), grid, tol)[0]


def dmrl_integral(X: Distribution, Y: Distribution, p: float) -> float:
    """One-parameter integral form of the dmrl comparison at p.

    I(p) = ew_Y(p) - s(p) ew_X(p) with s the density ratio
    density_X(q_X(p))/density_Y(q_Y(p)); the order holds iff I >= 0 on
    (0,1).  Cross-checks the ratio-monotonicity verdict.
    """
    _require_interior(p)
    s = density_at_quantile(X, p) / density_at_quantile(Y, p)
    return excess_wealth(Y, p) - s * excess_wealth(X, p)


def dmrl_integral_curve(X: Distribution, Y: Distribution,
                        grid: Grid = DEFAULT_GRID) -> Dict[str, Tuple[float, ...]]:
    """Sampled I(p) over a grid (one excess-wealth pass per distribution)."""
    ew_x = np.array(transform_curves(X, grid, require_finite_mean=True)["ew"])
    ew_y = np.array(transform_curves(Y, grid, require_finite_mean=True)["ew"])
    s = density_ratios(X, Y, grid.points)
    return {"p": grid.points, "value": tuple((ew_y - s * ew_x).tolist())}


def dmrl_two_point_table(X: Distribution, Y: Distribution, count: int = 32) -> dict:
    """Two-parameter diagnostic I(p, q) = ew_Y(q) - s(p) ew_X(q) on p <= q.

    Equivalent in the limit to the one-parameter form; sampled on a coarse
    triangular grid as a numerical cross-check, not a verdict.
    """
    grid = uniform_grid(count=max(16, count))
    ew_x = np.array(transform_curves(X, grid, require_finite_mean=True)["ew"])
    ew_y = np.array(transform_curves(Y, grid, require_finite_mean=True)["ew"])
    s = density_ratios(X, Y, grid.points)
    # row i is p = points[i], column j is q = points[j]; keep j >= i
    table = ew_y - s[:, None] * ew_x
    upper = np.triu(np.ones(table.shape, dtype=bool))
    i, j = np.unravel_index(np.argmin(np.where(upper, table, np.inf)), table.shape)
    negative = upper & (table < -_threshold(DEFAULT_CHECK_TOL, ew_x, ew_y))
    return {"min_value": float(table[i, j]),
            "argmin": (grid.points[i], grid.points[j]),
            "negative_count": int(np.count_nonzero(negative)),
            "checked": int(np.count_nonzero(upper))}


_XSPACE_TOL = Tolerance(abs_tol=1e-8, rel_tol=1e-8)


def qmit_xspace_integral(X: Distribution, Y: Distribution, t: float) -> float:
    """x-space form of the qmit comparison at threshold t.

    With alpha(x) = q_Y(F_X(x)), computes
        integral_0^t [alpha'(t) - alpha'(x)] F_X(x) dx,
    which must be >= 0 for all t for qmit to hold.  Kept in x-space because
    the counterexample exhibiting the failure window is stated there.

    alpha' uses a five-point stencil with a wide step: alpha rides a
    cdf/quantile roundtrip whose cancellation noise near F ~ 1 would swamp
    a narrow central difference, while the fourth-order truncation keeps
    the wide step accurate.  The quadrature tolerance is matched to that
    noise floor (~1e-8); the counterexample signals are >= 1e-4.
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
        h = 1e-3 * max(1.0, abs(z))
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

    return integrate(integrand, 0.0, t, _XSPACE_TOL)


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
                            grid: Grid = DEFAULT_GRID) -> ImplicationReport:
    """Evaluate all six orders and flag violations of the implication chains."""
    verdicts = {v.kind.value: v.holds
                for v in check_orders(X, Y, tuple(OrderKind), grid)}
    violations = []
    for stronger, weaker in _CHAINS:
        if verdicts[stronger.value] and not verdicts[weaker.value]:
            violations.append(f"{stronger.value} holds but {weaker.value} fails")
    return ImplicationReport(verdicts=verdicts, violations=tuple(violations),
                             consistent=not violations)

