"""Quantile-space order transforms and verdicts for six stochastic orders.

The transforms (total time on test, excess wealth, mean inactivity time) are
computed from the quantile function by integration by parts, so only q itself
is integrated:

    ttt(p) = (1-p) q(p) + integral_0^p q(t) dt        (area under survival)
    ew(p)  = integral_p^1 q(t) dt - (1-p) q(p)        (upper tail wealth)
    mit(p) = p q(p) - integral_0^p q(t) dt            (area under cdf)

with the open interval truncated at EPS_Q and rectangle corrections at both
ends; with mean() corrected the same way, ttt + ew = mean holds to ~3e-15
across the catalog (test_acceptance's a5 check).  Each
transform reads one end of (0, 1): ttt and mit the head, ew the upper tail,
and a check integrates only the ends its transforms read.  Each end is
laddered (numerics.ladder): rungs halving toward EPS_Q resolve a root cusp
of q at 0, as in a Weibull quantile or any quantile under the
parallel-system distortion 1 - (1-p)^k, and rungs halving toward 1 - EPS_Q
resolve the blowup of an unbounded quantile.

ORDERS holds one row per order: the curve it reads, the functional it
compares and the direction a ratio must move, what excludes a point, and
which distortions preserve it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import distortions
from .distributions import (
    EPS_Q,
    Distribution,
    cdf,
    check_tail_decay,
    quantile_slopes,
    slope_fault,
)
from .numerics import (
    DEFAULT_GRID,
    Grid,
    InputError,
    Tolerance,
    clamp,
    derivative,
    edge_ladder_integral,
    elementwise,
    integrate,
    integrate_many,
    ladder,
    rung_tolerance,
    settled,
)


class OrderKind(str, Enum):
    TTT = "ttt"
    EW = "ew"
    DMRL = "dmrl"
    QMIT = "qmit"
    CONVEX_TRANSFORM = "convex_transform"
    STAR = "star"


class OrderRow(NamedTuple):
    """What one order compares, what excludes a point, and which common
    distortions h of both sides preserve it.

    reads is the curve both sides are sampled on: "ttt", "ew" or "mit"
    from the transform pass, "quantile", or "density" at matched quantiles.
    ratio is None for the pointwise margin value_y - value_x, else "y/x" or
    "x/y", which must be increasing (decreasing if decreasing).  A ratio
    point is excluded where its denominator is at or below eps, noted as
    why; for "density" where either side has no density, noted as the
    fault.  h preserves the order when its ShapeReport has every flag in
    needs (because), and not otherwise (requires).
    """

    reads: str
    name: str  # the functional, in the verdict note
    ratio: Optional[str] = None
    decreasing: bool = False
    eps: float = 0.0
    why: str = ""
    needs: Tuple[str, ...] = ()
    because: str = "invariant under any common distortion"
    requires: str = ""


_ANTISTAR = dict(needs=("antistarshaped", "strictly_increasing"),
                 because="h is antistarshaped and strictly increasing",
                 requires="requires an antistarshaped, strictly increasing h")

ORDERS: Dict[OrderKind, OrderRow] = {
    OrderKind.TTT: OrderRow(
        "ttt", "pointwise margin ttt_y - ttt_x", needs=("starshaped",),
        because="h is starshaped", requires="requires a starshaped h"),
    OrderKind.EW: OrderRow("ew", "pointwise margin ew_y - ew_x", **_ANTISTAR),
    OrderKind.DMRL: OrderRow("ew", "excess-wealth ratio ew_y/ew_x", "y/x",
                             eps=1e-12, why="ew denominator ~0", **_ANTISTAR),
    OrderKind.QMIT: OrderRow(
        "mit", "mean-inactivity ratio mit_x/mit_y", "x/y", decreasing=True,
        eps=1e-12, why="mit denominator ~0",
        needs=("dual_antistarshaped", "strictly_increasing"),
        because="h is strictly increasing with antistarshaped dual",
        requires="requires a strictly increasing h with antistarshaped dual"),
    # the defining ratios of these two are invariant under a common
    # distortion of the baseline
    OrderKind.CONVEX_TRANSFORM: OrderRow(
        "density", "density ratio at matched quantiles", "x/y"),
    OrderKind.STAR: OrderRow("quantile", "quantile ratio q_y/q_x", "y/x",
                             eps=1e-9, why="quantile of X ~0"),
}

DEFAULT_CHECK_TOL = Tolerance(abs_tol=1e-8, rel_tol=1e-8)
_QUAD_TOL = Tolerance(abs_tol=1e-11, rel_tol=1e-11)
_SEGMENT_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-12)


@dataclass(frozen=True, eq=False)
class OrderVerdict:
    """Outcome of one order check over a grid; verdicts compare by identity.

    holds is true iff witnesses is empty.  Witnesses are (p, margin) with
    margin negative: for pointwise kinds the margin is value_y - value_x at
    p; for ratio kinds it is the adjacent-pair ratio step in the required
    direction, anchored at the left point of the violating pair.  curve
    carries the sampled comparison (excluded points removed) as read-only
    float64 arrays, not copied: p is grid.points when none is excluded, and
    one check's ew and dmrl share values.  notes record exclusions and other
    caveats.
    """

    kind: OrderKind
    holds: bool
    witnesses: Tuple[Tuple[float, float], ...]
    curve: Dict[str, np.ndarray]
    grid: Grid
    tolerance: Tolerance
    notes: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        """The verdict record check-order writes (without its scenario);
        the curve goes to the curve CSV instead."""
        return {
            "order": self.kind.value,
            "holds": self.holds,
            "witnesses": [{"p": p, "margin": m} for p, m in self.witnesses],
            "grid": self.grid.describe(),
            "tolerances": {"abs_tol": self.tolerance.abs_tol,
                           "rel_tol": self.tolerance.rel_tol},
            "notes": list(self.notes),
        }


def _require_interior(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p!r}")


def _head_integral(q: Callable, p: float) -> float:
    """integral of q over [EPS_Q, p], laddered toward EPS_Q: a root cusp of
    q at 0, as in q_X(p^(1/k)) or a Weibull quantile, would otherwise run
    one interval out of depth."""
    if p <= EPS_Q:
        return 0.0
    return edge_ladder_integral(q, EPS_Q, p, side="lo", tol=_QUAD_TOL)[0]


def ttt_transform(X: Distribution, p: float) -> float:
    """Area under the survival function up to the p-quantile; increasing in p."""
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    return (1.0 - p) * q(p) + eps * q(eps) + _head_integral(q, p)


def mit_transform(X: Distribution, p: float) -> float:
    """Area under the cdf up to the p-quantile; increasing in p, 0 at p=0."""
    _require_interior(p)
    q = X.quantile
    eps = EPS_Q
    return p * q(p) - (eps * q(eps) + _head_integral(q, p))


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


TRANSFORMS = ("ttt", "ew", "mit")


def transform_curves(sides: Sequence[Distribution], grid: Grid = DEFAULT_GRID,
                     reads: Collection[str] = TRANSFORMS
                     ) -> List[Dict[str, np.ndarray]]:
    """The transforms in reads (of ttt, ew and mit) of each distribution in
    sides sampled over a grid, in one cumulative pass for them all.  Each
    side's dict holds p (grid.points), quantile (q at the grid) and the
    transforms read, as read-only float64 arrays.

    Integrates each q once per grid segment and assembles the transforms
    from prefix/suffix sums, so a 512-point curve costs ~513 small
    quadratures instead of 1536 full ones.  ttt and mit read the head
    [EPS_Q, first point], laddered toward EPS_Q; ew reads the upper tail
    [last point, 1 - EPS_Q], laddered toward 1 - EPS_Q.  One partition, the
    head rungs if ttt or mit is read, the grid segments, then the tail
    rungs if ew is read, is refined in one integrate_many pass for every
    side together, each ladder's rungs at rung_tolerance and summed with
    fsum.  q at the grid points and the partition's ends is read from the
    values that pass returns at its cuts, so no point of q is evaluated
    twice, and none beyond the ends read.  Each piece is refined against
    its own tolerance, so a curve is the same, bit for bit, whatever else
    is read.  The ew curve is infinite when the mean is: reading ew raises
    InfiniteMeanError when the tail rungs refuse to decay.

    When every side is distort(base, h) of one h object (its ``distorted``
    record), the pass integrates the bases with integrate_many's inner
    co_inverse(h, .), so h is inverted once per quadrature level for all
    sides; the integrands are the distorted quantiles' own composition, so
    nothing read changes.

    A side's curves are the ones a pass of that side alone gives, bit for
    bit, and so is the error raised: the sides are read in order, each
    raising its quadrature failure, then its InfiniteMeanError.
    """
    eps = EPS_Q
    p = grid.points
    head = "ttt" in reads or "mit" in reads
    tail = "ew" in reads
    head_cuts = ladder(eps, float(p[0]), side="lo") if head else p[:1]
    tail_cuts = ladder(float(p[-1]), 1.0 - eps, side="hi") if tail else p[-1:]
    cuts = np.concatenate((head_cuts[:-1], p, tail_cuts[1:]))
    n_head = head_cuts.size - 1
    n_body = n_head + p.size - 1  # head rungs, then grid segments, then tail rungs
    abs_tol = np.full(cuts.size - 1, _SEGMENT_TOL.abs_tol)
    abs_tol[:n_head] = rung_tolerance(head_cuts, _SEGMENT_TOL).abs_tol
    abs_tol[n_body:] = rung_tolerance(tail_cuts, _SEGMENT_TOL).abs_tol
    fns, inner = [X.quantile for X in sides], None
    records = [X.distorted for X in sides]
    if records and all(records) and all(h is records[0][1] for _, h in records):
        h = records[0][1]
        fns = [base.quantile for base, _ in records]
        inner = lambda v: distortions.co_inverse(h, v)
    outcomes = integrate_many(fns, cuts, abs_tol, _SEGMENT_TOL.rel_tol, inner)
    passes = []
    for X, outcome in zip(sides, outcomes):
        values, at_cuts = settled(outcome)
        qv = at_cuts[n_head:n_body + 1]
        segments = values[n_head:n_body]
        curves: Dict[str, np.ndarray] = {"p": p, "quantile": qv}
        if head:
            # sequential sums from the head out
            q_eps = float(at_cuts[0])
            prefix = np.cumsum(np.concatenate(([math.fsum(values[:n_head].tolist())],
                                               segments)))
            if "ttt" in reads:
                curves["ttt"] = (1.0 - p) * qv + eps * q_eps + prefix
            if "mit" in reads:
                curves["mit"] = p * qv - (eps * q_eps + prefix)
        if tail:
            # sequential sums from the tail in
            tail_rungs = values[n_body:].tolist()
            check_tail_decay(X.label, tail_rungs[::-1])
            suffix = np.cumsum(np.concatenate(([math.fsum(tail_rungs)],
                                               segments[::-1])))[::-1]
            curves["ew"] = suffix + eps * float(at_cuts[-1]) - (1.0 - p) * qv
        passes.append(_read_only(curves))
    return passes


def _read_only(curve: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    for values in curve.values():
        values.setflags(write=False)
    return curve


def _threshold(tol: Tolerance, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return tol.abs_tol + tol.rel_tol * np.maximum(np.abs(a), np.abs(b))


def _densities(X: Distribution, Y: Distribution, p: np.ndarray):
    """Densities of X and Y at matched quantiles, and {index: fault message}
    for the points where either has none (X's fault first), in order."""
    with np.errstate(all="ignore"):
        sx, sy = quantile_slopes(X, p), quantile_slopes(Y, p)
        fx, fy = 1.0 / sx, 1.0 / sy
    # slope_fault's own test, q' finite and positive, as one mask
    bad = ~(np.isfinite(sx) & (sx > 0.0) & np.isfinite(sy) & (sy > 0.0))
    faults = {i: (slope_fault(X, float(sx[i]), float(p[i]))
                  or slope_fault(Y, float(sy[i]), float(p[i])))
              for i in np.flatnonzero(bad).tolist()}
    return fx, fy, faults


# key -> (curve of X, curve of Y) from the transform passes of one request
_Curves = Callable[[str], Tuple[np.ndarray, np.ndarray]]


def _samples(X: Distribution, Y: Distribution, row: OrderRow, grid: Grid,
             curves: _Curves) -> Tuple[np.ndarray, np.ndarray, Dict[int, str]]:
    """value_x and value_y at the grid points for the row's curve, and
    {index: why} for the points it excludes, in order."""
    if row.reads == "density":
        return _densities(X, Y, grid.points)
    vx, vy = curves(row.reads)
    if row.ratio is None:
        return vx, vy, {}
    den = vx if row.ratio == "y/x" else vy
    out = np.flatnonzero(~(np.abs(den) > row.eps)).tolist()
    return vx, vy, dict.fromkeys(out, row.why)


def check_orders(X: Distribution, Y: Distribution, kinds: Sequence[OrderKind],
                 grid: Grid = DEFAULT_GRID,
                 tol: Tolerance = DEFAULT_CHECK_TOL) -> List[OrderVerdict]:
    """Grid-certified verdicts for several orders between X and Y, in order.

    Each kind is checked as its row in ORDERS says.  The kinds whose rows
    read ttt, ew or mit share one transform_curves pass of both sides, run
    at most once per call, when the first of them is checked; it reads only
    the curves those rows read: ttt and mit integrated from EPS_Q up, ew
    from the grid up to 1 - EPS_Q, and with it the refusal of an infinite
    mean.  A row reading the quantile reads q at the grid from the pass
    when one has run, and evaluates it otherwise.

    A pointwise row witnesses every grid point whose margin value_y -
    value_x drops below -tol; a ratio row every adjacent grid pair where
    the ratio steps the wrong way beyond tol.  Both are one scan of
    upper - lower against abs_tol + rel_tol * max(|lower|, |upper|).
    The verdict is relative to the grid: "holds" certifies the sampled
    points only.
    """
    kinds = [OrderKind(kind) for kind in kinds]
    reads = {ORDERS[kind].reads for kind in kinds}.intersection(TRANSFORMS)
    passes: List[Dict[str, np.ndarray]] = []

    def curves(key: str) -> Tuple[np.ndarray, np.ndarray]:
        if not passes:
            if key == "quantile":
                # no pass has run: star evaluates q at the grid itself
                return X.quantile(grid.points), Y.quantile(grid.points)
            passes.extend(transform_curves((X, Y), grid, reads))
        return passes[0][key], passes[1][key]

    return [_verdict(X, Y, kind, grid, tol, curves) for kind in kinds]


def _verdict(X: Distribution, Y: Distribution, kind: OrderKind, grid: Grid,
             tol: Tolerance, curves: _Curves) -> OrderVerdict:
    row = ORDERS[kind]
    p = grid.points
    vx, vy, excluded = _samples(X, Y, row, grid, curves)
    notes = [f"excluded p={float(p[i]):.6g}: {why}" for i, why in excluded.items()]
    if excluded:  # the kept points, copied only when some are excluded
        p, vx, vy = (np.delete(a, list(excluded)) for a in (p, vx, vy))
    if row.ratio is None:
        functional = vy - vx
        at, lower, upper = p, vx, vy
        notes.append(f"functional is the {row.name}")
    else:
        if p.size < 2:
            raise InputError(f"{kind.value}: fewer than two usable grid points")
        functional = vy / vx if row.ratio == "y/x" else vx / vy
        at, lower, upper = p[:-1], functional[:-1], functional[1:]
        if row.decreasing:
            lower, upper = upper, lower
        direction = "decreasing" if row.decreasing else "increasing"
        notes.append(f"functional is the {row.name}; must be {direction}")
    margin = upper - lower
    bad = np.flatnonzero(margin < -_threshold(tol, lower, upper))
    witnesses = tuple(zip(at[bad].tolist(), margin[bad].tolist()))
    curve = _read_only({"p": p, "value_x": vx, "value_y": vy, "functional": functional})
    return OrderVerdict(kind=kind, holds=not witnesses, witnesses=witnesses,
                        curve=curve, grid=grid, tolerance=tol, notes=tuple(notes))


def check_order(X: Distribution, Y: Distribution, kind: OrderKind,
                grid: Grid = DEFAULT_GRID,
                tol: Tolerance = DEFAULT_CHECK_TOL) -> OrderVerdict:
    """Grid-certified verdict for one order between X and Y (see check_orders)."""
    return check_orders(X, Y, (kind,), grid, tol)[0]


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
    noise floor (~1e-8); the counterexample signals are >= 1e-4.  The
    integrand takes the points of a quadrature level as one array, so F_X
    and q_Y are called a few times per level, not per point.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    q_y = Y.quantile

    # alpha and the integrand are only ever given arrays; the mark lets
    # derivative and integrate pass them through unlifted
    @elementwise
    def alpha(x: np.ndarray) -> np.ndarray:
        return q_y(clamp(cdf(X, x), EPS_Q, 1.0 - EPS_Q))

    def alpha_prime(z: np.ndarray) -> np.ndarray:
        h = 1e-3 * np.maximum(1.0, np.abs(z))
        near = z - 2.0 * h < 0.0
        out = np.empty(z.shape)
        zn, hn = z[near], h[near]
        step = np.minimum(hn, np.maximum(zn / 2.0, 1e-7))
        out[near] = derivative(alpha, zn, step=step, lo=0.0)
        zf, hf = z[~near], h[~near]
        up2, up1, down1, down2 = np.split(
            alpha(np.concatenate((zf + 2.0 * hf, zf + hf, zf - hf, zf - 2.0 * hf))), 4)
        out[~near] = (-up2 + 8.0 * up1 - 8.0 * down1 + down2) / (12.0 * hf)
        return out

    # the single outer slope alpha'(t) multiplies the whole integral, so it
    # uses a narrow central difference: the wide stencil's O(h * curvature
    # jump) error at a kink of alpha would shift the result visibly, while
    # the roundtrip noise on one narrow difference only costs ~1e-6 here
    a_t = derivative(alpha, t, step=5e-6 * max(1.0, abs(t)), lo=0.0)

    @elementwise
    def integrand(x: np.ndarray) -> np.ndarray:
        fx = cdf(X, x)
        out = np.zeros(x.shape)
        live = fx > 0.0
        out[live] = (a_t - alpha_prime(x[live])) * fx[live]
        return out

    return integrate(integrand, 0.0, t, _XSPACE_TOL)
