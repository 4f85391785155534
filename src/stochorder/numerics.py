"""Shared numeric kernel: grids, tolerances, sampling, quadrature, root solve.

Conventions used throughout the package:

* "increasing" always means non-decreasing; adjacent ties count both ways.
* Quantile-space functionals live on the open interval (0, 1), so grid points
  stay inside it and integrals are truncated near the endpoints.
* Quadrature is adaptive Simpson with an explicit failure mode instead of a
  silent fallback; the depth cap is generous because near-endpoint integrands
  of the form -log(1-t) need ~30 levels of panel halving to resolve.
* Inverses of monotone maps are one bracketed root solve (Chandrupatla's
  method), to machine width, for one target or a whole array of them.
* Functions of one point are elementwise: given a float array they return
  the array of their values, each computed exactly as for that float alone,
  so a grid costs one call instead of one per point.  A callable from
  outside the library is lifted to that form where it enters (``lift``).
* Each such function has one implementation, on arrays.  A float reaches it
  as a one-entry array and leaves as a Python float, a 0-d array leaves as
  a 0-d array (``on_arrays``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Literal, Optional, Sequence, Tuple

import numpy as np

_MACHEPS = 2.220446049250313e-16

MAX_ROOT_STEPS = 200
MAX_SIMPSON_DEPTH = 40
LADDER_RUNGS = 44
SCAN_TIE_TOL = 1e-9


class InputError(ValueError):
    """Refused input from outside (spec text, an argument, a config value);
    the command line reports it as bad input, any other ValueError as a fault."""


class NumericsError(Exception):
    """Base class for numeric-kernel failures."""


class QuadratureFailure(NumericsError):
    """Adaptive refinement hit the depth cap without meeting tolerance.

    Carries the best available estimate so callers can decide whether to
    degrade gracefully or abort.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


class BracketError(NumericsError):
    """A bracketed root solve failed: the target lies outside the bracket,
    the function is not finite inside it, or the solve did not close."""


def _as_float(value) -> float:
    """float(value), an integer too large for a float read as inf of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair; both strictly positive and finite
    numbers (a bool is refused)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (number and math.isfinite(_as_float(v)) and v > 0):
                raise InputError(f"{name} must be positive and finite, "
                                 f"got {_as_float(v) if number else v!r}")


DEFAULT_QUAD_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10)


@dataclass(frozen=True, eq=False)
class Grid:
    """At least 16 strictly increasing evaluation points inside (0, 1).

    The quantile-space functionals are allowed to blow up at 0 and 1, so no
    point may sit on either end; scans on fewer points are too coarse to
    certify anything.  points is one read-only float64 array, a copy of
    what was given; grids compare and hash by identity.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if len(pts) < 16:
            raise InputError(f"grid needs at least 16 points, got {len(pts)}")
        bad = np.flatnonzero(~(pts[:-1] < pts[1:]))
        if bad.size:
            raise InputError(f"grid points not strictly increasing at {float(pts[bad[0]])}")
        if not (0.0 < pts[0] and pts[-1] < 1.0):
            raise InputError(f"grid points must lie in (0, 1), got "
                             f"[{float(pts[0])!r}, {float(pts[-1])!r}]")

    @property
    def count(self) -> int:
        return len(self.points)

    def describe(self) -> str:
        return f"{self.count}:{self.points[0]:.6g}:{self.points[-1]:.6g}"


DEFAULT_GRID_COUNT = 512
DEFAULT_EDGE_MARGIN = 1e-3
# most points a grid or a table may have: 2^20 float64s are 8 MiB
MAX_GRID_COUNT = 1 << 20


def uniform_grid(count: int = DEFAULT_GRID_COUNT,
                 lo: float = 0.0,
                 hi: float = 1.0,
                 edge_margin: float = DEFAULT_EDGE_MARGIN) -> Grid:
    """count equally spaced points from lo + edge_margin to hi - edge_margin,
    summed as Python floats; bad arguments are refused by name.  Shared:
    DEFAULT_GRID, and one Grid per span of the last four others asked for."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise InputError(f"grid point count must be an integer, got {count!r}")
    if count < 16:
        raise InputError(f"grid needs at least 16 points, got {count}")
    if count > MAX_GRID_COUNT:
        raise InputError(f"grid needs at most {MAX_GRID_COUNT} points, got {count}")
    # Python floats: an overflow here gives inf, where numpy would warn
    lo_f, hi_f, margin = _as_float(lo), _as_float(hi), _as_float(edge_margin)
    first, last = lo_f + margin, hi_f - margin
    for name, value in (("lo", lo_f), ("hi", hi_f), ("edge_margin", margin),
                        ("lo + edge_margin", first), ("hi - edge_margin", last),
                        ("span hi - lo - 2*edge_margin", last - first)):
        if not math.isfinite(value):
            raise InputError(f"grid {name} must be finite, got {value!r}")
    if not first < last:
        raise InputError(f"grid lo + edge_margin ({first!r}) must be below "
                         f"hi - edge_margin ({last!r})")
    span = (count, first, last)
    return DEFAULT_GRID if span == _DEFAULT_SPAN else _uniform_grid(*span)


@functools.lru_cache(maxsize=4)
def _uniform_grid(count: int, first: float, last: float) -> Grid:
    return Grid(points=np.linspace(first, last, count))


_DEFAULT_SPAN = (DEFAULT_GRID_COUNT, DEFAULT_EDGE_MARGIN, 1.0 - DEFAULT_EDGE_MARGIN)
DEFAULT_GRID = _uniform_grid.__wrapped__(*_DEFAULT_SPAN)


# validators sample [0,1] endpoints included; independent of scan grids
VALIDATION_COUNT = 513


def validation_points(count: int = VALIDATION_COUNT) -> tuple:
    """count >= 2 equally spaced points on [0, 1], both endpoints included;
    the last few counts up to VALIDATION_COUNT (the library's own) kept.
    A count that is not an integer (a bool included) is refused by name."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise InputError(f"validation point count must be an integer, got {count!r}")
    if count < 2:
        raise InputError(f"validation points need a count of at least 2, got {count}")
    count = int(count)
    return (_unit_points if count <= VALIDATION_COUNT else _unit_points.__wrapped__)(count)


@functools.lru_cache(maxsize=8)
def _unit_points(count: int) -> tuple:
    return tuple(i / (count - 1) for i in range(count))


def elementwise(fn: Callable) -> Callable:
    """Mark fn as elementwise: on a float array it returns the array of its
    values at each entry, on a float its value there."""
    fn.elementwise = True
    return fn


def _is_elementwise(fn: Callable) -> bool:
    # a wrapper that names what it wraps (functools.wraps) is what it wraps
    while fn is not None:
        if getattr(fn, "elementwise", False):
            return True
        fn = getattr(fn, "__wrapped__", None)
    return False


def lift(fn: Callable) -> Callable:
    """fn as an elementwise callable.

    Marked callables pass through; any other is called once per entry of
    an array, in order, so a point that raises does so exactly as before.
    """
    if _is_elementwise(fn):
        return fn

    def lifted(x):
        if isinstance(x, np.ndarray):
            values = [float(fn(v)) for v in x.ravel().tolist()]
            return np.array(values, dtype=float).reshape(x.shape)
        return fn(x)

    return elementwise(lifted)


def each(fn: Callable, *args):
    """fn(*args) on floats; with arrays (all of one shape) among the
    arguments, the array of fn at each entry, floats held fixed.

    The math functions (log, exp, pow) on arrays go through here, one libm
    call per entry, rather than through numpy's ufuncs, because the ufuncs'
    last bit depends on the CPU.  On an AVX-512 Xeon with numpy 2.4, np.log,
    np.exp and np.power differed from libm in the last bit on 134, 13 984
    and 15 795 of 300 000 random points; with numpy's AVX-512 dispatch
    targets disabled (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    AVX512_SPR") they equalled libm on every point.  Routed through the
    ufuncs, this function moved the ce01 and ce02 reference bundles by up
    to 3.7e-12 on that CPU, past their 1e-12 tolerance, and by under 2e-15
    with those targets disabled: the bundles would hold on one kind of CPU
    only.  The ufuncs would cut the check_closed benchmark's median latency
    by about a sixth.
    """
    like = next((a for a in args if isinstance(a, np.ndarray)), None)
    if like is None:
        return fn(*args)
    n = like.size
    columns = [a.ravel().tolist() if isinstance(a, np.ndarray) else repeat(a, n)
               for a in args]
    return np.fromiter(map(fn, *columns), dtype=float, count=n).reshape(like.shape)


def on_arrays(core: Callable, *args):
    """core(*args), where core maps float arrays of one shape to an array.

    With an array of one or more dimensions among args they go straight in.
    Otherwise each float or 0-d array enters as a one-entry array, and the
    result comes back as a Python float, or as a 0-d array when a 0-d array
    went in: the one way a point reaches the array implementation of a
    public function, so all meet the same code and the same errors.
    """
    if len(args) == 1 and isinstance(args[0], np.ndarray) and args[0].ndim:
        return core(args[0])  # the common case, screened first
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if any(a.ndim for a in arrays):
        return core(*args)
    out = core(*(np.array([a], dtype=float) for a in args))
    return out.reshape(()) if arrays else float(out[0])


def clamp(v: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """min(hi, max(lo, v)) entry by entry, nan going to lo as with the builtins."""
    v = np.where(v > lo, v, lo)
    return np.where(v < hi, v, hi)


def inside(x: np.ndarray, inner: Callable, lo: float = 0.0,
           hi: float = 1.0) -> np.ndarray:
    """inner at the entries of x strictly between lo and hi, called once on
    them; 0 at or below lo, 1 at or above hi, and nan at nan, which inner
    never sees.  inner maps a float array to the float array of its values.
    A new array, never x: when every entry is inside, inner's own array,
    copied only if it shares x's memory."""
    if not x.size or (lo < x.min() and x.max() < hi):  # nan fails both
        out = np.asarray(inner(x), dtype=float)
        return out.copy() if np.may_share_memory(out, x) else out
    out = np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, np.nan))
    mid = (lo < x) & (x < hi)
    if mid.any():
        out[mid] = inner(x[mid])
    return out


def sample(fn: Callable[[float], float],
           points: Sequence[float],
           error: type,
           label: str,
           name: str,
           before: Optional[Tuple[float, float]] = None,
           ends: Sequence[Tuple[int, float]] = (),
           step_slack: float = SCAN_TIE_TOL) -> np.ndarray:
    """fn at the increasing points, in one elementwise call, as a float
    array, certified by the one rule every validator shares.

    Checks in this order, each raising ``error`` at its first fault:
    1. every value is finite:
       ``<label>: <name>(<x>) = <v>, not finite``;
    2. the value at each index of ends, (index, target) pairs, is within
       SCAN_TIE_TOL of its target:
       ``<label>: <name>(<x>) = <v>, expected <t>``;
    3. no step from one point to the next drops by more than step_slack:
       ``<label>: <name> decreasing on [<a>, <b>] (<va> -> <vb>)``.
    before, a point (x, fn(x)) the caller holds left of the points, takes
    part in the steps only: it is neither evaluated nor checked finite.
    """
    xs = np.asarray(points, dtype=float)
    vals = np.asarray(lift(fn)(xs), dtype=float)
    i = first(~np.isfinite(vals))
    if i is not None:
        raise error(f"{label}: {name}({float(xs[i])!r}) = {float(vals[i])!r}, not finite")
    for i, target in ends:
        if abs(vals[i] - target) > SCAN_TIE_TOL:
            raise error(f"{label}: {name}({float(xs[i])!r}) = {float(vals[i])!r}, "
                        f"expected {target!r}")
    at, steps = xs, vals
    if before is not None:
        at, steps = np.r_[before[0], xs], np.r_[before[1], vals]
    i = first(steps[1:] < steps[:-1] - step_slack)
    if i is not None:
        raise error(f"{label}: {name} decreasing on [{float(at[i])!r}, {float(at[i + 1])!r}] "
                    f"({float(steps[i])!r} -> {float(steps[i + 1])!r})")
    return vals


def first(mask: np.ndarray) -> Optional[int]:
    """Index of the first true entry of mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _eval_checked(fn: Callable, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """fn at u, the points x mapped through an integrate_many inner (x
    itself without one), raising at x's first point whose value is not
    finite."""
    v = fn(u)
    if np.isfinite(v).all():
        return v
    i = first(~np.isfinite(v))
    raise NumericsError(f"integrand evaluated to {float(v[i])!r} "
                        f"at x={float(x[i])!r}")


def _calls(fns: Sequence[Callable], x: np.ndarray, parts: list,
           inner: Optional[Callable]) -> list:
    """fns[j] at x[parts[j]], through inner when given, checked by
    _eval_checked: one outcome per integrand, its values or the error its
    call raised.

    inner is called once, on all of x, and each integrand reads its part of
    that; if the joint call raises, each integrand calls inner on its own
    points instead, so it meets the error a call of its own would."""
    joint = None
    if inner is not None:
        try:
            joint = inner(x)
        except Exception:
            pass  # each integrand's own inner call below raises its error
    outcomes = []
    for fn, part in zip(fns, parts):
        xs = x[part]
        try:
            if inner is None:
                u = xs
            elif joint is None:
                u = inner(xs)
            else:
                u = joint[part]
            outcomes.append(_eval_checked(fn, xs, u))
        except Exception as error:
            outcomes.append(error)
    return outcomes


def _pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[0], right[0], left[1], right[1], ...: children in panel order."""
    out = np.empty(2 * left.size)
    out[0::2] = left
    out[1::2] = right
    return out


# live panels per level beyond which a refinement is declared failed: an
# integrand that is rough everywhere would otherwise double them up to the
# depth cap
MAX_LIVE_PANELS = 1 << 18


def integrate_many(fns: Sequence[Callable],
                   cuts: np.ndarray,
                   abs_tol,
                   rel_tol: float,
                   inner: Optional[Callable] = None) -> list:
    """Adaptive Simpson quadrature of several elementwise integrands over
    each piece [cuts[i], cuts[i+1]] of one partition.  Returns one outcome
    per integrand, in order: its piece integrals and its values at the
    cuts, or the error its refinement met (read them with ``settled``).

    cuts is non-decreasing (a repeated cut makes an empty piece, worth 0),
    abs_tol a float or one per piece.  The panels of all integrands are
    refined in one loop over one table of open panels, each tagged with its
    owner, its integrand's index, which its two children inherit.  The first
    call of each integrand covers two levels, which every live piece needs:
    the cuts, the pieces' midpoints and the midpoints of their halves.  Each
    later level calls every integrand that still owns open panels once, at
    the midpoints of the halves of those panels, so no point is evaluated
    twice.  With inner, an elementwise map, each integrand fns[j] is
    fns[j](inner(x)), and inner is called once per call above, on the points
    of every integrand still open, in owner order (once on the shared points
    of the first call), each integrand taking its slice; if that joint call
    raises, the level calls fns[j](inner(x_j)) for each integrand alone, so
    every outcome is the one the composed integrands give.  Panel by panel
    this is the recursive method: the tolerance
    max(abs_tol_i, rel_tol * |first estimate|) of its piece, halved per
    split; acceptance when the two-halves estimate moves by at most 15x that
    or by rounding noise; the Richardson step on acceptance.  Accepted
    panels are summed back up the tree as left + right, so each piece's
    value is the recursive one, bit for bit, whatever the other integrands
    are.

    Each integrand fails alone and drops out while the others go on.  Its
    outcome is then the error its call raised (NumericsError for a value
    that is not finite, at the call's first such point; the first call
    takes the first level's points, then the second's), or
    QuadratureFailure, carrying the estimate, for its first panel still
    open at depth MAX_SIMPSON_DEPTH or at a level where it would open more
    than MAX_LIVE_PANELS of its own.
    """
    cuts = np.asarray(cuts, dtype=float)
    if not np.all(cuts[:-1] <= cuts[1:]):
        raise ValueError("reversed integration interval")
    outcomes: list = [None] * len(fns)
    live = np.flatnonzero(cuts[:-1] < cuts[1:])
    a, b = cuts[live], cuts[live + 1]
    m = 0.5 * (a + b)
    mid_in = np.flatnonzero((a < m) & (m < b))  # as at the midpoints below
    # and the midpoints of the halves, as the loop's first pass takes them
    lo, hi = _pairs(a, m), _pairs(m, b)
    x = 0.5 * (lo + hi)
    x_in = np.flatnonzero((lo < x) & (x < hi))
    split_at = [cuts.size, cuts.size + mid_in.size]
    first_levels = np.concatenate((cuts, m[mid_in], x[x_in]))
    owners, at_cuts, fa, fm, fb, f_halves = [], [], [], [], [], []
    every = [slice(None)] * len(fns)
    for k, f in enumerate(_calls(fns, first_levels, every, inner)):
        if isinstance(f, Exception):
            outcomes[k] = f
            continue
        f, f_mid, f_x = np.split(f, split_at)
        owners.append(k)
        at_cuts.append(f)
        fa.append(f[live])
        fb.append(f[live + 1])
        fm.append(np.where(m == a, fa[-1], fb[-1]))
        fm[-1][mid_in] = f_mid
        f_halves.append(f_x)
    if not owners:
        return outcomes
    # the panel table a, b, fa, fm, fb, whole, eps and owner (an index into
    # owners): owners[0]'s panels first, in panel order, then owners[1]'s, ...
    n = len(owners)
    owner = np.repeat(np.arange(n), live.size)
    fa, fm, fb = np.concatenate(fa), np.concatenate(fm), np.concatenate(fb)
    a, b = np.concatenate([a] * n), np.concatenate([b] * n)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    abs_tol = np.broadcast_to(abs_tol, cuts.size - 1)[live]
    eps = np.maximum(np.concatenate([abs_tol] * n), rel_tol * np.abs(whole))
    levels = []
    depth = MAX_SIMPSON_DEPTH
    while a.size:
        # the halves of every panel, in panel order
        m = 0.5 * (a + b)
        lo, hi, flo, fhi = _pairs(a, m), _pairs(m, b), _pairs(fa, fm), _pairs(fm, fb)
        # fn at the midpoint of each half, called once on those strictly
        # inside; that of a half with no float inside is an end's value
        x = 0.5 * (lo + hi)
        fx = np.where(x == lo, flo, fhi)
        x_in = np.flatnonzero((lo < x) & (x < hi))
        in_owner = owner[x_in >> 1]  # a half's owner is its panel's
        active = np.flatnonzero(np.bincount(owner)).tolist()
        parts = [in_owner == j for j in active]
        # the first pass: each integrand took these points in its first call
        values = f_halves or _calls([fns[owners[j]] for j in active], x[x_in],
                                    parts, inner)
        failed = []
        for j, part, v in zip(active, parts, values):
            if isinstance(v, Exception):
                outcomes[owners[j]] = v
                failed.append(j)
            else:
                fx[x_in[part]] = v
        f_halves = []
        halves = (hi - lo) * (flo + 4.0 * fx + fhi) / 6.0
        s_left, s_right = halves[0::2], halves[1::2]
        s2 = s_left + s_right
        delta = s2 - whole
        # Richardson correction on acceptance; the noise floor stops
        # refinement from chasing rounding error on very thin panels.
        noise = 50.0 * _MACHEPS * (np.abs(s_left) + np.abs(s_right) + np.abs(whole))
        value = s2 + delta / 15.0
        moved = np.abs(delta)
        split = np.flatnonzero((moved > 15.0 * eps) & (moved > noise))
        # no integrand can fail here unless the level's panels together do
        if depth <= 0 or 2 * split.size > MAX_LIVE_PANELS:
            split_owner = owner[split]
            for j in np.unique(split_owner).tolist():
                mine = split[split_owner == j]
                if j not in failed and (depth <= 0 or 2 * mine.size > MAX_LIVE_PANELS):
                    i = mine[0]
                    outcomes[owners[j]] = QuadratureFailure(
                        f"adaptive Simpson did not converge on "
                        f"[{float(a[i])!r}, {float(b[i])!r}]",
                        last_estimate=float(value[i]))
                    failed.append(j)
        if failed:
            # a failed integrand's panels close here; its sums are not read
            split = split[~np.isin(owner[split], failed)]
        levels.append((value, split))
        kids = (2 * split[:, None] + [0, 1]).ravel()
        a, b, fa, fm, fb = lo[kids], hi[kids], flo[kids], fx[kids], fhi[kids]
        whole, owner = halves[kids], owner[kids >> 1]
        eps = np.repeat(0.5 * eps[split], 2)
        depth -= 1
    below = np.zeros(0)
    for value, split in reversed(levels):
        value[split] = below[0::2] + below[1::2]
        below = value
    for k, f, pieces in zip(owners, at_cuts, below.reshape(n, live.size)):
        if outcomes[k] is None:
            total = np.zeros(cuts.size - 1)
            total[live] = pieces
            outcomes[k] = (total, f)
    return outcomes


def settled(outcome):
    """An integrate_many outcome's (piece integrals, values at the cuts), or
    its error, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate(fn: Callable[[float], float],
              a: float,
              b: float,
              tol: Tolerance = DEFAULT_QUAD_TOL) -> float:
    """Adaptive Simpson quadrature of fn over [a, b], the one piece of an
    integrate_many partition; QuadratureFailure carries the last estimate."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    [outcome] = integrate_many([lift(fn)], np.array([a, b]), tol.abs_tol, tol.rel_tol)
    return float(settled(outcome)[0][0])


def ladder(a: float, b: float,
           side: Literal["lo", "hi"]) -> np.ndarray:
    """Cut points of [a, b] into LADDER_RUNGS rungs whose widths halve
    toward ``side``, fewer where the cuts collapse at machine precision."""
    if a > b:
        raise ValueError("reversed integration interval")
    halves = [(b - a) * 0.5 ** j for j in range(1, LADDER_RUNGS)]
    inner = [b - h for h in halves] if side == "hi" else [a + h for h in halves[::-1]]
    pts = np.array([a] + inner + [b])
    # a cut that collapses onto the one below it at machine precision goes
    return pts[np.diff(pts, prepend=-np.inf) > 0]


def rung_tolerance(cuts: np.ndarray, tol: Tolerance) -> Tolerance:
    """The share of tol each rung between the cut points gets."""
    return Tolerance(abs_tol=max(tol.abs_tol / len(cuts), 1e-16),
                     rel_tol=tol.rel_tol)


def edge_ladder_integral(fn: Callable[[float], float],
                         a: float,
                         b: float,
                         side: Literal["lo", "hi"],
                         tol: Tolerance = DEFAULT_QUAD_TOL) -> Tuple[float, list]:
    """Integrate over [a, b] with geometric refinement toward one endpoint.

    Splits the interval at the ``ladder`` cuts; each rung is integrated
    adaptively, all in one integrate_many pass.  This keeps the refinement
    shallow for integrable endpoint singularities (log-type quantiles near
    p=1).  Returns (value, per-rung contributions ordered from the singular
    end outward); the rung list lets callers run divergence heuristics.
    """
    if a == b:
        return 0.0, []
    cuts = ladder(a, b, side)
    piece_tol = rung_tolerance(cuts, tol)
    [outcome] = integrate_many([lift(fn)], cuts, piece_tol.abs_tol,
                               piece_tol.rel_tol)
    pieces = settled(outcome)[0].tolist()
    total = math.fsum(pieces)
    if side == "hi":
        pieces = pieces[::-1]  # report toward the singular end
    return total, pieces


def _bracket(flo, fhi, y) -> None:
    slack = DEFAULT_QUAD_TOL.abs_tol
    flo, fhi = np.broadcast_arrays(flo, fhi, y)[:2]
    i = first(~(np.isfinite(flo) & np.isfinite(fhi)))
    if i is not None:
        raise BracketError("bracket endpoints evaluate to non-finite values")
    # a nan target is not inside either
    i = first(np.logical_not((y >= flo - slack) & (y <= fhi + slack)))
    if i is not None:
        raise BracketError(f"target {float(np.ravel(y)[i])!r} outside "
                           f"[{float(np.ravel(flo)[i])!r}, {float(np.ravel(fhi)[i])!r}]")


def sample_cells(xs: np.ndarray, vals: np.ndarray, y: np.ndarray):
    """The cell of a sample of a non-decreasing fn that brackets each target:
    (lo, hi, (f_lo, f_hi)), arrays of y's shape, for
    monotone_inverse(fn, y, lo, hi, values=(f_lo, f_hi)).

    vals is fn at the increasing points xs.  The cell of y is
    [xs[j-1], xs[j]] with j the first index where the running maximum of
    vals reaches y, so vals[j-1] < y <= vals[j] even where the sample dips
    by less than its check let through.  y is screened first against
    [vals[0], vals[-1]], raising what monotone_inverse(fn, y, xs[0], xs[-1])
    raises; a target it lets through at or below vals[0] takes the first
    cell, and one above vals[-1] the last, so the solve returns xs[0] or
    xs[-1] as the whole-range solve does.
    """
    _bracket(vals[0], vals[-1], y)
    last = vals.size - 1
    j = np.clip(np.searchsorted(np.maximum.accumulate(vals), y), 1, last)
    j[y > vals[-1]] = last
    return xs[j - 1], xs[j], (vals[j - 1], vals[j])


def monotone_inverse(fn: Callable[[float], float], y, lo, hi, values=None):
    """Left-continuous generalized inverse of a non-decreasing fn by a
    bracketed root solve (Chandrupatla's method).

    Returns (up to bracketing width) inf{x in [lo, hi] : fn(x) >= y}: the
    bracket [a, b] keeps fn(a) < y <= fn(b) and shrinks until
    b - a <= 4 eps (1 + |a| + |b|), and b is returned.  For a continuous
    strictly increasing fn this is the ordinary inverse and the result
    satisfies |fn(x) - y| <= local slope * bracket width.  Values of y
    outside [fn(lo), fn(hi)] (beyond DEFAULT_QUAD_TOL.abs_tol slack) raise
    BracketError, as do a non-finite value of fn inside the bracket and a
    solve still open after MAX_ROOT_STEPS steps.

    Each step tries inverse quadratic interpolation through the two ends
    and the end last replaced, where Chandrupatla's test says it is safe,
    else takes the midpoint (Chandrupatla, Adv. Eng. Software 1997).

    y is a float or an array of targets (lo and hi floats or arrays of its
    shape); every target is solved at once, with one elementwise call of fn
    per step on the targets still open.  ``values=(f_lo, f_hi)`` are fn at
    lo and at hi, when the caller holds them (floats or arrays of y's
    shape): fn is then not called at the ends, and the solve is the one it
    would be had fn given those values there.  A caller that holds a sample
    of fn starts each target in the sample's cell that brackets it, which
    saves both end calls and most steps (distortions._root_solved,
    distributions._build_hazard).
    """
    return on_arrays(lambda y: _solve(lift(fn), y, lo, hi, values), y)


def _interpolates(x1, f1, x2, f2, x3, f3):
    """Chandrupatla's test: the inverse quadratic through the three points
    is monotone between x1 and x2.  x3 and x1 lie on one side of the target
    and x2 on the other, so no denominator is zero."""
    xi = (x1 - x2) / (x3 - x2)
    phi = (f1 - f2) / (f3 - f2)
    return (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)


def _iqi(x1, f1, x2, f2, x3, f3):
    """Zero of the inverse quadratic, as a fraction of x2 - x1 from x1."""
    return (f1 / (f2 - f1) * f3 / (f2 - f3)
            + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))


def _solve(fn, y: np.ndarray, lo, hi, values) -> np.ndarray:
    a = np.array(np.broadcast_to(lo, y.shape), dtype=float)
    b = np.array(np.broadcast_to(hi, y.shape), dtype=float)
    if not np.all(a < b):
        raise ValueError("empty bracket")
    if values is None:
        flo, fhi = np.split(fn(np.concatenate((a, b))), 2)
    else:
        flo, fhi = (np.array(np.broadcast_to(v, y.shape), dtype=float)
                    for v in values)
    _bracket(flo, fhi, y)
    out = b.copy()
    at_lo = y <= flo
    out[at_lo] = a[at_lo]
    todo = np.flatnonzero(~at_lo & ~(y > fhi))
    if not todo.size:
        return out
    t_y = y[todo]
    x1, f1, x2, f2 = a[todo], flo[todo] - t_y, b[todo], fhi[todo] - t_y
    t = np.full(todo.size, 0.5)
    for _ in range(MAX_ROOT_STEPS):
        x = x1 + t * (x2 - x1)
        v = fn(x)
        i = first(~np.isfinite(v))
        if i is not None:
            raise BracketError(f"function evaluated to {float(v[i])!r} at "
                               f"x={float(x[i])!r} inside the bracket")
        ft = v - t_y
        same = (ft >= 0.0) == (f1 >= 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, ft
        new = np.abs(x2 - x1)
        stop = 4.0 * _MACHEPS * (1.0 + np.abs(x1) + np.abs(x2))
        done = new <= stop
        if done.any():
            out[todo[done]] = np.where(f1 >= 0.0, x1, x2)[done]
            keep = ~done
            todo, t_y, new, stop, x1, f1, x2, f2, x3, f3 = (
                z[keep] for z in (todo, t_y, new, stop, x1, f1, x2, f2, x3, f3))
            if not todo.size:
                return out
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # exact where the test passes; entries it rejects may divide by
            # zero and are discarded
            iqi = _interpolates(x1, f1, x2, f2, x3, f3)
            t = np.where(iqi, _iqi(x1, f1, x2, f2, x3, f3), 0.5)
        tl = 0.5 * stop / new
        t = np.minimum(1.0 - tl, np.maximum(tl, t))
    a, b = sorted((float(x1[0]), float(x2[0])))
    raise BracketError(f"root solve still open after {MAX_ROOT_STEPS} steps "
                       f"on [{a!r}, {b!r}]")


def derivative(fn: Callable[[float], float],
               x,
               step=1e-6,
               lo: Optional[float] = None):
    """Finite-difference derivative at x, a float or an array: central, or
    the three-point forward formula (second order, like the central one)
    at the entries where x - step < lo.

    step is a float or an array of x's shape; fn is called once, on the
    stencil points of every entry.
    """
    if not np.all((np.asarray(step) > 0) & np.isfinite(step)):
        raise ValueError("step must be positive and finite")
    return on_arrays(lambda x: _differences(lift(fn), x, step, lo), x)


def _differences(fn, x: np.ndarray, step, lo) -> np.ndarray:
    h = np.broadcast_to(step, x.shape)
    fwd = np.zeros(x.shape, dtype=bool) if lo is None else ~(x - h >= lo)
    mid = ~fwd
    xc, hc, xf, hf = x[mid], h[mid], x[fwd], h[fwd]
    values = fn(np.concatenate((xc + hc, xc - hc, xf, xf + hf, xf + 2.0 * hf)))
    up, down, f0, f1, f2 = np.split(values, np.cumsum([xc.size, xc.size,
                                                        xf.size, xf.size]))
    out = np.empty(x.shape)
    out[mid] = (up - down) / (2.0 * hc)
    out[fwd] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * hf)
    return out
