"""Randomized preservation sweeps.

Each suite draws ordered pairs (X below Y in all six orders by construction),
applies shape-qualified distortions to both sides, and re-checks the order
the corresponding theorem says must survive:

* ttt              <- starshaped h
* ew, dmrl         <- antistarshaped, strictly increasing h
* qmit             <- strictly increasing h with antistarshaped dual
* convex_transform and star <- any h (verdict invariance, not preservation:
  base and distorted verdicts must agree)

Each suite is a row of ``_SUITES``, run by the one trial loop ``run_suite``.
Every trial is replayable from its recorded labels.  A preservation suite
first walks its shape-qualifying catalog distortions (so the slow system
distortions, inverted by root solve, each run exactly once), then draws
from a closed-inverse sampler; the invariance suite cycles the whole
catalog.  A failure is a bug in the numerics or the tolerances, never new
mathematics: the theorems guarantee preservation.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import catalog
from . import distortions as dist_mod
from . import distributions as distrib_mod
from .distortions import Distortion, ShapeReport
from .numerics import Grid, InputError, Tolerance, uniform_grid
from .orders import DEFAULT_CHECK_TOL, OrderKind, check_order
from .systems import preservation_advice

DEFAULT_SEED = 20240917
DEFAULT_TRIALS = 200


@functools.cache
def _catalog_shapes() -> Tuple[Tuple[str, Distortion, ShapeReport], ...]:
    """(name, h, classify(h)) for each catalog distortion: the catalog is
    built once per process, so it is classified once too."""
    return tuple((name, h, dist_mod.classify(h))
                 for name, h in catalog.distortions().items())


def _qualifying(order: OrderKind) -> List[Tuple[str, Distortion]]:
    """Catalog distortions under which the preservation theorem keeps order."""
    return [(name, h) for name, h, shape in _catalog_shapes()
            if preservation_advice(order, shape).verdict == "preserved"]


class _Suite(NamedTuple):
    """The orders a suite checks, the catalog (name, h) pairs it walks, the
    sampler it draws h from after the walk (None: the walk is cycled), and
    whether each distorted verdict must equal the base one."""
    orders: Tuple[OrderKind, ...]
    walk: Callable[[], List[Tuple[str, Distortion]]]
    sampler: Optional[Callable] = None
    compare: bool = False


def _preserves(order: OrderKind, sampler: Callable) -> _Suite:
    return _Suite((order,), functools.partial(_qualifying, order), sampler)


_SUITES: Dict[str, _Suite] = {
    "ttt_starshaped": _preserves(OrderKind.TTT, catalog.sample_starshaped),
    "ew_antistarshaped": _preserves(OrderKind.EW, catalog.sample_antistarshaped),
    "dmrl_antistarshaped": _preserves(OrderKind.DMRL, catalog.sample_antistarshaped),
    "qmit_dual_antistarshaped": _preserves(OrderKind.QMIT,
                                           catalog.sample_dual_antistarshaped),
    # the defining ratios are invariant under a common distortion of the
    # baseline, so every catalog distortion leaves both verdicts as they were
    "convex_star_invariance": _Suite(
        (OrderKind.CONVEX_TRANSFORM, OrderKind.STAR),
        lambda: list(catalog.distortions().items()), compare=True),
}
SUITE_NAMES = tuple(_SUITES)


@dataclass(frozen=True)
class SweepConfig:
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    grid_count: int = 48
    edge_margin: float = 0.01
    tolerance: Tolerance = DEFAULT_CHECK_TOL
    suites: Tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        """Refuse a seed or count that is no integer and an edge margin that
        is no number (a bool is neither), a tolerance that is no Tolerance,
        trials < 0, an unknown or repeated suite name and a grid
        uniform_grid refuses."""
        for name, kinds in (("seed", int), ("trials", int), ("grid_count", int),
                            ("edge_margin", (int, float))):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is int else "a number"
                raise InputError(f"{name} must be {what}; got {value!r}")
        if not isinstance(self.tolerance, Tolerance):
            raise InputError(f"tolerance must be a Tolerance; got {self.tolerance!r}")
        if self.trials < 0:
            raise InputError("trials must be >= 0")
        object.__setattr__(self, "suites", tuple(self.suites))
        for i, name in enumerate(self.suites):
            if name not in _SUITES:
                raise InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
            if name in self.suites[:i]:
                raise InputError(f"suites names {name!r} more than once")
        self.grid()

    def grid(self) -> Grid:
        return uniform_grid(self.grid_count, edge_margin=self.edge_margin)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "grid_count": self.grid_count,
            "edge_margin": self.edge_margin,
            "abs_tol": self.tolerance.abs_tol,
            "rel_tol": self.tolerance.rel_tol,
            "suites": list(self.suites),
        }


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    passes: int
    failures: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "trials": self.trials,
                "passes": self.passes, "failures": self.failures}


@dataclass(frozen=True)
class SweepSummary:
    config: SweepConfig
    suites: List[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def to_json(self) -> dict:
        return {"config": self.config.to_json(),
                "ok": self.ok,
                "suites": [s.to_json() for s in self.suites]}


def _suite_rng(config: SweepConfig, suite: str) -> random.Random:
    # string seeding is stable across platforms and Python versions
    return random.Random(f"{config.seed}:{suite}")


def run_suite(name: str, config: Optional[SweepConfig] = None) -> SuiteResult:
    """config.trials trials of the suite's row; a trial passes when every
    order it checks does, and records one failure payload per order that
    does not."""
    if config is None:
        config = SweepConfig()
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suite = _SUITES[name]
    rng = _suite_rng(config, name)
    grid, tol = config.grid(), config.tolerance
    walk = suite.walk()
    failures, passes = [], 0
    for trial in range(config.trials):
        x, y, note = catalog.sample_ordered_pair(rng)
        if suite.sampler is None or trial < len(walk):
            h_name, h = walk[trial % len(walk)]
            h_label = f"catalog:{h_name}"
        else:
            h = suite.sampler(rng)
            h_label = h.label
        xh, yh = distrib_mod.distort(x, h), distrib_mod.distort(y, h)
        trial_failures = []
        for order in suite.orders:
            expected = (check_order(x, y, order, grid, tol=tol).holds
                        if suite.compare else True)
            verdict = check_order(xh, yh, order, grid, tol=tol)
            if verdict.holds == expected:
                continue
            payload = {"trial": trial, "pair": note, "x": x.label, "y": y.label,
                       "distortion": h_label, "order": order.value,
                       "witnesses": [list(w) for w in verdict.witnesses[:5]],
                       "notes": verdict.notes}
            if suite.compare:
                payload.update(base_holds=expected, distorted_holds=verdict.holds)
            trial_failures.append(payload)
        failures += trial_failures
        passes += not trial_failures
    return SuiteResult(name=name, trials=config.trials, passes=passes,
                       failures=failures)


def run_all(config: Optional[SweepConfig] = None) -> SweepSummary:
    if config is None:
        config = SweepConfig()
    results = [run_suite(name, config) for name in config.suites]
    return SweepSummary(config=config, suites=results)
