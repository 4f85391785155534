"""Randomized preservation sweeps.

Each suite draws ordered pairs (X below Y in all six orders by construction),
applies shape-qualified distortions to both sides, and re-checks the order
the corresponding theorem says must survive:

* ttt              <- starshaped h
* ew, dmrl         <- antistarshaped, strictly increasing h
* qmit             <- strictly increasing h with antistarshaped dual
* convex_transform and star <- any h (verdict invariance, not preservation:
  base and distorted verdicts must agree)

Every trial is replayable from its recorded labels.  The first trials of
each suite walk the shape-qualifying catalog distortions deterministically
(so the slow system distortions, inverted by root solve, are each exercised
exactly once); the remainder draw from closed-inverse samplers.  A failure
is a bug in the numerics or the tolerances, never new mathematics: the
theorems guarantee preservation.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import catalog
from . import distortions as dist_mod
from . import distributions as distrib_mod
from .distortions import Distortion, ShapeReport
from .numerics import Grid, Tolerance, uniform_grid
from .orders import DEFAULT_CHECK_TOL, OrderKind, check_order
from .systems import preservation_advice

DEFAULT_SEED = 20240917
DEFAULT_TRIALS = 200
SUITE_NAMES = ("ttt_starshaped", "ew_antistarshaped", "dmrl_antistarshaped",
               "qmit_dual_antistarshaped", "convex_star_invariance")


@dataclass(frozen=True)
class SweepConfig:
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    grid_count: int = 48
    edge_margin: float = 0.01
    tolerance: Tolerance = DEFAULT_CHECK_TOL
    suites: Tuple[str, ...] = SUITE_NAMES

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


_SHAPE_SAMPLERS: Dict[str, Callable] = {
    "ttt_starshaped": catalog.sample_starshaped,
    "ew_antistarshaped": catalog.sample_antistarshaped,
    "dmrl_antistarshaped": catalog.sample_antistarshaped,
    "qmit_dual_antistarshaped": catalog.sample_dual_antistarshaped,
}

_SUITE_ORDER: Dict[str, OrderKind] = {
    "ttt_starshaped": OrderKind.TTT,
    "ew_antistarshaped": OrderKind.EW,
    "dmrl_antistarshaped": OrderKind.DMRL,
    "qmit_dual_antistarshaped": OrderKind.QMIT,
}


def _failure_payload(trial: int, pair_note: str, x_label: str, y_label: str,
                     h_label: str, order: OrderKind, verdict) -> dict:
    return {
        "trial": trial,
        "pair": pair_note,
        "x": x_label,
        "y": y_label,
        "distortion": h_label,
        "order": order.value,
        "witnesses": [list(w) for w in verdict.witnesses[:5]],
        "notes": verdict.notes,
    }


def _run_preservation_suite(name: str, config: SweepConfig) -> SuiteResult:
    order = _SUITE_ORDER[name]
    sampler = _SHAPE_SAMPLERS[name]
    rng = _suite_rng(config, name)
    grid = config.grid()
    catalog_hs = _qualifying(order)
    failures = []
    passes = 0
    for trial in range(config.trials):
        x, y, note = catalog.sample_ordered_pair(rng)
        if trial < len(catalog_hs):
            h_name, h = catalog_hs[trial]
            h_label = f"catalog:{h_name}"
        else:
            h = sampler(rng)
            h_label = h.label
        xh = distrib_mod.distort(x, h)
        yh = distrib_mod.distort(y, h)
        verdict = check_order(xh, yh, order, grid, tol=config.tolerance)
        if verdict.holds:
            passes += 1
        else:
            failures.append(_failure_payload(
                trial, note, x.label, y.label, h_label, order, verdict))
    return SuiteResult(name=name, trials=config.trials, passes=passes,
                       failures=failures)


def _run_invariance_suite(config: SweepConfig) -> SuiteResult:
    """Base and distorted convex-transform/star verdicts must agree for
    every catalog distortion: the defining ratios are invariant under a
    common distortion of the baseline."""
    name = "convex_star_invariance"
    rng = _suite_rng(config, name)
    grid = config.grid()
    entries = list(catalog.distortions().items())
    failures = []
    passes = 0
    for trial in range(config.trials):
        x, y, note = catalog.sample_ordered_pair(rng)
        h_name, h = entries[trial % len(entries)]
        xh = distrib_mod.distort(x, h)
        yh = distrib_mod.distort(y, h)
        trial_ok = True
        for order in (OrderKind.CONVEX_TRANSFORM, OrderKind.STAR):
            base = check_order(x, y, order, grid, tol=config.tolerance)
            distorted = check_order(xh, yh, order, grid, tol=config.tolerance)
            if base.holds != distorted.holds:
                trial_ok = False
                payload = _failure_payload(
                    trial, note, x.label, y.label, f"catalog:{h_name}",
                    order, distorted)
                payload["base_holds"] = base.holds
                payload["distorted_holds"] = distorted.holds
                failures.append(payload)
        if trial_ok:
            passes += 1
    return SuiteResult(name=name, trials=config.trials, passes=passes,
                       failures=failures)


def run_suite(name: str, config: Optional[SweepConfig] = None) -> SuiteResult:
    if config is None:
        config = SweepConfig()
    if name == "convex_star_invariance":
        return _run_invariance_suite(config)
    if name not in _SUITE_ORDER:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _run_preservation_suite(name, config)


def run_all(config: Optional[SweepConfig] = None) -> SweepSummary:
    if config is None:
        config = SweepConfig()
    results = [run_suite(name, config) for name in config.suites]
    return SweepSummary(config=config, suites=results)
