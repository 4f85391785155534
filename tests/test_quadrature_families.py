"""Transform quadrature on textbook reliability families, against scipy.

Weibull and log-logistic quantiles with shape above 1 have a root cusp at
p = 0, as does every quantile under the parallel-system distortion
1 - (1 - p)^k.  The head [EPS_Q, p] of the transforms is laddered toward
EPS_Q like the upper tail toward 1 - EPS_Q, so these integrate in a few
levels instead of running out of depth near 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from scipy.integrate import quad

from stochorder import distortions, distributions, orders
from stochorder.distributions import EPS_Q
from stochorder.numerics import DEFAULT_GRID, elementwise
from stochorder.sweeps import SweepConfig

WEIBULL_SHAPES = (0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8)


def _weibull(k):
    return lambda p: (-math.log1p(-p)) ** (1.0 / k)


def _log_logistic(k):
    return lambda p: (p / (1.0 - p)) ** (1.0 / k)


def _lomax(a):
    return lambda p: math.expm1(-math.log1p(-p) / a)


# spec -> its quantile in closed form, the oracle's integrand
FAMILIES = {
    **{f"hazard: x^{k}": _weibull(k) for k in WEIBULL_SHAPES},
    **{f"q: (-ln(1-p))^(1/{k})": _weibull(k) for k in WEIBULL_SHAPES},
    **{f"q: (p/(1-p))^(1/{k})": _log_logistic(k) for k in (1.5, 2, 3, 4, 6, 8)},
    **{f"q: (1-p)^(-1/{a}) - 1": _lomax(a) for a in (1.5, 2, 3, 4)},
    "hazard: exp(x) - 1": lambda p: math.log1p(-math.log1p(-p)),
}
GRIDS = {"default": DEFAULT_GRID, "sweep": SweepConfig().grid()}
REL_TOL = 1e-12

# decade cuts toward 0, so each quad piece sees a smooth integrand
_CUTS = [10.0 ** -k for k in range(11, 0, -1)]


def _ttt(q, p: float) -> float:
    """ttt(p) = (1-p) q(p) + EPS_Q q(EPS_Q) + integral of q over [EPS_Q, p],
    the integral by Gauss-Kronrod, one quad call per decade piece."""
    pts = [EPS_Q] + [c for c in _CUTS if EPS_Q < c < p] + [p]
    head = math.fsum(quad(q, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in zip(pts, pts[1:]))
    return (1.0 - p) * q(p) + EPS_Q * q(EPS_Q) + head


@pytest.fixture(scope="module")
def family():
    built = {}

    def get(spec):
        if spec not in built:
            built[spec] = distributions.build(spec)
        return built[spec]

    return get


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("spec", FAMILIES)
def test_transform_curves_match_scipy(spec, grid_name, family):
    grid = GRIDS[grid_name]
    ttt = orders.transform_curves([family(spec)], grid)[0]["ttt"]
    for i in (0, grid.count // 2, grid.count - 1):
        p = grid.points[i]
        assert ttt[i] == pytest.approx(_ttt(FAMILIES[spec], p), rel=REL_TOL, abs=0.0), p


@pytest.mark.parametrize("spec", FAMILIES)
def test_pointwise_ttt_matches_scipy(spec, family):
    assert orders.ttt_transform(family(spec), 0.5) == pytest.approx(
        _ttt(FAMILIES[spec], 0.5), rel=REL_TOL, abs=0.0)


def _counted(X):
    """X with its quantile wrapped to count calls, and the count."""
    calls = [0]
    q = X.quantile

    @elementwise
    def counted(p):
        calls[0] += 1
        return q(p)

    return replace(X, quantile=counted), calls


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("build", [
    lambda: distributions.distort(distributions.build("exp:1.3"),
                                  distortions.dualpower(5.0)),
    lambda: distributions.build("hazard: x^2"),
], ids=["exp_under_dualpower5", "weibull_2"])
def test_cusp_at_zero_costs_few_levels(build, grid_name):
    # one quantile call per quadrature level, the first of which also takes
    # the grid and the end points: the laddered head resolves the cusp in
    # ~10 levels
    X, calls = _counted(build())
    orders.transform_curves([X], GRIDS[grid_name])
    assert calls[0] <= 10
