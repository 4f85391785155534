"""Transform quadrature on textbook reliability families, against scipy.

Weibull and log-logistic quantiles with shape above 1 have a root cusp at
p = 0, as does every quantile under the parallel-system distortion
1 - (1 - p)^k.  The head [EPS_Q, p] of the transforms is laddered toward
EPS_Q like the upper tail toward 1 - EPS_Q, so these integrate in a few
levels instead of running out of depth near 1e-12.

Every curve is held to the same transforms built from a closed-form
quantile integrated by scipy's Gauss-Kronrod quad: the families above, the
catalog laws, and one side distorted by a root-solved h.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from stochorder import distortions, distributions, orders
from stochorder.distributions import EPS_Q
from stochorder.numerics import DEFAULT_GRID, elementwise
from stochorder.sweeps import SweepConfig

from helpers import CURVE_ABS_TOL, CURVE_REL_TOL, psi_inverse

WEIBULL_SHAPES = (0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8)
_MACHEPS = 2.220446049250313e-16


# each law as (q, qbar): its quantile q(p) in closed form, accurate at small
# p, and qbar(s) = q(1 - s), accurate at small s, for the upper tail

def _weibull(k):
    return (lambda p: (-math.log1p(-p)) ** (1.0 / k),
            lambda s: (-math.log(s)) ** (1.0 / k))


def _log_logistic(k):
    return (lambda p: (p / (1.0 - p)) ** (1.0 / k),
            lambda s: ((1.0 - s) / s) ** (1.0 / k))


def _lomax(a):
    return (lambda p: math.expm1(-math.log1p(-p) / a),
            lambda s: math.expm1(-math.log(s) / a))


def _ce02_y(p):
    return math.log(15.0 / 8.0 + p)


def _bridge(x):
    """h of the five-component bridge: (3x + d(x))/4, d(x) = 2x^2 - x^3."""
    return (3.0 * x + 2.0 * x * x - x ** 3) / 4.0


def _root(fn, y):
    """The x in [0, 1] with fn(x) = y, fn increasing from fn(0) = 0."""
    if y <= 0.0:
        return 0.0
    return brentq(lambda x: fn(x) - y, 0.0, 1.0, xtol=1e-300, rtol=4.0 * _MACHEPS)


def _bridge_co_inverse(p):
    """1 - h^-1(1 - p), solved as the root of 1 - h(1 - x) = x + x^2/4 -
    x^3/4 so that small p keep their relative accuracy."""
    return _root(lambda x: x + 0.25 * x * x - 0.25 * x ** 3, p)


FAMILIES = {
    **{f"hazard: x^{k}": _weibull(k) for k in WEIBULL_SHAPES},
    **{f"q: (-ln(1-p))^(1/{k})": _weibull(k) for k in WEIBULL_SHAPES},
    **{f"q: (p/(1-p))^(1/{k})": _log_logistic(k) for k in (1.5, 2, 3, 4, 6, 8)},
    **{f"q: (1-p)^(-1/{a}) - 1": _lomax(a) for a in (1.5, 2, 3, 4)},
    "hazard: exp(x) - 1": (lambda p: math.log1p(-math.log1p(-p)),
                           lambda s: math.log1p(-math.log(s))),
    # located at 10: the end rectangles EPS_Q q(EPS_Q), EPS_Q q(1 - EPS_Q)
    # are 1e-11 and more
    "q: 10 - ln(1-p)": (lambda p: 10.0 - math.log1p(-p), lambda s: 10.0 - math.log(s)),
}
# catalog names, and one side under a root-solved h: q_h(p) = q(1 - h^-1(1 - p)),
# so qbar_h(s) = qbar(h^-1(s))
CATALOG = {
    "exp_1": _weibull(1),
    "uniform": (lambda p: p, lambda s: 1.0 - s),
    "unit_power_030": (lambda p: -math.expm1(0.3 * math.log1p(-p)) / 0.3,
                       lambda s: -math.expm1(0.3 * math.log(s)) / 0.3),
    "ce02_x": (lambda p: 17.0 / 8.0 * p - 0.5 * p * p,
               lambda s: 17.0 / 8.0 * (1.0 - s) - 0.5 * (1.0 - s) ** 2),
    "ce02_y": (_ce02_y, lambda s: _ce02_y(1.0 - s)),
    "ce01_x": (lambda p: psi_inverse(-math.log1p(-p)),
               lambda s: psi_inverse(-math.log(s))),
    "rayleigh": _weibull(2),
    "ce02_y under sys_five_comp_bridge": (
        lambda p: _ce02_y(_bridge_co_inverse(p)),
        lambda s: _ce02_y(1.0 - _root(_bridge, s))),
}
GRIDS = {"default": DEFAULT_GRID, "sweep": SweepConfig().grid()}
REL_TOL, ABS_TOL = CURVE_REL_TOL, CURVE_ABS_TOL

# decade cuts toward 0, so each quad piece sees a smooth integrand
_CUTS = [10.0 ** -k for k in range(11, 0, -1)]


def _integral(q, lo, hi) -> float:
    """The integral of q over [lo, hi] by Gauss-Kronrod, one quad call per
    piece between the decade cuts inside."""
    pts = [lo] + [c for c in _CUTS if lo < c < hi] + [hi]
    return math.fsum(quad(q, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(pts, pts[1:]))


def _curves(law, p: float) -> dict:
    """ttt, ew and mit at p with the EPS_Q truncation and end rectangles of
    the library's definitions, each as (value, scale): scale sums the
    magnitudes of its terms, so a difference of terms is held to the
    rounding of the terms.

        ttt(p) = (1-p) q(p) + EPS_Q q(EPS_Q) + integral of q over [EPS_Q, p]
        mit(p) = p q(p) - EPS_Q q(EPS_Q) - integral of q over [EPS_Q, p]
        ew(p)  = integral of q over [p, 1-EPS_Q] + EPS_Q q(1-EPS_Q) - (1-p) q(p)

    The upper tail is integrated in s = 1 - p, where quad's nodes near
    1 - EPS_Q keep their relative accuracy.
    """
    q, qbar = law
    s_hi = 1.0 - (1.0 - EPS_Q)  # exact: the float 1 - EPS_Q is the upper end
    head = _integral(q, EPS_Q, p) + EPS_Q * q(EPS_Q)
    tail = _integral(qbar, s_hi, 1.0 - p) + EPS_Q * qbar(s_hi)
    qp = q(p)
    terms = {"ttt": ((1.0 - p) * qp, head), "mit": (p * qp, -head),
             "ew": (tail, -(1.0 - p) * qp)}
    return {key: (a + b, abs(a) + abs(b)) for key, (a, b) in terms.items()}


@pytest.fixture(scope="module")
def side(named_distributions, named_distortions):
    built = {}

    def get(spec):
        if spec not in built:
            name, _, h_name = spec.partition(" under ")
            if h_name:
                built[spec] = distributions.distort(named_distributions[name],
                                                    named_distortions[h_name])
            else:
                built[spec] = distributions.build(spec)
        return built[spec]

    return get


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("spec", [*FAMILIES, *CATALOG])
def test_transform_curves_match_scipy(spec, grid_name, side, catalog_curves,
                                      named_distributions):
    grid = GRIDS[grid_name]
    if spec in named_distributions:
        curves = catalog_curves(spec, grid)
    else:
        curves = orders.transform_curves([side(spec)], grid)[0]
    law = FAMILIES.get(spec) or CATALOG[spec]
    for i in (0, grid.count // 2, grid.count - 1):
        p = grid.points[i]
        for key, (want, scale) in _curves(law, p).items():
            assert abs(curves[key][i] - want) <= REL_TOL * scale + ABS_TOL, (key, p)


@pytest.mark.parametrize("spec", FAMILIES)
def test_pointwise_ttt_matches_scipy(spec, side):
    want, scale = _curves(FAMILIES[spec], 0.5)["ttt"]
    assert orders.ttt_transform(side(spec), 0.5) == pytest.approx(
        want, rel=REL_TOL, abs=0.0)


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
