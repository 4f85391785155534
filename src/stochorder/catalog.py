"""Documented reference inputs: named distributions, distortions and worked
systems, plus seeded samplers of order-related pairs.

Everything the reproduce targets, sweeps and tests consume is constructed
here by name, and a sampled input's label spells out the numbers it was
drawn with, so a failing trial can be replayed from its recorded labels.

Sampler notes.  The ordered-pair families satisfy all six orders by
construction:

* exponential rate pairs and scale pairs have constant quantile/transform
  ratios (ties everywhere);
* unit-power survival pairs q_a(p) = (1-(1-p)^a)/a with a_X > a_Y have
  density ratio (1-p)^(a_Y - a_X), increasing, hence convex-transform order
  and everything it implies, plus direct ttt/ew domination.

The shape samplers used inside integral-heavy sweeps return distortions with
closed-form inverses and co-inverses (power/dual-power families and
quadratic-seed mixtures), keeping distorted-quantile evaluation cheap and
free of root-solve roundtrip noise.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Tuple

from . import copulas as cop_mod
from . import distortions as dist_mod
from . import distributions as distrib_mod
from . import systems as sys_mod
from .distortions import Distortion
from .distributions import Distribution
from .funcalc import format_constant
from .numerics import each, elementwise

# the hazard function of the first counterexample's baseline: C^1 but not
# C^2 at x=1 (exponential, then square-root, then Gaussian-tail growth)
PSI_TEXT = ("piece(x <= 1 : exp(x) - 1 ; "
            "x <= 13/10 : 2*e*sqrt(x) - e - 1 ; "
            "else : (5/13)*sqrt(10/13)*exp(x^2 - 69/100) "
            "+ 2*(sqrt(13/10) - 1)*e - (5/13)*sqrt(10/13)*e + e - 1)")

CE02_X_TEXT = "17/8*p - 1/2*p^2"
CE02_Y_TEXT = "ln(15/8 + p)"

# diagonal of the quantile-mit system example:
# d(p) = 1 - 7/4*(1-p) + 3/2*(1-p)^2 - 3/4*(1-p)^3
QMIT_DIAG_TEXT = "1 - 7/4*(1-p) + 3/2*(1-p)^2 - 3/4*(1-p)^3"
FN_DIAG_TEXT = "2*p^2 - p^3"
MIX_DIAG_TEXT = "p/4 + (3/4)*(2*p^2 - p^3)"

DEFAULT_GENERATOR_TEXT = "p^0.5"


def _power_survival_text(a: float) -> str:
    return f"(1 - (1-p)^{a:.17g})/{a:.17g}"


@lru_cache(maxsize=1)
def distributions() -> Dict[str, Distribution]:
    """Named distribution catalog (all finite-mean)."""
    build = distrib_mod.build
    return {
        "exp_1": build("exp:1"),
        "exp_half": build("exp:0.5"),
        "uniform": build("q:p"),
        "unit_power_030": build("q:" + _power_survival_text(0.3)),
        "unit_power_070": build("q:" + _power_survival_text(0.7)),
        "ce02_x": build("q:" + CE02_X_TEXT),
        "ce02_y": build("q:" + CE02_Y_TEXT),
        "ce01_x": build("hazard:" + PSI_TEXT),
        "rayleigh": build("hazard:x^2"),
    }


def _quadratic_mix(w: float, a: float, b: float, shape: str) -> Distortion:
    """h(p) = w*p + (1-w)*shape = a*p + b*p^2, 0 <= w < 1, with closed
    inverse (-a + sqrt(a^2 + 4*b*y)) / (2*b)."""
    if not 0.0 <= w < 1.0:
        raise ValueError(f"weight must lie in [0,1), got {w!r}")

    @elementwise
    def fn(p):
        return a * p + b * p * p

    @elementwise
    def inv(y):
        return (-a + each(math.sqrt, a * a + 4.0 * b * y)) / (2.0 * b)

    return dist_mod.validate(
        fn, label=f"{format_constant(w)}*p + {format_constant(1.0 - w)}*{shape}",
        inverse_fn=inv)


def convex_mix(w: float) -> Distortion:
    """h(p) = w*p + (1-w)*p^2 with closed inverse, 0 <= w < 1 (convex)."""
    return _quadratic_mix(w, w, 1.0 - w, "p^2")


def concave_mix(w: float) -> Distortion:
    """h(p) = w*p + (1-w)*(2p - p^2) with closed inverse (concave)."""
    return _quadratic_mix(w, 2.0 - w, -(1.0 - w), "(2*p - p^2)")


# the worked systems, each as the signature and copula spec text that
# `stochorder system` takes
SYSTEMS: Dict[str, Tuple[str, str]] = {
    # max of 2, each backed up
    "two_parallel_pairs": ("2,0,-2,1", f"durante:f={DEFAULT_GENERATOR_TEXT},n=4"),
    # min with duplicated slot
    "one_of_two_pairs": ("0,1,1,-1", f"durante:f={DEFAULT_GENERATOR_TEXT},n=4"),
    "five_comp_bridge": ("0,0,0,3,-2", f"diagonal:d={FN_DIAG_TEXT},n=5"),
    "three_of_four": ("0,6,-8,3", f"diagonal:d={MIX_DIAG_TEXT},n=4"),
    "series_with_parallel_pair": ("0,0,2,-1", f"diagonal:d={QMIT_DIAG_TEXT},n=4"),
}


@lru_cache(maxsize=1)
def system_distortions() -> Dict[str, Distortion]:
    """The five worked system distortions, each built from its SYSTEMS row
    as the system command builds it."""
    return {f"sys_{name}": sys_mod.build_system(*texts)[1].h
            for name, texts in SYSTEMS.items()}


@lru_cache(maxsize=1)
def distortions() -> Dict[str, Distortion]:
    """Named distortion catalog: builtin families, mixtures, kinked shapes,
    the five system distortions, and reference parallel/series forms."""
    from_expr = dist_mod.validate
    out = {
        "identity": dist_mod.identity(),
        "power_15": dist_mod.power(1.5),
        "power_2": dist_mod.power(2.0),
        "power_3": dist_mod.power(3.0),
        "power_5": dist_mod.power(5.0),
        "dualpower_15": dist_mod.dualpower(1.5),
        "dualpower_2": dist_mod.dualpower(2.0),
        "dualpower_3": dist_mod.dualpower(3.0),
        "dualpower_5": dist_mod.dualpower(5.0),
        "convex_mix_half": convex_mix(0.5),
        "concave_mix_half": concave_mix(0.5),
        "mix_cubic": from_expr("0.5*p + 0.5*p^3"),
        "mix_quartic": from_expr("0.7*p + 0.3*p^4"),
        "mix_dual_cubic": from_expr("0.3*p + 0.7*(1 - (1-p)^3)"),
        "mix_dual_quartic": from_expr("0.6*p + 0.4*(1 - (1-p)^4)"),
        # starshaped but not convex / antistarshaped but not concave: the
        # middle piece breaks convexity/concavity while h(p)/p stays monotone
        "star_kink": from_expr(
            "piece(p <= 1/2 : p/2 ; p <= 3/4 : 2*p - 3/4 ; else : p)"),
        "antistar_kink": from_expr(
            "piece(p <= 1/4 : 2*p ; p <= 3/4 : p/2 + 3/8 ; else : p)"),
        "cubic_bend": from_expr(FN_DIAG_TEXT),
        "parallel_ca_half": sys_mod.parallel_distortion(cop_mod.cuadras_auge(0.5)),
        "series_product_3": sys_mod.series_distortion(cop_mod.product(3)),
    }
    out.update(system_distortions())
    return out


# ---------------------------------------------------------------------------
# seeded samplers (rng is a random.Random; labels make trials replayable)

_SCALE_BASES = ("uniform", "exp_1", "unit_power_030", "ce02_x")


def sample_ordered_pair(rng) -> Tuple[Distribution, Distribution, str]:
    """Draw (X, Y) with X below Y in all six orders by construction."""
    family = rng.choice(("exp_rate", "scale", "power_survival"))
    if family == "exp_rate":
        rate_y = 0.4 + 1.2 * rng.random()
        rate_x = rate_y * (1.05 + 0.9 * rng.random())
        x = distrib_mod.build(f"exp:{rate_x:.12g}")
        y = distrib_mod.build(f"exp:{rate_y:.12g}")
        return x, y, f"exp rates {rate_x:.6g} >= {rate_y:.6g}"
    if family == "scale":
        base_name = rng.choice(_SCALE_BASES)
        base = distributions()[base_name]
        c = 1.05 + 1.5 * rng.random()
        y = distrib_mod.from_quantile(
            elementwise(lambda p, _b=base, _c=c: _c * _b.quantile(p)),
            label=f"scale({base_name}, {c!r})",
            validate=False)
        return base, y, f"{base_name} scaled by {c:.6g}"
    a_y = 0.15 + 0.45 * rng.random()
    a_x = a_y + 0.08 + (0.89 - a_y) * rng.random()
    x = distrib_mod.build("q:" + _power_survival_text(round(a_x, 12)))
    y = distrib_mod.build("q:" + _power_survival_text(round(a_y, 12)))
    return x, y, f"unit-power exponents {a_x:.6g} > {a_y:.6g}"


def sample_starshaped(rng) -> Distortion:
    """Starshaped distortions with closed inverses: p^k or convex mixtures."""
    if rng.random() < 0.5:
        return dist_mod.power(1.2 + 4.8 * rng.random())
    return convex_mix(0.8 * rng.random())


def sample_antistarshaped(rng) -> Distortion:
    """Antistarshaped strictly increasing, closed inverses: 1-(1-p)^k or
    concave mixtures."""
    if rng.random() < 0.5:
        return dist_mod.dualpower(1.2 + 4.8 * rng.random())
    return concave_mix(0.8 * rng.random())


def sample_dual_antistarshaped(rng) -> Distortion:
    """Strictly increasing h whose dual is antistarshaped (h = dual of an
    antistarshaped sample; equivalently a convex-seed form)."""
    return dist_mod.dual(sample_antistarshaped(rng))
