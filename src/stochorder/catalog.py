"""Documented reference inputs: named distributions, distortions, signatures,
generators, and diagonals, plus seeded samplers of order-related pairs.

Everything the tests and randomized sweeps consume is constructed here by
name, so a failing trial can always be replayed from its recorded labels.

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
free of bisection-roundtrip noise.
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
    parse = distrib_mod.parse_spec
    out = {
        "exp_1": build(parse("exp:1")),
        "exp_half": build(parse("exp:0.5")),
        "uniform": build(parse("q:p")),
        "unit_power_030": build(parse("q:" + _power_survival_text(0.3))),
        "unit_power_070": build(parse("q:" + _power_survival_text(0.7))),
        "ce02_x": build(parse("q:" + CE02_X_TEXT)),
        "ce02_y": build(parse("q:" + CE02_Y_TEXT)),
        "ce01_x": build(parse("hazard:" + PSI_TEXT)),
        "rayleigh": build(parse("hazard:x^2")),
    }
    return out


def convex_mix(w: float) -> Distortion:
    """h(p) = w*p + (1-w)*p^2 with closed inverse, 0 <= w < 1 (convex)."""
    if not 0.0 <= w < 1.0:
        raise ValueError(f"weight must lie in [0,1), got {w!r}")
    c = 1.0 - w

    def fn(p: float) -> float:
        return w * p + c * p * p

    def inv(y: float) -> float:
        return (-w + math.sqrt(w * w + 4.0 * c * y)) / (2.0 * c)

    return dist_mod.validate(
        fn, label=f"{w:.6g}*p + {c:.6g}*p^2",
        inverse_fn=inv, co_inverse_fn=lambda p: 1.0 - inv(1.0 - p))


def concave_mix(w: float) -> Distortion:
    """h(p) = w*p + (1-w)*(2p - p^2) with closed inverse (concave)."""
    if not 0.0 <= w < 1.0:
        raise ValueError(f"weight must lie in [0,1), got {w!r}")
    c = 1.0 - w
    b = 2.0 - w  # h(p) = b*p - c*p^2

    def fn(p: float) -> float:
        return b * p - c * p * p

    def inv(y: float) -> float:
        return (b - math.sqrt(b * b - 4.0 * c * y)) / (2.0 * c)

    return dist_mod.validate(
        fn, label=f"{w:.6g}*p + {c:.6g}*(2*p - p^2)",
        inverse_fn=inv, co_inverse_fn=lambda p: 1.0 - inv(1.0 - p))


@lru_cache(maxsize=1)
def signatures() -> Dict[str, sys_mod.MinimalSignature]:
    parse = sys_mod.parse_signature
    return {
        "two_parallel_pairs": parse("2,0,-2,1"),      # max of 2, each backed up
        "one_of_two_pairs": parse("0,1,1,-1"),        # min with duplicated slot
        "five_comp_bridge": parse("0,0,0,3,-2"),
        "three_of_four": parse("0,6,-8,3"),
        "series_with_parallel_pair": parse("0,0,2,-1"),
    }


@lru_cache(maxsize=1)
def generators() -> Dict[str, Tuple[str, ...]]:
    """Generator expressions valid at any dimension (text form)."""
    return {
        "independence": ("p",),
        "sqrt": ("p^0.5",),
        "frechet_mix": ("0.6*p + 0.4",),
        "quarter_power": ("p^0.25",),
    }


@lru_cache(maxsize=1)
def diagonals() -> Dict[str, Tuple[str, int]]:
    """Diagonal expressions with their catalog dimension."""
    return {
        "cubic_bend_2": (FN_DIAG_TEXT, 2),
        "cubic_bend_5": (FN_DIAG_TEXT, 5),
        "mixed_bend_4": (MIX_DIAG_TEXT, 4),
        "reflected_cubic_4": (QMIT_DIAG_TEXT, 4),
        "square_2": ("p^2", 2),
    }


@lru_cache(maxsize=1)
def system_distortions() -> Dict[str, Distortion]:
    """The five worked system distortions, built from their signatures."""
    sigs = signatures()
    gen4 = cop_mod.durante(DEFAULT_GENERATOR_TEXT, 4)
    copulas = {
        "two_parallel_pairs": gen4,
        "one_of_two_pairs": gen4,
        "five_comp_bridge": cop_mod.jaworski(FN_DIAG_TEXT, 5),
        "three_of_four": cop_mod.jaworski(MIX_DIAG_TEXT, 4),
        "series_with_parallel_pair": cop_mod.jaworski(QMIT_DIAG_TEXT, 4),
    }
    return {f"sys_{name}": sys_mod.system_distortion(sigs[name], copula).h
            for name, copula in copulas.items()}


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
        x = distrib_mod.build(distrib_mod.parse_spec(f"exp:{rate_x:.12g}"))
        y = distrib_mod.build(distrib_mod.parse_spec(f"exp:{rate_y:.12g}"))
        return x, y, f"exp rates {rate_x:.6g} >= {rate_y:.6g}"
    if family == "scale":
        base_name = rng.choice(_SCALE_BASES)
        base = distributions()[base_name]
        c = 1.05 + 1.5 * rng.random()
        y = distrib_mod.from_quantile(
            lambda p, _b=base, _c=c: _c * _b.quantile(p),
            label=f"scale({base_name}, {c:.6g})",
            validate=False)
        return base, y, f"{base_name} scaled by {c:.6g}"
    a_y = 0.15 + 0.45 * rng.random()
    a_x = a_y + 0.08 + (0.89 - a_y) * rng.random()
    x = distrib_mod.build(distrib_mod.parse_spec(
        "q:" + _power_survival_text(round(a_x, 12))))
    y = distrib_mod.build(distrib_mod.parse_spec(
        "q:" + _power_survival_text(round(a_y, 12))))
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
