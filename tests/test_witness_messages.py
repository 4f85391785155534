"""Exact rejection messages of the validators.

Each message names the offending input and the first grid point that shows
the fault, so a user can see what to fix; these pin the text.  A sampled
function's finite, end-value and step checks share one rule and one form
per fault (numerics.sample), in that order, before a validator's own
checks; the two-fault rows pin which fault that order names.
"""

from __future__ import annotations

import math

import pytest

from stochorder import copulas, distortions, distributions, numerics, systems


def spike(p):
    return math.inf if p > 0.5 else p


def _closed_form_crosscheck():
    # p^2 + 1e-10 passes validation (h(0) and h(1) within 1e-9), so the
    # crosscheck finds the 1e-10 gap to the boundary sum p^2 at p = 0
    systems._closed_form(systems.parse_signature("0,1"), copulas.durante("p", 2),
                         "generator", "f=p", lambda p: p * p + 1e-10, "p*f(p)")


def _system(sig, copula):
    return lambda: systems.system_distortion(systems.parse_signature(sig),
                                             copulas.parse_copula_spec(copula))


CASES = [
    ("distortion-non-finite", lambda: distortions.validate(spike),
     distortions.DistortionValidationError,
     "spike: h(0.501953125) = inf, not finite"),
    ("distortion-h0", lambda: distortions.validate("0.1 + 0.9*p", label="a"),
     distortions.DistortionValidationError,
     "a: h(0.0) = 0.1, expected 0.0"),
    ("distortion-h1", lambda: distortions.validate("p/2", label="a"),
     distortions.DistortionValidationError,
     "a: h(1.0) = 0.5, expected 1.0"),
    ("distortion-decreasing", lambda: distortions.validate("3*p^2 - 2*p"),
     distortions.DistortionValidationError,
     "3*p^2 - 2*p: h decreasing on [0.0, 0.001953125] "
     "(0.0 -> -0.003894805908203125)"),
    ("distortion-h0-and-decreasing", lambda: distortions.validate("1 - p"),
     distortions.DistortionValidationError,
     "1 - p: h(0.0) = 1.0, expected 0.0"),
    ("generator-non-finite", lambda: copulas.validate_generator(spike, 2),
     copulas.CopulaValidationError,
     "spike: f(0.501953125) = inf, not finite"),
    ("generator-f1", lambda: copulas.validate_generator("p/2", 2),
     copulas.CopulaValidationError,
     "p/2: f(1.0) = 0.5, expected 1.0"),
    ("generator-decreasing", lambda: copulas.validate_generator("1 - p + p^2", 2),
     copulas.CopulaValidationError,
     "1 - p + p^2: f decreasing on [0.0, 0.001953125] "
     "(1.0 -> 0.9980506896972656)"),
    ("generator-f1-and-decreasing", lambda: copulas.validate_generator("1 - p", 2),
     copulas.CopulaValidationError,
     "1 - p: f(1.0) = 0.0, expected 1.0"),
    ("generator-starshaped", lambda: copulas.validate_generator("p^2", 2),
     copulas.CopulaValidationError,
     "p^2: f(p)/p increases on [0.001953125, 0.00390625] "
     "(0.001953125 -> 0.00390625); not antistarshaped"),
    ("diagonal-non-finite", lambda: copulas.validate_diagonal(spike, 2),
     copulas.CopulaValidationError,
     "spike: d(0.501953125) = inf, not finite"),
    ("diagonal-d0", lambda: copulas.validate_diagonal("0.1 + 0.9*p", 2),
     copulas.CopulaValidationError,
     "0.1 + 0.9*p: d(0.0) = 0.1, expected 0.0"),
    ("diagonal-d1", lambda: copulas.validate_diagonal("p^2/2", 2),
     copulas.CopulaValidationError,
     "p^2/2: d(1.0) = 0.5, expected 1.0"),
    ("diagonal-above-identity", lambda: copulas.validate_diagonal("min(2*p, 1)", 2),
     copulas.CopulaValidationError,
     "min(2*p, 1): d(0.001953125) = 0.00390625 exceeds p"),
    ("diagonal-decreasing", lambda: copulas.validate_diagonal("2*p^3 - p^2", 4),
     copulas.CopulaValidationError,
     "2*p^3 - p^2: d decreasing on [0.0, 0.001953125] "
     "(0.0 -> -3.7997961044311523e-06)"),
    # d exceeds p from 0.001953125 on and drops at 0.5: the drop is named
    ("diagonal-decreasing-and-above-identity",
     lambda: copulas.validate_diagonal("piece(p <= 0.5 : 1.5*p ; else : p)", 2),
     copulas.CopulaValidationError,
     "piece(p <= 0.5 : 1.5*p ; else : p): d decreasing on [0.5, 0.501953125] "
     "(0.75 -> 0.501953125)"),
    ("diagonal-lipschitz", lambda: copulas.validate_diagonal("p^3", 2),
     copulas.CopulaValidationError,
     "p^3: increment 0.003914736211299896 on [0.81640625, 0.818359375] "
     "exceeds Lipschitz bound 2*(p2-p1)"),
    ("quantile-non-finite", lambda: distributions.from_quantile(spike, label="x"),
     distributions.SpecError,
     "x: q(0.5019531249960938) = inf, not finite"),
    ("quantile-non-finite-and-decreasing",
     lambda: distributions.from_quantile(
         lambda p: math.inf if p > 0.5 else 1.0 - p, label="x"),
     distributions.SpecError,
     "x: q(0.5019531249960938) = inf, not finite"),
    ("quantile-decreasing", lambda: distributions.build("q: 1 - p"),
     distributions.SpecError,
     "q:1 - p: q decreasing on [1e-09, 0.00195312599609375] "
     "(0.999999999 -> 0.9980468740039062)"),
    ("quantile-decreasing-and-negative", lambda: distributions.build("q: -0.5 - p"),
     distributions.SpecError,
     "q:-0.5 - p: q decreasing on [1e-09, 0.00195312599609375] "
     "(-0.500000001 -> -0.5019531259960938)"),
    ("quantile-negative", lambda: distributions.build("q: p - 0.5"),
     distributions.SpecError,
     "q:p - 0.5: negative support (q near 0 is -0.499999999)"),
    ("hazard-negative", lambda: distributions.build("hazard: x - 1"),
     distributions.SpecError,
     "hazard:x - 1: hazard negative at 0 (-1.0)"),
    ("hazard-bounded", lambda: distributions.build("hazard: 1 - exp(-x)"),
     distributions.SpecError,
     "hazard:1 - exp(-x): hazard does not reach 30.0 (not unbounded?)"),
    ("hazard-decreasing",
     lambda: distributions.build(
         "hazard: piece(x <= 1 : x ; x <= 2 : 1 - (x-1)/4 ; else : x^2)"),
     distributions.SpecError,
     "hazard:piece(x <= 1 : x ; x <= 2 : 1 - (x-1)/4 ; else : x^2): "
     "psi decreasing on [1.0, 1.015625] (1.0 -> 0.99609375)"),
    # the first step starts from psi(0), held from the build's first call
    ("hazard-decreasing-from-zero",
     lambda: distributions.build("hazard: piece(x <= 0 : 1 ; else : x)"),
     distributions.SpecError,
     "hazard:piece(x <= 0 : 1 ; else : x): psi decreasing on "
     "[0.0, 2.710505431213761e-20] (1.0 -> 2.710505431213761e-20)"),
    # a point count below 2 has no step between its ends
    ("validation-points-one", lambda: numerics.validation_points(1),
     numerics.InputError, "validation points need a count of at least 2, got 1"),
    ("values-at-one", lambda: distortions.values_at(distortions.power(2), 1),
     numerics.InputError, "validation points need a count of at least 2, got 1"),
    ("values-at-zero", lambda: distortions.values_at(distortions.power(2), 0),
     numerics.InputError, "validation points need a count of at least 2, got 0"),
    ("values-at-negative", lambda: distortions.values_at(distortions.power(2), -1),
     numerics.InputError, "validation points need a count of at least 2, got -1"),
    ("system-crosscheck", _closed_form_crosscheck, systems.SignatureError,
     "generator-form system: closed form 1e-10 != generic 0.0 at p=0.0"),
    # the closed form is what gets validated, so the label names f or d
    ("system-generator-decreasing", _system("3,-2", "durante:f=p,n=2"),
     distortions.DistortionValidationError,
     "system(a=3,-2; f=p): h decreasing on [0.75, 0.751953125] "
     "(1.125 -> 1.1249923706054688)"),
    ("system-diagonal-decreasing", _system("3,-2", "diagonal:d=p^2,n=2"),
     distortions.DistortionValidationError,
     "system(a=3,-2; d=p^2): h decreasing on [0.75, 0.751953125] "
     "(1.125 -> 1.1249923706054688)"),
    ("system-dimension", _system("2,0,-2,1", "product:3"), systems.SignatureError,
     "signature has 4 entries but copula dimension is 3"),
    ("system-generator-dimension", _system("2,0,-2,1", "durante:f=p,n=3"),
     systems.SignatureError,
     "signature has 4 entries but generator dimension is 3"),
]


@pytest.mark.parametrize("make, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_rejection_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message
