"""Exact rejection messages of the validators, one fault per input.

Each message names the offending input and the first grid point that shows
the fault, so a user can see what to fix; these pin the text.
"""

from __future__ import annotations

import math

import pytest

from stochorder import copulas, distortions, distributions, systems


def spike(p):
    return math.inf if p > 0.5 else p


def _series_crosscheck():
    generic = systems.system_distortion(systems.parse_signature("0,1"),
                                        copulas.product(2))
    systems._crosscheck(lambda p: p * p + 1e-9, generic, "series")


CASES = [
    ("distortion-non-finite", lambda: distortions.validate(spike),
     distortions.DistortionValidationError,
     "spike: non-finite value inf at p=0.501953125"),
    ("distortion-h0", lambda: distortions.validate("0.1 + 0.9*p", label="a"),
     distortions.DistortionValidationError,
     "a: h(0) = 0.1, expected 0"),
    ("distortion-h1", lambda: distortions.validate("p/2", label="a"),
     distortions.DistortionValidationError,
     "a: h(1) = 0.5, expected 1"),
    ("distortion-decreasing", lambda: distortions.validate("3*p^2 - 2*p"),
     distortions.DistortionValidationError,
     "3*p^2 - 2*p: decreasing on [0.0, 0.001953125] "
     "(h drops from 0.0 to -0.003894805908203125)"),
    ("generator-non-finite", lambda: copulas.validate_generator(spike, 2),
     copulas.CopulaValidationError,
     "spike: non-finite value inf at p=0.501953125"),
    ("generator-f1", lambda: copulas.validate_generator("p/2", 2),
     copulas.CopulaValidationError,
     "p/2: f(1) = 0.5, expected 1"),
    ("generator-decreasing", lambda: copulas.validate_generator("1 - p + p^2", 2),
     copulas.CopulaValidationError,
     "1 - p + p^2: decreasing on [0.0, 0.001953125] "
     "(f drops 1.0 -> 0.9980506896972656)"),
    ("generator-starshaped", lambda: copulas.validate_generator("p^2", 2),
     copulas.CopulaValidationError,
     "p^2: f(p)/p increases on [0.001953125, 0.00390625] "
     "(0.001953125 -> 0.00390625); not antistarshaped"),
    ("diagonal-non-finite", lambda: copulas.validate_diagonal(spike, 2),
     copulas.CopulaValidationError,
     "spike: non-finite value inf at p=0.501953125"),
    ("diagonal-d0", lambda: copulas.validate_diagonal("0.1 + 0.9*p", 2),
     copulas.CopulaValidationError,
     "0.1 + 0.9*p: d(0) = 0.1, expected 0"),
    ("diagonal-d1", lambda: copulas.validate_diagonal("p^2/2", 2),
     copulas.CopulaValidationError,
     "p^2/2: d(1) = 0.5, expected 1"),
    ("diagonal-above-identity", lambda: copulas.validate_diagonal("min(2*p, 1)", 2),
     copulas.CopulaValidationError,
     "min(2*p, 1): d(0.001953125) = 0.00390625 exceeds p"),
    ("diagonal-decreasing", lambda: copulas.validate_diagonal("2*p^3 - p^2", 4),
     copulas.CopulaValidationError,
     "2*p^3 - p^2: decreasing on [0.0, 0.001953125] "
     "(0.0 -> -3.7997961044311523e-06)"),
    ("diagonal-lipschitz", lambda: copulas.validate_diagonal("p^3", 2),
     copulas.CopulaValidationError,
     "p^3: increment 0.003914736211299896 on [0.81640625, 0.818359375] "
     "exceeds Lipschitz bound 2*(p2-p1)"),
    ("quantile-non-finite", lambda: distributions.from_quantile(spike, label="x"),
     distributions.SpecError,
     "x: quantile not finite at p=0.5019531249960938"),
    ("quantile-decreasing", lambda: distributions.build("q: 1 - p"),
     distributions.SpecError,
     "q:1 - p: quantile decreasing near p=0.00195312599609375 "
     "(0.999999999 -> 0.9980468740039062)"),
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
     "hazard decreasing near x=1.015625"),
    ("system-crosscheck", _series_crosscheck, systems.SignatureError,
     "series: closed form 1e-09 != generic 0.0 at p=0.0"),
]


@pytest.mark.parametrize("make, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_rejection_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message
