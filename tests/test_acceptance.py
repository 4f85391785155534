"""Acceptance gate: every release criterion, one pass/fail line per test.

Each test prints `[acceptance] <tag>: PASS|FAIL` before asserting and also
records the line in ACCEPTANCE_LINES, which conftest echoes into the
terminal summary — so a plain `pytest -v` run shows one line per criterion
even with output capture on.
"""

from __future__ import annotations

import filecmp
import json
import math
import os

import pytest

from stochorder import catalog, cli
from stochorder import copulas as cop
from stochorder import distortions as dist_mod
from stochorder import distributions as db
from stochorder import orders as orders_mod
from stochorder import sweeps
from stochorder import systems as sys_mod
from stochorder.funcalc import Piecewise, eval_expr, parse, parse_constant
from stochorder.numerics import Grid, uniform_grid
from stochorder.orders import OrderKind

from helpers import GRID65, interior_points


ACCEPTANCE_LINES: list = []


def report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{tag} {detail}"


def test_a1_mean_residual_counterexample():
    """Density-ratio turning point, nonnegative baseline gap, distorted dip."""
    dd = catalog.distributions()
    x, y = dd["ce02_x"], dd["ce02_y"]
    grid = uniform_grid(512, edge_margin=0.01)

    ratio = [db.density_at_quantile(x, p) / db.density_at_quantile(y, p)
             for p in grid.points]
    argmin_p = grid.points[min(range(len(ratio)), key=ratio.__getitem__)]
    report("a1.turning-point", abs(argmin_p - 0.125) <= 0.002,
           f"s(p) minimized at p={argmin_p:.6f}")

    gap = orders_mod.dmrl_integral_curve(x, y, grid)
    baseline_min = min(gap["value"])
    report("a1.baseline-gap", baseline_min >= -1e-8,
           f"min I(p) = {baseline_min:.3e}")

    h = dist_mod.power(5.0)
    xh, yh = db.distort(x, h), db.distort(y, h)
    probes = {p: orders_mod.dmrl_integral(xh, yh, p)
              for p in (0.005, 0.01, 0.02)}
    report("a1.distorted-dip", all(v < -1e-10 for v in probes.values()),
           "I_h at small p: " + ", ".join(f"{v:.3e}" for v in probes.values()))

    pts = tuple(interior_points(0.002, 0.2, 199))
    curve = orders_mod.dmrl_integral_curve(
        xh, yh, Grid(points=pts))
    crossing = None
    vals = curve["value"]
    for i in range(len(pts) - 1):
        if vals[i] < 0.0 <= vals[i + 1]:
            crossing = (pts[i], pts[i + 1])
    report("a1.sign-change",
           crossing is not None and 0.024 <= crossing[0] <= 0.029,
           f"I_h crosses zero in {crossing}")

    def fh_closed(p: float) -> float:
        u = (1.0 - p) ** 0.2
        return 5.0 * (1.0 - p) ** 0.8 / (9.0 / 8.0 + u)

    def gh_closed(p: float) -> float:
        u = (1.0 - p) ** 0.2
        return 5.0 * (1.0 - p) ** 0.8 * (23.0 / 8.0 - u)

    worst = 0.0
    for p in interior_points(0.02, 0.98, 50):
        worst = max(worst,
                    abs(db.density_at_quantile(xh, p) - fh_closed(p)),
                    abs(db.density_at_quantile(yh, p) - gh_closed(p)))
    report("a1.distorted-densities", worst < 1e-6,
           f"max closed-form deviation {worst:.3e} at 50 levels")


def test_a2_mit_ratio_counterexample():
    """Kinked-hazard pair: distorted x-space gap dips negative near t=1.3."""
    dd = catalog.distributions()
    h = dist_mod.dualpower(5.0)
    xh = db.distort(dd["ce01_x"], h)
    yh = db.distort(dd["exp_1"], h)

    positives = {t: orders_mod.qmit_xspace_integral(xh, yh, t)
                 for t in (0.5, 1.0, 1.8)}
    report("a2.positive-flanks", all(v > 1e-10 for v in positives.values()),
           ", ".join(f"I({t})={v:.3e}" for t, v in positives.items()))

    lo, hi = 1.2539, 1.3050
    window = [lo + (hi - lo) * i / 10.0 for i in range(11)]
    values = [orders_mod.qmit_xspace_integral(xh, yh, t) for t in window]
    report("a2.negative-window", all(v < -1e-10 for v in values),
           f"max over [{lo}, {hi}] = {max(values):.3e}")


def test_a3_exact_rational_shape_constants():
    """Corollary thresholds and weights as exact rationals, zero tolerance."""
    from fractions import Fraction

    r3 = sys_mod.classify_3component(sys_mod.parse_signature("0, 3, -2"))
    ok = (r3.verdict == "antistarshaped_if"
          and r3.threshold == Fraction(3, 4))

    r3b = sys_mod.classify_3component(sys_mod.parse_signature("3, -3, 1"))
    ok = ok and r3b.parameters["omega"] == Fraction(3, 2)

    r4 = sys_mod.classify_4component(sys_mod.parse_signature("2, 0, -2, 1"))
    ok = ok and {r4.parameters["x1"], r4.parameters["x2"]} \
        == {Fraction(0), Fraction(4, 3)}

    r4b = sys_mod.classify_4component(sys_mod.parse_signature("0, 1, 1, -1"))
    ok = ok and {r4b.parameters["x1"], r4b.parameters["x2"]} \
        == {Fraction(-1, 3), Fraction(1)}

    r4c = sys_mod.classify_4component(sys_mod.parse_signature("0, 6, -8, 3"))
    ok = ok and r4c.threshold == (8.0 - math.sqrt(10.0)) / 9.0

    expected_params = {
        "2, 0, -2, 1": (Fraction(4, 3), Fraction(-1, 3)),
        "0, 0, 0, 3, -2": (Fraction(3, 4), Fraction(1, 4)),
        "0, 0, 2, -1": (Fraction(2, 3), Fraction(1, 3)),
    }
    for text, (alpha, beta) in expected_params.items():
        params = sys_mod.diag_system_params(sys_mod.parse_signature(text))
        ok = ok and params.alpha == alpha and params.beta == beta
        ok = ok and params.alpha + params.beta == 1

    report("a3.exact-constants", ok,
           "thresholds, roots, and diagonal weights all exact")


def test_a4_cross_form_equivalences():
    """Closed forms against generic copula sums, everywhere within 1e-12."""
    worst = 0.0
    probes = interior_points(0.0, 1.0, 65)

    for text, in catalog.generators().values():
        for n in (2, 3, 4):
            gen = cop.validate_generator(text, n)
            handle = cop.durante(text, n)
            for p in probes:
                closed = p * gen.fn(p) ** (n - 1)
                worst = max(worst,
                            abs(closed - cop.cop_eval(handle, (p,) * n)))

    for text, n in catalog.diagonals().values():
        handle = cop.jaworski(text, n)
        d = handle.diagonal.fn
        for p in GRID65:
            worst = max(worst, abs(cop.cop_eval(handle, (p,) * n) - d(p)))
        for i in range(1, n + 1):
            for p in probes[::4]:
                point = tuple(p if j < i else 1.0 for j in range(n))
                worst = max(worst, abs(cop.boundary_section(handle, p, i)
                                       - cop.cop_eval(handle, point)))

    fn_handle = cop.jaworski(catalog.FN_DIAG_TEXT, 2)
    d = fn_handle.diagonal.fn
    for u in interior_points(0.0, 1.0, 64):
        for v in interior_points(0.0, 1.0, 64):
            closed = min(u, v, 0.5 * (d(u) + d(v)))
            worst = max(worst,
                        abs(cop.cop_eval(fn_handle, (u, v)) - closed))

    ca, du = cop.cuadras_auge(0.35), cop.durante("p^0.65", 2)
    fr, du2 = cop.frechet(0.6), cop.durante("0.6 + 0.4*p", 2)
    for u in probes[::2]:
        for v in (0.15, 0.5, 0.85):
            worst = max(worst, abs(cop.cop_eval(ca, (u, v))
                                   - cop.cop_eval(du, (u, v))))
            worst = max(worst, abs(cop.cop_eval(fr, (u, v))
                                   - cop.cop_eval(du2, (u, v))))

    report("a4.cross-form-equivalences", worst < 1e-12,
           f"max deviation {worst:.3e}")


def test_a5_transform_identities():
    """Unit-exponential transforms and the scaled-spacings/excess-wealth sum."""
    exp1 = catalog.distributions()["exp_1"]
    curves = orders_mod.transform_curves(exp1)
    worst_exp = max(max(abs(t - p) for p, t in zip(curves["p"],
                                                   curves["ttt"])),
                    max(abs(w - (1.0 - p)) for p, w in zip(curves["p"],
                                                           curves["ew"])))
    report("a5.unit-exponential", worst_exp <= 1e-8,
           f"max |ttt-p|, |ew-(1-p)| = {worst_exp:.3e} on 512 levels")

    grid = uniform_grid(48, edge_margin=0.01)
    worst = 0.0
    for name, X in catalog.distributions().items():
        m = db.mean(X)
        curves = orders_mod.transform_curves(X, grid)
        for t, w in zip(curves["ttt"], curves["ew"]):
            worst = max(worst, abs(t + w - m))
    report("a5.mean-identity", worst <= 2e-8,
           f"max |ttt+ew-mean| = {worst:.3e} across the catalog")


def test_a6_preservation_sweeps():
    """Five 200-trial seeded suites: zero violations at tolerance 1e-8."""
    summary = sweeps.run_all(sweeps.SweepConfig())
    total_failures = sum(len(s.failures) for s in summary.suites)
    detail = "; ".join(f"{s.name}: {s.passes}/{s.trials}"
                       for s in summary.suites)
    invariance = next(s for s in summary.suites
                      if s.name == "convex_star_invariance")
    covered_all = invariance.trials >= len(catalog.distortions())
    report("a6.preservation-sweeps",
           summary.ok and total_failures == 0 and covered_all, detail)


def test_a7_expression_fixtures():
    """Hazard-branch continuity at the knots; operator precedence."""
    node = parse(catalog.PSI_TEXT, variables=("x",))
    assert isinstance(node, Piecewise)
    first, second = node.branches
    gap_1 = abs(eval_expr(first.body, 1.0) - eval_expr(second.body, 1.0))
    gap_13 = abs(eval_expr(second.body, 1.3)
                 - eval_expr(node.otherwise, 1.3))
    report("a7.branch-continuity", gap_1 < 1e-12 and gap_13 < 1e-12,
           f"knot gaps {gap_1:.2e} (x=1), {gap_13:.2e} (x=1.3)")

    ok = parse_constant("2+3*4") == 14.0 and parse_constant("2^3^2") == 512.0
    report("a7.precedence", ok, "2+3*4 = 14, 2^3^2 = 512 exactly")


def test_a8_cli_reproducibility(tmp_path):
    """Every reproduce target byte-identical twice; classify verdicts."""
    mismatched = []
    for target in cli.REPRO_TARGETS:
        first = tmp_path / f"{target}_1"
        second = tmp_path / f"{target}_2"
        for out in (first, second):
            code = cli.main(["reproduce", target, "--out-dir", str(out)])
            assert code == 0, target
        names = sorted(os.listdir(first))
        match, mismatch, errors = filecmp.cmpfiles(
            str(first), str(second), names, shallow=False)
        if mismatch or errors or sorted(match) != names:
            mismatched.append(target)
    report("a8.byte-stability", not mismatched,
           f"targets: {', '.join(cli.REPRO_TARGETS)}")

    cases = (
        ("2,0,-2,1", "durante: f=p^0.5, n=4", "antistarshaped"),
        ("0,1,1,-1", "durante: f=p^0.5, n=4", "starshaped"),
        ("0,0,0,3,-2", f"diagonal: d={catalog.FN_DIAG_TEXT}, n=5",
         "starshaped"),
        ("0,6,-8,3", f"diagonal: d={catalog.MIX_DIAG_TEXT}, n=4",
         "antistarshaped"),
        ("0,0,2,-1", f"diagonal: d={catalog.QMIT_DIAG_TEXT}, n=4",
         "dual-antistarshaped"),
    )
    got = []
    for i, (sig, copula, _) in enumerate(cases):
        out = tmp_path / f"classify_{i}.json"
        code = cli.main(["classify", "--signature", sig,
                         "--copula", copula, "--out-json", str(out)])
        assert code == 0, sig
        with open(out, "r", encoding="utf-8") as fp:
            got.append(json.load(fp)["verdict"])
    expected = [case[2] for case in cases]
    report("a8.classify-verdicts", got == expected,
           f"got {got}")
