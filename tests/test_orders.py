"""Order checks: transforms, verdicts, ratio scans, and implication chains."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochorder import cli
from stochorder import distortions as dist_mod
from stochorder import orders as orders_mod
from stochorder import distributions as db
from stochorder.numerics import Grid, Tolerance, uniform_grid
from stochorder.orders import (
    DEFAULT_CHECK_TOL,
    OrderKind,
    check_order,
    dmrl_integral,
    dmrl_integral_curve,
    dmrl_two_point_table,
    excess_wealth,
    mit_transform,
    order_implication_check,
    qmit_xspace_integral,
    transform_curves,
    ttt_transform,
)

from helpers import interior_points

COARSE = uniform_grid(64, edge_margin=0.01)


class TestTransforms:
    def test_unit_exponential_ttt_is_p(self, named_distributions):
        X = named_distributions["exp_1"]
        for p in (0.05, 0.3, 0.7, 0.95):
            assert ttt_transform(X, p) == pytest.approx(p, abs=1e-8)

    def test_unit_exponential_ew_is_survival(self, named_distributions):
        X = named_distributions["exp_1"]
        for p in (0.05, 0.3, 0.7, 0.95):
            assert excess_wealth(X, p) == pytest.approx(1.0 - p, abs=1e-8)

    def test_exponential_mit_closed_form(self, named_distributions):
        # mit(p) = p q(p) - integral_0^p q = p q(p) - ((1-p)ln(1-p) + p)
        X = named_distributions["exp_1"]
        assert mit_transform(X, 0.5) == pytest.approx(
            0.19314718055994531, abs=1e-12)

    def test_uniform_mit_closed_form(self, named_distributions):
        X = named_distributions["uniform"]
        assert mit_transform(X, 0.5) == pytest.approx(0.125, abs=1e-12)

    def test_transform_endpoints_are_rejected(self, named_distributions):
        X = named_distributions["exp_1"]
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                ttt_transform(X, bad)

    def test_curve_keys_and_mean_identity(self, named_distributions):
        for name in ("exp_1", "uniform", "ce02_y"):
            X = named_distributions[name]
            curves = transform_curves(X, COARSE)
            assert set(curves) == {"p", "ttt", "ew", "mit", "quantile"}
            m = db.mean(X)
            for t, w in zip(curves["ttt"], curves["ew"]):
                assert t + w == pytest.approx(m, abs=2e-8)

    def test_curve_matches_pointwise_transforms(self, named_distributions):
        X = named_distributions["ce02_x"]
        curves = transform_curves(X, COARSE)
        for i in (0, 20, 40, 63):
            p = curves["p"][i]
            assert curves["ttt"][i] == pytest.approx(
                ttt_transform(X, p), abs=1e-9)
            assert curves["ew"][i] == pytest.approx(
                excess_wealth(X, p), abs=1e-9)
            assert curves["mit"][i] == pytest.approx(
                mit_transform(X, p), abs=1e-9)


class TestCheckOrder:
    def test_reflexive_pairs_hold_in_every_order(self, named_distributions):
        X = named_distributions["exp_1"]
        for kind in OrderKind:
            verdict = check_order(X, X, kind, COARSE)
            assert verdict.holds, kind
            assert verdict.witnesses == ()

    def test_scaled_exponentials_are_ordered(self, named_distributions):
        X = named_distributions["exp_1"]
        Y = named_distributions["exp_half"]  # rate 1/2: twice as large
        for kind in OrderKind:
            assert check_order(X, Y, kind, COARSE).holds, kind

    def test_margin_orders_fail_in_reverse(self, named_distributions):
        X = named_distributions["exp_half"]
        Y = named_distributions["exp_1"]
        for kind in (OrderKind.TTT, OrderKind.EW):
            verdict = check_order(X, Y, kind, COARSE)
            assert not verdict.holds
            assert verdict.witnesses
            assert all(margin < 0.0 for _, margin in verdict.witnesses)

    def test_scale_families_are_star_equivalent(self, named_distributions):
        # a constant quantile ratio satisfies the star order both ways
        X = named_distributions["exp_half"]
        Y = named_distributions["exp_1"]
        assert check_order(X, Y, OrderKind.STAR, COARSE).holds
        assert check_order(Y, X, OrderKind.STAR, COARSE).holds

    def test_uniform_to_exponential_ordering(self, named_distributions):
        U = named_distributions["uniform"]
        E = named_distributions["exp_1"]
        assert check_order(U, E, OrderKind.CONVEX_TRANSFORM, COARSE).holds
        assert check_order(U, E, OrderKind.STAR, COARSE).holds
        reverse = check_order(E, U, OrderKind.STAR, COARSE)
        assert not reverse.holds and reverse.witnesses

    def test_tolerance_forgives_tiny_margins(self, named_distributions):
        X = named_distributions["exp_1"]
        Y = db.from_quantile(
            lambda p: (1.0 - 1e-9) * X.quantile(p), "shrunk", validate=False)
        assert check_order(X, Y, OrderKind.TTT, COARSE).holds
        strict = Tolerance(abs_tol=1e-12, rel_tol=1e-12)
        assert not check_order(X, Y, OrderKind.TTT, COARSE, strict).holds

    def test_verdict_json_shape(self, named_distributions):
        verdict = check_order(named_distributions["uniform"],
                              named_distributions["exp_1"],
                              OrderKind.TTT, COARSE)
        doc = verdict.to_json()
        assert set(doc) == {"kind", "holds", "witnesses", "grid",
                            "tolerance", "curve", "notes"}
        assert doc["kind"] == "ttt"
        assert doc["grid"].startswith("64:")


class TestSharedTransformPass:
    @pytest.mark.parametrize("kinds, passes", [
        (tuple(OrderKind), 2),
        ((OrderKind.STAR,), 0),
        ((OrderKind.CONVEX_TRANSFORM,), 0),
        ((OrderKind.TTT,), 2),
        ((OrderKind.DMRL, OrderKind.QMIT), 2),
    ])
    def test_each_side_is_integrated_at_most_once(self, kinds, passes,
                                                  named_distributions,
                                                  monkeypatch):
        calls = []
        original = orders_mod.transform_curves

        def counted(X, *args, **kwargs):
            calls.append(X.label)
            return original(X, *args, **kwargs)

        monkeypatch.setattr(orders_mod, "transform_curves", counted)
        X, Y = named_distributions["uniform"], named_distributions["exp_1"]
        verdicts = orders_mod.check_orders(X, Y, kinds, COARSE)
        assert [v.kind for v in verdicts] == list(kinds)
        assert len(calls) == passes
        assert calls == [X.label, Y.label][:passes]

    @pytest.mark.parametrize("x_name, y_name", [("uniform", "exp_1"),
                                                ("exp_half", "exp_1"),
                                                ("ce02_x", "ce02_y")])
    def test_same_verdicts_as_one_order_at_a_time(self, x_name, y_name,
                                                  named_distributions):
        X, Y = named_distributions[x_name], named_distributions[y_name]
        kinds = tuple(OrderKind)
        many = orders_mod.check_orders(X, Y, kinds, COARSE)
        assert [v.to_json() for v in many] == \
            [check_order(X, Y, kind, COARSE).to_json() for kind in kinds]


def _table_distribution(values, grid):
    """A raw distribution whose quantile takes the given values on the grid."""
    table = dict(zip(grid.points, (float(v) for v in values)))
    return db.from_quantile(lambda p: table.get(p, 1.0), "table", validate=False)


class TestRatioScan:
    """Against a unit X, the star ratio q_y/q_x is q_y itself, so the ratio
    scan can be read against a loop over adjacent steps."""

    UNIT = db.from_quantile(lambda p: 1.0, "unit", validate=False)

    @given(st.lists(st.integers(-100, 100), min_size=16, max_size=24,
                    unique=True))
    def test_every_backward_step_is_a_witness(self, values):
        grid = uniform_grid(len(values), edge_margin=0.01)
        # reversing the sequence swaps which steps go backward
        for vals in (values, values[::-1]):
            verdict = check_order(self.UNIT, _table_distribution(vals, grid),
                                  OrderKind.STAR, grid)
            expected = [(p, float(b - a))
                        for p, a, b in zip(grid.points, vals, vals[1:]) if b < a]
            assert list(verdict.witnesses) == expected
            assert verdict.holds == (not expected)

    @pytest.mark.parametrize("drop, holds", [(5e-3, True), (5e-2, False)])
    def test_relative_tolerance_scales_with_the_ratio(self, drop, holds):
        # 1e-8 + 1e-8 * 1e6 ~= 1e-2 of slack at ratios near 1e6
        grid = uniform_grid(16, edge_margin=0.01)
        values = [1e6 + k for k in range(16)]
        values[5] = values[4] - drop
        verdict = check_order(self.UNIT, _table_distribution(values, grid),
                              OrderKind.STAR, grid)
        assert verdict.holds == holds
        if not holds:
            assert [p for p, _ in verdict.witnesses] == [grid.points[4]]

    def test_excluded_denominators_leave_the_curve(self):
        grid = uniform_grid(16, edge_margin=0.01)
        X = _table_distribution([0.0] * 3 + [1.0] * 13, grid)
        verdict = check_order(X, X, OrderKind.STAR, grid)
        assert verdict.holds
        assert verdict.curve["p"] == grid.points[3:]
        assert verdict.notes[:3] == tuple(f"excluded p={p:.6g}: quantile of X ~0"
                                          for p in grid.points[:3])


class TestDmrlRoutes:
    def test_monotone_ratio_and_integral_routes_agree(self,
                                                      named_distributions):
        X = named_distributions["ce02_x"]
        Y = named_distributions["ce02_y"]
        assert check_order(X, Y, OrderKind.DMRL, COARSE).holds
        gap = dmrl_integral_curve(X, Y, COARSE)
        assert min(gap["value"]) >= -1e-8

    def test_both_routes_flag_the_distorted_pair(self, named_distributions):
        h = dist_mod.power(5.0)
        Xh = db.distort(named_distributions["ce02_x"], h)
        Yh = db.distort(named_distributions["ce02_y"], h)
        pts = tuple(interior_points(0.002, 0.2, 99))
        grid = Grid(points=pts)
        assert not check_order(Xh, Yh, OrderKind.DMRL, grid).holds
        gap = dmrl_integral_curve(Xh, Yh, grid)
        assert min(gap["value"]) < -1e-10

    def test_single_point_matches_curve(self, named_distributions):
        X = named_distributions["ce02_x"]
        Y = named_distributions["ce02_y"]
        gap = dmrl_integral_curve(X, Y, COARSE)
        i = 17
        assert dmrl_integral(X, Y, COARSE.points[i]) == pytest.approx(
            gap["value"][i], abs=1e-12)

    def test_infinite_excess_wealth_is_refused(self):
        X = db.build("q: 1/(1-p) - 1")
        Y = db.build("q: 2/(1-p) - 2")
        with pytest.raises(db.InfiniteMeanError):
            excess_wealth(X, 0.5)
        with pytest.raises(db.InfiniteMeanError):
            dmrl_integral(X, Y, 0.5)
        with pytest.raises(db.InfiniteMeanError):
            dmrl_two_point_table(X, Y, count=16)

    def test_two_point_table_summary(self, named_distributions):
        table = dmrl_two_point_table(named_distributions["ce02_x"],
                                     named_distributions["ce02_y"], count=16)
        assert set(table) == {"min_value", "argmin", "negative_count",
                              "checked"}
        assert table["negative_count"] == 0


class TestQmitXspace:
    def test_requires_positive_threshold(self, named_distributions):
        with pytest.raises(ValueError):
            qmit_xspace_integral(named_distributions["exp_1"],
                                 named_distributions["exp_half"], 0.0)

    def test_kinked_hazard_pair_holds_before_distortion(self,
                                                        named_distributions):
        X = named_distributions["ce01_x"]
        Y = named_distributions["exp_1"]
        assert check_order(X, Y, OrderKind.QMIT, COARSE).holds

    def test_distorted_gap_oracles(self, named_distributions):
        h = dist_mod.dualpower(5.0)
        Xh = db.distort(named_distributions["ce01_x"], h)
        Yh = db.distort(named_distributions["exp_1"], h)
        assert qmit_xspace_integral(Xh, Yh, 0.5) == pytest.approx(
            2.5245866421942675e-04, rel=1e-6)
        assert qmit_xspace_integral(Xh, Yh, 1.0) == pytest.approx(
            3.284842631442063e-02, rel=1e-6)
        assert qmit_xspace_integral(Xh, Yh, 1.28) < -1e-10


class TestImplications:
    def test_chains_are_consistent_for_ordered_pair(self,
                                                    named_distributions):
        report = order_implication_check(named_distributions["uniform"],
                                         named_distributions["exp_1"],
                                         COARSE)
        assert report.consistent and report.violations == ()
        assert report.verdicts["convex_transform"]
        assert report.verdicts["dmrl"] and report.verdicts["qmit"]
        assert report.verdicts["star"]

    def test_json_round_trip(self, named_distributions):
        report = order_implication_check(named_distributions["exp_1"],
                                         named_distributions["exp_half"],
                                         COARSE)
        doc = report.to_json()
        assert set(doc) == {"verdicts", "violations", "consistent"}
        assert len(doc["verdicts"]) == len(OrderKind)


class TestCurveCsv:
    def test_stream_format(self, named_distributions, tmp_path):
        verdict = check_order(named_distributions["uniform"],
                              named_distributions["exp_1"],
                              OrderKind.TTT, COARSE)
        out = tmp_path / "curve.csv"
        assert cli.main(["check-order", "--x", "q:p", "--y", "exp:1",
                         "--order", "ttt", "--grid-count", "64",
                         "--grid-margin", "0.01", "--out-csv", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,value_x,value_y,functional"
        assert len(lines) == 1 + len(verdict.curve["p"])
        # .17g fields read back to the exact curve values
        rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
        columns = ("p", "value_x", "value_y", "functional")
        assert rows == list(zip(*(verdict.curve[key] for key in columns)))
