"""Order checks: transforms, verdicts, ratio scans, the dmrl integral form,
and the implication chains between the six verdicts."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochorder import catalog, cli
from stochorder import distortions as dist_mod
from stochorder import orders as orders_mod
from stochorder import distributions as db
from stochorder.numerics import (
    Grid,
    NumericsError,
    QuadratureFailure,
    Tolerance,
    elementwise,
    uniform_grid,
)
from stochorder.orders import (
    OrderKind,
    check_order,
    check_orders,
    excess_wealth,
    mit_transform,
    qmit_xspace_integral,
    transform_curves,
    ttt_transform,
)

from helpers import CURVE_ABS_TOL, CURVE_REL_TOL, dmrl_integral, interior_points

COARSE = uniform_grid(64, edge_margin=0.01)


def _bits(curve):
    """A curve dict as the dtype and bytes of each array: equal exactly when
    every value is the same float64, 0.0 told from -0.0."""
    return {key: (values.dtype, values.tobytes()) for key, values in curve.items()}


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

    def test_curve_keys_and_mean_identity(self, named_distributions, catalog_curves):
        for name in ("exp_1", "uniform", "ce02_y"):
            X = named_distributions[name]
            curves = catalog_curves(name, COARSE)
            assert set(curves) == {"p", "ttt", "ew", "mit", "quantile"}
            m = db.mean(X)
            for t, w in zip(curves["ttt"], curves["ew"]):
                assert t + w == pytest.approx(m, abs=2e-8)

    def test_curve_matches_pointwise_transforms(self, named_distributions,
                                               catalog_curves):
        X = named_distributions["ce02_x"]
        curves = catalog_curves("ce02_x", COARSE)
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
        assert set(doc) == {"order", "holds", "witnesses", "grid",
                            "tolerances", "notes"}
        assert doc["order"] == "ttt"
        assert doc["grid"].startswith("64:")


class TestSharedTransformPass:
    @pytest.mark.parametrize("kinds, sides", [
        (tuple(OrderKind), 2),
        ((OrderKind.STAR,), 0),
        ((OrderKind.CONVEX_TRANSFORM,), 0),
        ((OrderKind.TTT,), 2),
        ((OrderKind.DMRL, OrderKind.QMIT), 2),
    ])
    def test_each_side_is_integrated_at_most_once(self, kinds, sides,
                                                  named_distributions,
                                                  monkeypatch):
        # a request that reads curves refines both quantiles in one
        # quadrature loop; star and convex_transform read none
        passes = []
        original = orders_mod.integrate_many

        def counted(fns, *args):
            passes.append(list(fns))
            return original(fns, *args)

        monkeypatch.setattr(orders_mod, "integrate_many", counted)
        X, Y = named_distributions["uniform"], named_distributions["exp_1"]
        verdicts = orders_mod.check_orders(X, Y, kinds, COARSE)
        assert [v.kind for v in verdicts] == list(kinds)
        if sides:
            assert passes == [[X.quantile, Y.quantile]]
        else:
            assert passes == []

    @pytest.mark.parametrize("x_name, y_name, h_name", [
        pytest.param("uniform", "exp_1", None, id="uniform-exp_1"),
        pytest.param("exp_half", "exp_1", None, id="exp_half-exp_1"),
        pytest.param("ce02_x", "ce02_y", None, id="ce02_x-ce02_y"),
        pytest.param("ce02_x", "ce02_y", "mix_cubic", id="ce02_x-ce02_y-mix_cubic"),
        pytest.param("ce01_x", "rayleigh", None, id="ce01_x-rayleigh"),
    ])
    def test_same_verdicts_as_one_order_at_a_time(self, x_name, y_name, h_name,
                                                  named_distributions,
                                                  fresh_distortions):
        # star reads q at the grid from the pass of the kinds before it
        X, Y = named_distributions[x_name], named_distributions[y_name]
        if h_name is not None:
            h = fresh_distortions[h_name]
            X, Y = db.distort(X, h), db.distort(Y, h)
        kinds = tuple(OrderKind)
        many = orders_mod.check_orders(X, Y, kinds, COARSE)
        alone = [check_order(X, Y, kind, COARSE) for kind in kinds]
        assert [v.to_json() for v in many] == [v.to_json() for v in alone]
        assert [_bits(v.curve) for v in many] == [_bits(v.curve) for v in alone]


class TestReadOnlyCurves:
    """Curves are read-only float64 arrays passed on without copies: the
    grid's own points, and one pass's ew curves in both ew and dmrl."""

    @staticmethod
    def _assert_read_only(curve):
        for values in curve.values():
            assert values.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    @pytest.mark.parametrize("kinds", [tuple(OrderKind), (OrderKind.STAR,)],
                             ids=["six", "star-alone"])
    def test_verdict_curves(self, kinds, named_distributions):
        X, Y = named_distributions["exp_half"], named_distributions["exp_1"]
        verdicts = check_orders(X, Y, kinds, COARSE)
        for v in verdicts:
            assert list(v.curve) == ["p", "value_x", "value_y", "functional"]
            assert v.curve["p"] is COARSE.points  # no point excluded
            self._assert_read_only(v.curve)
        by_kind = {v.kind: v.curve for v in verdicts}
        if OrderKind.DMRL in by_kind:
            for key in ("value_x", "value_y"):
                assert by_kind[OrderKind.DMRL][key] is by_kind[OrderKind.EW][key]

    def test_excluded_points_leave_a_read_only_copy(self):
        grid = uniform_grid(16, edge_margin=0.01)
        X = _table_distribution([0.0] * 3 + [1.0] * 13, grid)
        self._assert_read_only(check_order(X, X, OrderKind.STAR, grid).curve)

    def test_transform_and_dmrl_integral_curves(self, named_distributions):
        X, Y = named_distributions["ce02_x"], named_distributions["ce02_y"]
        dmrl = check_order(X, Y, OrderKind.DMRL, COARSE)
        for curves in transform_curves([X, Y], COARSE) + [dmrl.curve]:
            assert curves["p"] is COARSE.points
            self._assert_read_only(curves)


def _single_passes(sides, grid, reads=orders_mod.TRANSFORMS):
    """transform_curves of each side alone, in order: the curves, or the
    class and message of the first error, as passes one after the other
    give them."""
    try:
        return [_bits(transform_curves([S], grid, reads)[0]) for S in sides]
    except Exception as error:
        return type(error), str(error)


def _joint_pass(sides, grid, reads=orders_mod.TRANSFORMS):
    try:
        return [_bits(curves) for curves in transform_curves(sides, grid, reads)]
    except Exception as error:
        return type(error), str(error)


# a quantile that is not finite inside (0, 1), built without validation
_INFINITE_INSIDE = db.from_quantile(lambda p: math.inf if p > 0.3 else p,
                                    "inf_above_0.3", validate=False)
# a quantile too rough for the quadrature: a jump at 0.5001
_JUMP = db.from_quantile(lambda p: p + (p > 0.5001), "jump", validate=False)


class TestJointTransformPass:
    """One pass of both sides gives each the curves, bit for bit, and the
    error that a pass of each side alone, X then Y, gives."""

    @pytest.mark.parametrize("h_name", [None] + sorted(catalog.distortions()))
    def test_both_sides_equal_their_single_passes(self, h_name, named_distributions,
                                                  named_distortions, catalog_curves):
        names = sorted(named_distributions)
        sides = [named_distributions[name] for name in names]
        if h_name is None:
            alone = [_bits(catalog_curves(name, COARSE)) for name in names]
        else:
            sides = [db.distort(S, named_distortions[h_name]) for S in sides]
            alone = _single_passes(sides, COARSE)
        # each distribution on both sides: the catalog in a cycle
        for i in range(len(sides)):
            j = (i + 1) % len(sides)
            assert _joint_pass([sides[i], sides[j]], COARSE) == [alone[i], alone[j]]

    @pytest.mark.parametrize("x, y", [
        ("q: 1/(1-p) - 1", _INFINITE_INSIDE),
        (_INFINITE_INSIDE, "q: 1/(1-p) - 1"),
        (_JUMP, _INFINITE_INSIDE),
        (_INFINITE_INSIDE, _JUMP),
        ("exp:1", _JUMP),
        ("exp:1", "q: 1/(1-p) - 1"),
        ("q: 2/(1-p) - 2", "q: 1/(1-p) - 1"),
    ], ids=["infinite_mean_then_inf", "inf_then_infinite_mean", "jump_then_inf",
            "inf_then_jump", "exp_then_jump", "exp_then_infinite_mean",
            "infinite_means"])
    @pytest.mark.parametrize("need_mean", [True, False])
    def test_errors_are_those_of_single_passes_in_order(self, x, y, need_mean):
        # a pass that reads ew, with or without the head, refuses an
        # infinite mean; one that reads only ttt and mit never sees the tail
        X, Y = (db.build(S) if isinstance(S, str) else S for S in (x, y))
        for reads in ((("ttt", "ew", "mit"), ("ew",)) if need_mean
                      else (("ttt", "mit"),)):
            want = _single_passes([X, Y], COARSE, reads)
            assert _joint_pass([X, Y], COARSE, reads) == want

    def test_infinite_mean_of_x_beats_a_failure_of_y(self):
        X = db.build("q: 1/(1-p) - 1")
        with pytest.raises(db.InfiniteMeanError, match=r"^q:1/\(1-p\) - 1: infinite mean"):
            check_orders(X, _INFINITE_INSIDE, [OrderKind.EW], COARSE)
        with pytest.raises(NumericsError, match="^integrand evaluated to inf"):
            check_orders(X, _INFINITE_INSIDE, [OrderKind.TTT], COARSE)


def _composed(S):
    """S without its distorted record: its quantile, the composition
    distort built, is integrated as one integrand, as before the pass
    shared a common h's co-inverse."""
    return db.from_quantile(S.quantile, S.label, validate=False)


def _outcomes(sides, monkeypatch):
    """The integrate_many outcomes of one transform pass of sides: each
    side's piece integrals and values at the cuts, or the class and message
    of its error."""
    seen = []
    original = orders_mod.integrate_many

    def captured(*args):
        seen.append(original(*args))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(orders_mod, "integrate_many", captured)
        try:
            transform_curves(sides, COARSE)
        except Exception:
            pass  # the outcomes say which side failed, and how
    [outcomes] = seen
    return [(type(o), str(o)) if isinstance(o, Exception) else o for o in outcomes]


def _curve_arrays(sides):
    """transform_curves of sides, each side's arrays in key order."""
    return [tuple(c[key] for key in sorted(c)) for c in transform_curves(sides, COARSE)]


def _assert_agree(got, want):
    """Two passes' outcomes, each side's arrays or error: the same errors,
    and arrays within the accuracy a transform curve is held to."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w[0], type):  # (class, message) of an error
            assert g == w
            continue
        assert len(g) == len(w) and not isinstance(g[0], type)
        for a, b in zip(g, w):
            np.testing.assert_allclose(a, b, rtol=CURVE_REL_TOL, atol=CURVE_ABS_TOL)


def _bytes(outcome):
    """An outcome as it compares bit for bit: an error as it is, arrays as
    their bytes."""
    return outcome if isinstance(outcome[0], type) else tuple(v.tobytes() for v in outcome)


# hole_x and hole_y are kinks of _KINKED's bases, where their refinement
# goes deep; no point of COARSE's first quadrature call lies in either hole
_HOLES = (0.4123, 0.6234)


@elementwise
def _holed_co_inverse(p):
    bad = np.flatnonzero((np.abs(p - _HOLES[0]) < 1e-4) | (np.abs(p - _HOLES[1]) < 1e-4))
    if bad.size:
        raise ValueError(f"no co-inverse at {float(p[bad[0]])!r}")
    return p


class TestSharedCoInverse:
    """A pair distorted by one h is integrated in its bases, with h's
    co-inverse taken once per quadrature level for both; every outcome
    agrees with that of the distorted quantiles integrated as they are: the
    same errors, and curves within the accuracy a curve is held to."""

    PAIRS = [("ce02_x", "ce02_y"), ("exp_half", "rayleigh"), ("uniform", "ce01_x")]
    # closed inverses, then root-solved ones
    H_NAMES = ["power:2.5", "dualpower_3", "mix_cubic", "sys_three_of_four"]

    @staticmethod
    def _h(name, fresh_distortions):
        return dist_mod.power(2.5) if name == "power:2.5" else fresh_distortions[name]

    @pytest.mark.parametrize("h_name", H_NAMES)
    @pytest.mark.parametrize("x_name, y_name", PAIRS)
    def test_pair_equals_single_sides_and_composed_integrands(
            self, x_name, y_name, h_name, named_distributions, fresh_distortions,
            monkeypatch):
        h = self._h(h_name, fresh_distortions)
        sides = [db.distort(named_distributions[name], h) for name in (x_name, y_name)]
        joint = _joint_pass(sides, COARSE)
        assert isinstance(joint, list)
        assert joint == _single_passes(sides, COARSE)
        composed = [_composed(S) for S in sides]
        _assert_agree(_curve_arrays(sides), _curve_arrays(composed))
        _assert_agree(_outcomes(sides, monkeypatch), _outcomes(composed, monkeypatch))

    @pytest.mark.parametrize("h_name", H_NAMES)
    @pytest.mark.parametrize("x_name, y_name", PAIRS)
    def test_one_co_inverse_call_per_level(self, x_name, y_name, h_name,
                                           named_distributions, fresh_distortions,
                                           monkeypatch):
        # each base is called once per level it is open in, the first call
        # covering two; the co-inverse once per level either is open in
        h = self._h(h_name, fresh_distortions)
        calls = {"x": 0, "y": 0, "co_inverse": 0}

        def counted(key, fn):
            @elementwise
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        X, Y = (named_distributions[name] for name in (x_name, y_name))
        X = replace(X, quantile=counted("x", X.quantile))
        Y = replace(Y, quantile=counted("y", Y.quantile))
        monkeypatch.setattr(dist_mod, "co_inverse", counted("co_inverse", dist_mod.co_inverse))
        transform_curves([db.distort(X, h), db.distort(Y, h)], COARSE)
        # a co-inverse per side would make calls["x"] + calls["y"]
        assert calls["co_inverse"] == max(calls["x"], calls["y"]) > 1

    @pytest.mark.parametrize("h_name", ["power:2.5", "mix_cubic"])
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_a_base_that_turns_infinite_fails_alone(self, h_name, bad_first,
                                                    named_distributions,
                                                    fresh_distortions, monkeypatch):
        h = self._h(h_name, fresh_distortions)
        bad = db.distort(db.from_quantile(lambda p: math.inf if p > 0.6 else p,
                                          "inf_above_0.6", validate=False), h)
        good = db.distort(named_distributions["ce02_y"], h)
        sides = [bad, good] if bad_first else [good, bad]
        got = _outcomes(sides, monkeypatch)
        _assert_agree(got, _outcomes([_composed(S) for S in sides], monkeypatch))
        error = got[0 if bad_first else 1]
        assert error[0] is NumericsError and error[1].startswith("integrand evaluated to inf")
        # the good side's curves are its own; the pass raises the bad side's error
        assert _bytes(got[1 if bad_first else 0]) == _bytes(_outcomes([good], monkeypatch)[0])
        assert _joint_pass(sides, COARSE) == _single_passes([bad], COARSE)

    def test_a_co_inverse_that_raises_names_each_sides_own_point(self, monkeypatch):
        h = dist_mod.Distortion(fn=elementwise(lambda p: p), label="holed",
                                strictly_increasing=True, co_inverse_fn=_holed_co_inverse)
        X, Y = (db.distort(db.build(f"q: p + max(p - {k}, 0)"), h) for k in _HOLES)
        got = _outcomes([X, Y], monkeypatch)
        _assert_agree(got, _outcomes([_composed(X), _composed(Y)], monkeypatch))
        # a later level's joint call meets X's hole; Y still names its own
        assert got == [(ValueError, "no co-inverse at 0.41225694444444444"),
                       (ValueError, "no co-inverse at 0.6234722222222222")]
        assert _joint_pass([Y, X], COARSE) == (ValueError, got[1][1])


def _recording(X):
    """X with its quantile wrapped to record the points of each call, and
    the record."""
    seen = []
    q = X.quantile

    @elementwise
    def recorded(p):
        seen.append(np.array(p, dtype=float).ravel())
        return q(p)

    return replace(X, quantile=recorded), seen


class TestPassReadsItsEnds:
    """A pass integrates only the ends its kinds' transforms read: ttt and
    qmit the head below the first grid point, ew and dmrl the upper tail
    above the last."""

    @staticmethod
    def _calls(kinds, named_distributions):
        """The arrays each side's quantile is called on by one check_orders call."""
        X, xs = _recording(named_distributions["exp_half"])
        Y, ys = _recording(named_distributions["exp_1"])
        check_orders(X, Y, kinds, COARSE)
        return xs, ys

    def _points(self, kinds, named_distributions):
        return tuple(np.concatenate(calls)
                     for calls in self._calls(kinds, named_distributions))

    @pytest.mark.parametrize("kind", [OrderKind.TTT, OrderKind.QMIT])
    def test_head_kinds_evaluate_nothing_above_the_grid(self, kind,
                                                        named_distributions):
        for points in self._points((kind,), named_distributions):
            assert points.max() == COARSE.points[-1]
            assert points.min() < COARSE.points[0]

    @pytest.mark.parametrize("kind", [OrderKind.EW, OrderKind.DMRL])
    def test_tail_kinds_evaluate_nothing_below_the_grid(self, kind,
                                                        named_distributions):
        for points in self._points((kind,), named_distributions):
            assert points.min() == COARSE.points[0]
            assert points.max() > COARSE.points[-1]

    def test_six_orders_evaluate_both_ends(self, named_distributions):
        # the six kinds read both ends: their points are those of a head
        # pass, a tail pass and the density stencil
        six = self._points(tuple(OrderKind), named_distributions)
        parts = [self._points(kinds, named_distributions)
                 for kinds in ((OrderKind.TTT,), (OrderKind.EW,),
                               (OrderKind.CONVEX_TRANSFORM,))]
        for side, points in enumerate(six):
            want = np.unique(np.concatenate([part[side] for part in parts]))
            np.testing.assert_array_equal(np.unique(points), want)

    @pytest.mark.parametrize("kinds", [
        (OrderKind.STAR,),
        (OrderKind.STAR, OrderKind.TTT),
        (OrderKind.TTT, OrderKind.STAR),
        (OrderKind.DMRL, OrderKind.STAR),
    ])
    def test_star_reads_the_pass_before_it(self, kinds, named_distributions):
        # star first or alone calls each quantile once, at the grid; after a
        # pass-reading kind it calls neither
        got = self._calls(kinds, named_distributions)
        others = [kind for kind in kinds if kind != OrderKind.STAR]
        without = self._calls(others, named_distributions)
        for calls, other_calls in zip(got, without):
            if kinds[0] == OrderKind.STAR:
                np.testing.assert_array_equal(calls[0], COARSE.points)
                calls = calls[1:]
            assert [c.tobytes() for c in calls] == [c.tobytes() for c in other_calls]

    def test_heavy_tail_fails_only_the_tail_kinds(self):
        # a Lomax (a = 1.5) scale pair under 1 - (1-p)^2: the tail rungs
        # near p = 1 - 2.4e-6 do not converge, the head and grid do
        h = dist_mod.dualpower(2.0)
        X, Y = (db.distort(db.build(spec), h)
                for spec in ("q: (1-p)^(-1/1.5) - 1", "q: 1.3*((1-p)^(-1/1.5) - 1)"))
        for kind in (OrderKind.TTT, OrderKind.QMIT):
            assert check_order(X, Y, kind).holds
        with pytest.raises(QuadratureFailure):
            check_order(X, Y, OrderKind.EW)


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
        assert np.array_equal(verdict.curve["p"], grid.points[3:])
        assert verdict.notes[:3] == tuple(f"excluded p={p:.6g}: quantile of X ~0"
                                          for p in grid.points[:3])

    # a uniform pair on a grid 1e-7 from each end: ew_X = (1-p)^2/2 and
    # mit_Y = p^2/2 fall to ~5e-15 at one end point, under the 1e-12 floor
    EDGE = uniform_grid(16, edge_margin=1e-7)

    @pytest.mark.parametrize("kind, kept, why", [
        (OrderKind.DMRL, slice(None, -1), "ew denominator ~0"),
        (OrderKind.QMIT, slice(1, None), "mit denominator ~0"),
    ])
    def test_near_zero_transform_denominators_are_excluded(self, kind, kept, why):
        X, Y = db.build("q: p"), db.build("q: 2*p")
        verdict = check_order(X, Y, kind, self.EDGE)
        assert verdict.holds
        assert np.array_equal(verdict.curve["p"], self.EDGE.points[kept])
        excluded = np.setdiff1d(self.EDGE.points, self.EDGE.points[kept])
        assert verdict.notes[0] == f"excluded p={float(excluded[0]):.6g}: {why}"
        assert len(verdict.notes) == 2


class TestDensityExclusions:
    """A flat quantile has no density past its flat start: those points
    leave the convex-transform ratio, each named as slope_fault names it."""

    GRID = uniform_grid(32, edge_margin=0.01)

    def _reference(self, X, Y):
        # slope_fault point by point, X's fault first
        p = self.GRID.points
        sx = db.quantile_slopes(X, p).tolist()
        sy = db.quantile_slopes(Y, p).tolist()
        return [(x, db.slope_fault(X, a, x) or db.slope_fault(Y, b, x))
                for x, a, b in zip(p.tolist(), sx, sy)]

    @pytest.mark.parametrize("flat_side", ["x", "y"])
    def test_notes_and_error_name_every_fault_point(self, flat_side):
        flat, smooth = db.build("q: min(p, 0.5)"), db.build("exp:1")
        X, Y = (flat, smooth) if flat_side == "x" else (smooth, flat)
        faults = [(x, f) for x, f in self._reference(X, Y) if f is not None]
        assert len(faults) == 16
        verdict = check_order(X, Y, OrderKind.CONVEX_TRANSFORM, self.GRID)
        assert verdict.notes[:-1] == tuple(f"excluded p={x:.6g}: {f}"
                                           for x, f in faults)
        assert np.array_equal(verdict.curve["p"], [x for x in self.GRID.points
                                                   if x not in dict(faults)])
        # the ce02 curves refuse the pair at its first fault, not fewer rows
        with pytest.raises(ValueError) as info:
            cli._ce02_curves(X, Y, self.GRID)
        assert str(info.value) == (f"convex_transform: excluded "
                                   f"p={faults[0][0]:.6g}: {faults[0][1]}")


class TestDmrlRoutes:
    """The monotone ew ratio of the dmrl verdict against the integral form
    I = ew_y - s*ew_x, read from the dmrl and convex_transform verdict curves
    as reproduce ce02 reads them."""

    def test_monotone_ratio_and_integral_routes_agree(self,
                                                      named_distributions):
        X = named_distributions["ce02_x"]
        Y = named_distributions["ce02_y"]
        assert check_order(X, Y, OrderKind.DMRL, COARSE).holds
        _, gap = cli._ce02_curves(X, Y, COARSE)
        assert min(gap) >= -1e-8

    def test_both_routes_flag_the_distorted_pair(self, named_distributions):
        h = dist_mod.power(5.0)
        Xh = db.distort(named_distributions["ce02_x"], h)
        Yh = db.distort(named_distributions["ce02_y"], h)
        pts = tuple(interior_points(0.002, 0.2, 99))
        grid = Grid(points=pts)
        assert not check_order(Xh, Yh, OrderKind.DMRL, grid).holds
        _, gap = cli._ce02_curves(Xh, Yh, grid)
        assert min(gap) < -1e-10

    def test_single_point_matches_curve(self, named_distributions):
        X = named_distributions["ce02_x"]
        Y = named_distributions["ce02_y"]
        _, gap = cli._ce02_curves(X, Y, COARSE)
        i = 17
        assert dmrl_integral(X, Y, COARSE.points[i]) == pytest.approx(
            gap[i], abs=1e-12)

    def test_infinite_excess_wealth_is_refused(self):
        X = db.build("q: 1/(1-p) - 1")
        Y = db.build("q: 2/(1-p) - 2")
        with pytest.raises(db.InfiniteMeanError):
            excess_wealth(X, 0.5)
        with pytest.raises(db.InfiniteMeanError):
            dmrl_integral(X, Y, 0.5)
        with pytest.raises(db.InfiniteMeanError):
            cli._ce02_curves(X, Y, COARSE)


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
    """convex_transform => dmrl and convex_transform => qmit for every pair,
    and qmit => star for a pair whose quantiles both start at 0
    (q_X(0) = q_Y(0) = 0).  Where its hypothesis holds, a verdict that
    breaks a chain is a numerical fault, not mathematics."""

    CHAINS = (("convex_transform", "dmrl"), ("convex_transform", "qmit"))
    FROM_ZERO_CHAINS = (("qmit", "star"),)

    def verdicts(self, X, Y):
        return {v.kind.value: v.holds
                for v in check_orders(X, Y, tuple(OrderKind), COARSE)}

    def broken_chains(self, holds, from_zero=True):
        chains = self.CHAINS + (self.FROM_ZERO_CHAINS if from_zero else ())
        return [(a, b) for a, b in chains if holds[a] and not holds[b]]

    def test_chains_are_consistent_for_ordered_pair(self,
                                                    named_distributions):
        holds = self.verdicts(named_distributions["uniform"],
                              named_distributions["exp_1"])
        assert self.broken_chains(holds) == []
        assert holds["convex_transform"]
        assert holds["dmrl"] and holds["qmit"]
        assert holds["star"]

    def test_chains_are_consistent_for_exponential_pair(self,
                                                        named_distributions):
        holds = self.verdicts(named_distributions["exp_1"],
                              named_distributions["exp_half"])
        assert set(holds) == {kind.value for kind in OrderKind}
        assert self.broken_chains(holds) == []

    def test_shifted_pair_holds_every_order_but_star(self):
        # q_Y(0) = 1: Y/X = (p + 1)/p decreases, so star fails while the
        # other orders, qmit among them, hold
        holds = self.verdicts(db.build("q: p"), db.build("q: p + 1"))
        assert [kind for kind, ok in holds.items() if not ok] == ["star"]
        assert self.broken_chains(holds, from_zero=False) == []

    def test_distorted_ce02_pair_holds_qmit_but_not_star(self, named_distributions,
                                                         named_distortions):
        # q_Y(0) = ln(15/8) > 0, kept by the distortion
        h = named_distortions["dualpower_5"]
        holds = self.verdicts(db.distort(named_distributions["ce02_x"], h),
                              db.distort(named_distributions["ce02_y"], h))
        assert holds["qmit"] and not holds["star"]
        assert self.broken_chains(holds, from_zero=False) == []


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
