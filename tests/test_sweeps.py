"""Randomized preservation/invariance suites: config, determinism, results."""

from __future__ import annotations

import dataclasses

import pytest

from stochorder import catalog, sweeps
from stochorder.numerics import Tolerance
from stochorder.orders import OrderKind
from stochorder.sweeps import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SUITE_NAMES,
    SweepConfig,
    run_all,
    run_suite,
)

SMOKE = SweepConfig(trials=2)


class TestConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.seed == DEFAULT_SEED == 20240917
        assert config.trials == DEFAULT_TRIALS == 200
        assert config.grid_count == 48
        assert config.edge_margin == 0.01
        assert config.tolerance == Tolerance(1e-8, 1e-8)
        assert config.suites == SUITE_NAMES

    def test_grid_shape(self):
        grid = SweepConfig(grid_count=32).grid()
        assert len(grid.points) == 32

    def test_json_round_trip_keys(self):
        doc = SweepConfig().to_json()
        assert {"seed", "trials", "grid_count", "edge_margin",
                "suites"} <= set(doc)

    @pytest.mark.parametrize("fields, message", [
        ({"trials": -3, "suites": ("ttt_starshaped",)}, "trials must be >= 0"),
        ({"trials": True}, "trials must be an integer; got True"),
        ({"seed": 1.5}, "seed must be an integer; got 1.5"),
        ({"grid_count": "48"}, "grid_count must be an integer; got '48'"),
        ({"suites": ("ttt_starshaped",) * 2},
         "suites names 'ttt_starshaped' more than once"),
        ({"suites": ("bogus",)}, "unknown suite 'bogus'; choose from "),
        ({"edge_margin": 5, "suites": ()},
         "grid lo + edge_margin (5.0) must be below hi - edge_margin (-4.0)"),
        ({"edge_margin": "0.01"}, "edge_margin must be a number; got '0.01'"),
        ({"edge_margin": True}, "edge_margin must be a number; got True"),
        ({"tolerance": 0.1}, "tolerance must be a Tolerance; got 0.1"),
        # an integer too large for a float: no OverflowError
        ({"edge_margin": 10 ** 400}, "grid edge_margin must be finite, got inf"),
        ({"edge_margin": -10 ** 400}, "grid edge_margin must be finite, got -inf"),
    ], ids=["negative-trials", "bool-trials", "float-seed", "string-count",
            "repeated-suite", "unknown-suite", "bad-grid", "string-margin",
            "bool-margin", "float-tolerance", "huge-margin", "huge-negative-margin"])
    def test_values_no_sweep_runs_are_refused(self, fields, message):
        # by the config itself, so a library caller gets no summary the
        # command line would refuse
        with pytest.raises(ValueError) as caught:
            SweepConfig(**fields)
        assert str(caught.value).startswith(message)

    def test_suites_may_be_any_sequence_of_names(self):
        config = SweepConfig(suites=["ew_antistarshaped", "ttt_starshaped"])
        assert config.suites == ("ew_antistarshaped", "ttt_starshaped")
        assert config == SweepConfig(suites=("ew_antistarshaped", "ttt_starshaped"))


class TestQualifying:
    CATALOG_WALK = {
        OrderKind.TTT: [
            "identity", "power_15", "power_2", "power_3", "power_5",
            "convex_mix_half", "mix_cubic", "mix_quartic", "star_kink",
            "cubic_bend", "series_product_3", "sys_one_of_two_pairs",
            "sys_five_comp_bridge"],
        OrderKind.EW: [
            "identity", "dualpower_15", "dualpower_2", "dualpower_3",
            "dualpower_5", "concave_mix_half", "mix_dual_cubic",
            "mix_dual_quartic", "antistar_kink", "parallel_ca_half",
            "sys_two_parallel_pairs", "sys_three_of_four"],
        OrderKind.QMIT: [
            "identity", "power_15", "power_2", "power_3", "power_5",
            "convex_mix_half", "mix_cubic", "mix_quartic", "series_product_3",
            "sys_series_with_parallel_pair"],
    }
    CATALOG_WALK[OrderKind.DMRL] = CATALOG_WALK[OrderKind.EW]

    @pytest.mark.parametrize("order", sorted(CATALOG_WALK, key=lambda k: k.value))
    def test_catalog_walk_follows_the_preservation_advice(self, order):
        names = [name for name, _ in sweeps._qualifying(order)]
        assert names == self.CATALOG_WALK[order]


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent", SMOKE)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_two_trials_pass(self, name):
        result = run_suite(name, SMOKE)
        assert result.ok
        assert result.trials == 2 and result.passes == 2
        assert not result.failures

    def test_run_all_aggregates(self):
        summary = run_all(SMOKE)
        assert summary.ok
        assert tuple(s.name for s in summary.suites) == SUITE_NAMES

    def test_runs_are_deterministic(self):
        first = run_all(SMOKE).to_json()
        second = run_all(SMOKE).to_json()
        assert first == second

    def test_seed_changes_sampled_trials(self):
        # past the deterministic catalog walk, different seeds draw
        # different random pairs; both still pass
        count = len(catalog.distortions())
        a = run_suite("convex_star_invariance",
                      SweepConfig(seed=1, trials=3))
        b = run_suite("convex_star_invariance",
                      SweepConfig(seed=2, trials=3))
        assert a.ok and b.ok
        assert count >= 3  # trials index into the catalog cycle

    def test_suite_subset_respected(self):
        config = SweepConfig(trials=2, suites=("ttt_starshaped",))
        summary = run_all(config)
        assert [s.name for s in summary.suites] == ["ttt_starshaped"]

    def test_summary_json_shape(self):
        doc = run_all(SweepConfig(trials=2,
                                  suites=("ew_antistarshaped",))).to_json()
        assert {"config", "suites", "ok"} <= set(doc)
        suite_doc = doc["suites"][0]
        assert {"name", "trials", "passes", "failures"} <= set(suite_doc)


class TestFailingTrials:
    """The failure payload, reached by turning every distorted verdict into a
    failure with one witness: the base verdicts stay real."""

    @pytest.fixture
    def forced(self, monkeypatch):
        real = sweeps.check_order

        def check_order(x, y, order, grid, tol):
            verdict = real(x, y, order, grid, tol=tol)
            if x.label.startswith("distort("):
                return dataclasses.replace(verdict, holds=False,
                                           witnesses=((0.5, -1.0),))
            return verdict

        monkeypatch.setattr(sweeps, "check_order", check_order)

    def test_preservation_payload(self, forced):
        result = run_suite("ttt_starshaped", SweepConfig(trials=1))
        assert (result.trials, result.passes) == (1, 0)
        [payload] = result.failures
        assert list(payload.items()) == [
            ("trial", 0),
            ("pair", "unit-power exponents 0.516305 > 0.329856"),
            ("x", "q:(1 - (1-p)^0.51630466754799997)/0.51630466754799997"),
            ("y", "q:(1 - (1-p)^0.32985596664400002)/0.32985596664400002"),
            ("distortion", "catalog:identity"),
            ("order", "ttt"),
            ("witnesses", [[0.5, -1.0]]),
            ("notes", ("functional is the pointwise margin ttt_y - ttt_x",)),
        ]

    def test_invariance_payload(self, forced):
        # one payload per order whose distorted verdict leaves the base one
        result = run_suite("convex_star_invariance", SweepConfig(trials=1))
        assert (result.trials, result.passes) == (1, 0)
        notes = {
            "convex_transform": "functional is the density ratio at matched "
                                "quantiles; must be increasing",
            "star": "functional is the quantile ratio q_y/q_x; must be increasing",
        }
        assert [list(payload.items()) for payload in result.failures] == [[
            ("trial", 0),
            ("pair", "exp rates 1.15118 >= 0.84287"),
            ("x", "exp:1.15118197743"),
            ("y", "exp:0.8428698749"),
            ("distortion", "catalog:identity"),
            ("order", order),
            ("witnesses", [[0.5, -1.0]]),
            ("notes", (notes[order],)),
            ("base_holds", True),
            ("distorted_holds", False),
        ] for order in ("convex_transform", "star")]
