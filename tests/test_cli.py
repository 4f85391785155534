"""Command-line interface: subcommands, exit codes, file formats."""

from __future__ import annotations

import filecmp
import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stochorder import catalog, cli
from stochorder import copulas as cop_mod
from stochorder import orders as orders_mod
from stochorder.funcalc import MAX_DEPTH
from stochorder.numerics import MAX_GRID_COUNT, BracketError
from stochorder.sweeps import SuiteResult, SweepConfig, SweepSummary

from helpers import reference_csv_text

CE02_X = "q: 17/8*p - 1/2*p^2"
CE02_Y = "q: ln(15/8 + p)"


def read_json(path):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read().splitlines()


class TestCheckOrder:
    def test_holding_order_exits_zero(self):
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "dmrl"]) == 0

    def test_distorted_violation_exits_one(self):
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "dmrl", "--distort", "power:5",
                         "--grid-count", "128", "--grid-lo", "0.002",
                         "--grid-hi", "0.2"]) == 1

    def test_bad_distribution_spec_exits_two(self):
        assert cli.main(["check-order", "--x", "q: 1 - p", "--y", CE02_Y,
                         "--order", "ttt"]) == 2

    def test_bad_distortion_exits_two(self):
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "ttt", "--distort", "p/2"]) == 2

    @pytest.mark.parametrize("order, code", [("ttt", 0), ("qmit", 0), ("ew", 2)])
    def test_only_ew_reads_a_tail_that_overflows(self, order, code, capsys):
        # (1-p)^(-30) overflows on the upper-tail ladder, which only ew
        # integrates: the head kinds hold, ew names the overflow
        assert cli.main(["check-order", "--x", "q: (1-p)^(-30) - 1",
                         "--y", "q: 2*((1-p)^(-30) - 1)", "--order", order]) == code
        if code == 2:
            assert "overflow in power" in capsys.readouterr().err

    def test_weibull_pair_with_a_root_cusp_exits_one(self):
        # q_X > q_Y near p = 0, so ttt fails: exit 1, not a numeric failure (5)
        assert cli.main(["check-order", "--x", "hazard: x^5", "--y", "hazard: x^2",
                         "--order", "ttt"]) == 1

    def test_reversed_pair_is_witnessed_at_every_point(self, tmp_path):
        # exp:1 lies above exp:2 in ttt and ew at each of the 512 default
        # points: 512 witnesses per order, a header and 512 rows per CSV
        json_out = tmp_path / "v.json"
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                         "--order", "ttt", "--order", "ew", "--out-json", str(json_out),
                         "--out-csv", str(tmp_path / "c.csv")]) == 1
        doc = read_json(str(json_out))
        assert [len(rec["witnesses"]) for rec in doc["results"]] == [512, 512]
        for order in ("ttt", "ew"):
            assert len(read_lines(str(tmp_path / f"c_{order}.csv"))) == 513

    def test_unwritable_csv_exits_four(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "out.csv"
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "ttt", "--out-csv", str(missing)]) == 4

    @pytest.mark.parametrize("argv", [
        ["check-order", "--x", "exp:1", "--y", "exp:0.5", "--order", "ttt"],
        ["check-order", "--x", "exp:1", "--y", "exp:0.5", "--order", "ttt",
         "--order", "ew"],
        ["distort", "--x", "exp:1", "--h", "power:2"],
        ["system", "--signature", "0,1", "--copula", "product:2"],
    ], ids=["check-order", "check-order-several", "distort", "system"])
    def test_csv_to_stdout_exits_two_and_writes_nothing(self, argv, tmp_path,
                                                        monkeypatch, capsys):
        # "-" is stdout for --out-json only; as a CSV path it used to create
        # a file named "-" (or "-_ttt.csv", ...) in the working directory
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--grid-count", "32", "--out-csv", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out-csv ")
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_json_verdict_document(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                         "--order", "ttt", "--order", "ew",
                         "--grid-count", "64", "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["holds"] is True
        orders = {rec["order"] for rec in doc["results"]}
        assert orders == {"ttt", "ew"}
        for rec in doc["results"]:
            assert rec["holds"] is True
            assert rec["grid"].startswith("64:")

    def test_multiple_orders_write_suffixed_csvs(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                         "--order", "ttt", "--order", "ew",
                         "--grid-count", "64", "--out-csv", str(out)])
        assert code == 0
        assert (tmp_path / "curve_ttt.csv").exists()
        assert (tmp_path / "curve_ew.csv").exists()

    def test_csv_streams_curve_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                  "--order", "ttt", "--grid-count", "64",
                  "--out-csv", str(out)])
        lines = read_lines(str(out))
        assert lines[0] == "p,value_x,value_y,functional"
        assert len(lines) == 1 + 64
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "grid": {"count": 32}}))
        out = tmp_path / "verdict.json"
        code = cli.main(["check-order", "--config", str(config),
                         "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["results"][0]["grid"].startswith("32:")

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "grid": {"count": 32}}))
        out = tmp_path / "verdict.json"
        cli.main(["check-order", "--config", str(config),
                  "--grid-count", "64", "--out-json", str(out)])
        assert read_json(str(out))["results"][0]["grid"].startswith("64:")

    @pytest.mark.parametrize("flag, value", [("--grid-lo", "-1"),
                                             ("--grid-hi", "2")])
    def test_grid_outside_the_unit_interval_exits_two(self, flag, value,
                                                      capsys):
        assert cli.main(["check-order", "--x", "q: p", "--y", "q: 2*p",
                         "--order", "star", "--grid-count", "32",
                         flag, value]) == 2
        assert "(0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("x, distort, message", [
        ("exp:1", "power:1e400",
         "bad power exponent in 'power:1e400': number out of range (at 0..5 '1e400')"),
        ("q: p + (0-2)^1e400", "identity",
         "bad quantile expression: number out of range (at 10..15 '1e400')"),
        ("exp:1", "dualpower:1e309", "bad dualpower exponent in 'dualpower:1e309': "
         "number out of range (at 0..5 '1e309')"),
        ("exp:1", "h: p^1e400", "number out of range (at 2..7 '1e400')"),
    ], ids=["power", "quantile", "dualpower", "expression"])
    def test_literal_that_overflows_exits_two(self, x, distort, message, capsys):
        # each literal overflows to inf: an input error that names it, not
        # an infinite exponent, an evaluator crash or a bare math error
        assert cli.main(["check-order", "--x", x, "--y", "exp:2",
                         "--distort", distort, "--order", "ew"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_h_expression_text_is_stripped(self, capsys):
        # as q: and hazard: text is: the label and the spans start at the
        # expression, not at the blank after "h:"
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                         "--distort", "h:  p^2 ", "--order", "ew"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["distortion"] == "p^2"
        assert doc["x"] == "distort(exp:1, h=p^2)"

    @pytest.mark.parametrize("data, reason", [
        (b"{not json", "Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
    ], ids=["malformed", "not-utf-8"])
    def test_malformed_config_exits_two(self, data, reason, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(data)
        assert cli.main(["check-order", "--config", str(config),
                         "--order", "ttt"]) == 2
        assert capsys.readouterr().err == (
            f"error: config {str(config)!r} is not UTF-8 JSON: {reason}\n")

    def test_missing_config_is_an_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["check-order", "--config", str(missing),
                         "--order", "ttt"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {str(missing)!r}: No such file or directory\n")

    @pytest.mark.parametrize("order, code", [("ew", 2), ("dmrl", 2),
                                             ("ttt", 0), ("qmit", 0)])
    def test_infinite_mean_is_refused_only_where_ew_is_needed(self, order, code,
                                                              capsys):
        # q = 1/(1-p) - 1 has a log-divergent mean: ew is infinite, ttt and
        # mit stay finite
        assert cli.main(["check-order", "--x", "q: 1/(1-p) - 1",
                         "--y", "q: 2/(1-p) - 2", "--order", order,
                         "--grid-count", "64"]) == code
        if code == 2:
            assert "infinite mean" in capsys.readouterr().err

    @pytest.mark.parametrize("orders, code", [(("ttt", "qmit"), 0),
                                              (("ttt", "ew"), 2),
                                              (("dmrl", "star"), 2)])
    def test_infinite_mean_with_several_orders(self, orders, code, capsys):
        # one shared transform pass per side refuses the infinite mean exactly
        # when ew or dmrl is asked for, with the message of a one-order check
        argv = ["check-order", "--x", "q: 1/(1-p) - 1", "--y", "q: 2/(1-p) - 2",
                "--grid-count", "64"]
        for order in orders:
            argv += ["--order", order]
        assert cli.main(argv) == code
        if code == 2:
            assert capsys.readouterr().err == (
                "error: q:1/(1-p) - 1: infinite mean, tail contributions not "
                "decaying (rung ratios [" + ", ".join(["1.0"] * 11) + "])\n")

    @pytest.mark.parametrize("extra, named", [
        ({"grid": 64}, "'grid'"),
        ({"grid": {"cnt": 64}}, "cnt"),
        ({"grid": {"count": 64, "margin": 0.01}}, "margin"),
        ({"outputs": 5}, "'outputs'"),
        ({"outputs": {"csv": "out.csv"}}, "csv"),
    ])
    def test_malformed_config_values_exit_two(self, extra, named, tmp_path,
                                              capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"], **extra}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ({"count": 64.9}, "config 'grid.count' must be an integer; got 64.9"),
        ({"count": "64"}, "config 'grid.count' must be an integer; got '64'"),
        ({"count": True}, "config 'grid.count' must be an integer; got True"),
        ({"lo": "0"}, "config 'grid.lo' must be a number; got '0'"),
        ({"hi": False}, "config 'grid.hi' must be a number; got False"),
        ({"edge_margin": None}, "config 'grid.edge_margin' must be a number; got None"),
    ])
    def test_grid_values_are_type_checked(self, grid, message, tmp_path, capsys):
        # a fractional or quoted count is not truncated into a grid, and a
        # bool is not a one-point grid
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"], "grid": grid}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["lo", "hi", "edge_margin"])
    def test_integer_too_large_for_a_float_is_refused_by_name(self, key, tmp_path,
                                                              capsys):
        # an input error naming the key, not an OverflowError (exit 6)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
                                      "grid": {key: 10 ** 400}}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: config 'grid.{key}' must be a number; got an integer too "
            "large for a float\n")

    @pytest.mark.parametrize("argv, config, message", [
        (["--grid-margin", "inf"], None, "grid edge_margin must be finite, got inf"),
        (["--grid-margin", "nan"], None, "grid edge_margin must be finite, got nan"),
        (["--grid-lo=-inf"], None, "grid lo must be finite, got -inf"),
        (["--grid-count", "-1"], None, "grid needs at least 16 points, got -1"),
        ([], '{"grid": {"edge_margin": 1e400}}', "grid edge_margin must be finite, got inf"),
        (["--grid-lo", "1e308", "--grid-margin", "1e308"], None,
         "grid lo + edge_margin must be finite, got inf"),
        (["--grid-lo", "0.5", "--grid-hi", "0.4"], None,
         "grid lo + edge_margin (0.501) must be below hi - edge_margin (0.399)"),
        (["--grid-count", str(MAX_GRID_COUNT + 1)], None,
         f"grid needs at most {MAX_GRID_COUNT} points, got {MAX_GRID_COUNT + 1}"),
    ], ids=["margin-inf", "margin-nan", "lo-inf", "count-negative", "config-margin-1e400",
            "lo-plus-margin-overflows", "lo-above-hi", "count-above-bound"])
    def test_grid_parameters_are_refused_by_name(self, argv, config, message,
                                                 tmp_path, capsys):
        # before np.linspace sees them: one error line and no numpy warning
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                             "--order", "ttt"] + argv) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("x", [
        "q: " + "(" * 200 + "p" + ")" * 200,
        "q: " + "+".join(["p"] * 500),
    ], ids=["nested-parentheses", "flat-sum"])
    def test_deep_expression_is_an_input_error(self, x, capsys):
        # refused by the parser, not a RecursionError (exit 1, "violated")
        assert cli.main(["check-order", "--x", x, "--y", "exp:1", "--order", "ttt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"expression nested deeper than {MAX_DEPTH} levels" in err

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_unexpected_exception_is_an_internal_error(self, error, monkeypatch, capsys):
        # only an InputError is bad input: a stray ValueError is a fault
        def broken(*args, **kwargs):
            raise error("planted fault")

        monkeypatch.setattr(orders_mod, "check_orders", broken)
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                         "--order", "ttt"]) == cli.EXIT_INTERNAL == 6
        assert capsys.readouterr().err == (
            f"internal error: {error.__name__}: planted fault\n")

    def test_integer_grid_bounds_are_numbers(self, tmp_path):
        config = tmp_path / "config.json"
        out = tmp_path / "v.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "grid": {"count": 32, "lo": 0, "hi": 1, "edge_margin": 0.01}}))
        assert cli.main(["check-order", "--config", str(config),
                         "--out-json", str(out)]) == 0
        assert read_json(str(out))["results"][0]["grid"].startswith("32:")

    def test_grid_value_is_checked_where_a_flag_overrides_it(self, tmp_path,
                                                             capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "grid": {"count": "64"}}))
        assert cli.main(["check-order", "--config", str(config),
                         "--grid-count", "64"]) == 2
        assert "'grid.count'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("x", 1), ("y", ["exp:1"]), ("distortion", 5), ("name", 5),
    ])
    def test_config_spec_must_be_a_string(self, key, value, tmp_path, capsys):
        # not an uncaught error with exit 1, the "order violated" code
        doc = {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"], key: value}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert (f"config '{key}' must be a string; got {value!r}"
                in capsys.readouterr().err)

    def test_config_spec_is_checked_where_a_flag_overrides_it(self, tmp_path,
                                                              capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"x": 1, "y": "exp:0.5", "orders": ["ttt"]}))
        assert cli.main(["check-order", "--config", str(config),
                         "--x", "exp:1"]) == 2
        assert "config 'x' must be a string" in capsys.readouterr().err

    def test_config_output_path_must_be_a_string(self, tmp_path, capsys):
        # an integer path would be opened as that file descriptor
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
                                      "outputs": {"verdict_json": 2}}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert ("config 'outputs.verdict_json' must be a string; got 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("orders", ["ttt", ["ttt", "stars"], [1], {"ttt": 1}])
    def test_config_orders_must_be_a_list_of_names(self, orders, tmp_path,
                                                   capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": orders}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'orders'" in err
        assert "ttt, ew, dmrl, qmit, convex_transform, star" in err

    def test_repeated_order_flag_is_refused(self, tmp_path, capsys):
        # two identical results, and c_ttt.csv written twice, otherwise
        csv = tmp_path / "c.csv"
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:2",
                         "--order", "ttt", "--order", "ttt",
                         "--out-csv", str(csv)]) == 2
        assert capsys.readouterr().err == "error: --order names 'ttt' more than once\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flags", [[], ["--order", "ew"]])
    def test_repeated_config_order_is_refused(self, flags, tmp_path, capsys):
        # refused even where a flag overrides the config's orders
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:2", "orders": ["ttt", "ew", "ttt"]}))
        assert cli.main(["check-order", "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err \
            == "error: config 'orders' names 'ttt' more than once\n"

    def test_unknown_top_level_key_exits_two_and_names_it(self, tmp_path,
                                                          capsys):
        # a misspelt "distortion" must not run the pair undistorted
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "distorton": "power:5"}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown key(s) distorton" in err
        assert "distortion" in err

    def test_empty_config_path_is_opened(self, capsys):
        # not taken for "no config": the path given is the path read
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                         "--order", "ttt", "--config", ""]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read config '': No such file or directory\n")

    def test_config_that_is_not_an_object_is_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"x": "exp:1"}]))
        assert cli.main(["check-order", "--config", str(config),
                         "--x", "exp:1", "--y", "exp:0.5", "--order", "ttt"]) == 2
        assert capsys.readouterr().err == (
            f"error: config {str(config)!r} must hold a JSON object\n")

    def test_unknown_nested_key_is_named_with_the_keys_expected(self, tmp_path,
                                                                capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"], "grid": {"cnt": 64}}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: config 'grid' has unknown key(s) cnt; "
            "expected count, lo, hi, edge_margin\n")

    def test_config_faults_are_refused_in_key_order(self, tmp_path, capsys):
        # the whole config is read before any flag is applied: a bad grid is
        # refused ahead of the missing x and y
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": 64}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: config 'grid' must be an object with keys "
            "count, lo, hi, edge_margin; got 64\n")

    def test_null_text_keys_read_as_their_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        out = tmp_path / "verdict.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"], "name": None,
             "distortion": None,
             "outputs": {"verdict_json": str(out), "curve_csv": None}}))
        assert cli.main(["check-order", "--config", str(config)]) == 0
        doc = read_json(str(out))
        assert doc["scenario"] == "cli" and doc["distortion"] is None
        assert doc["x"] == "exp:1"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "verdict.json"]

    @pytest.mark.parametrize("extra, flags, named", [
        ({"orders": "ttt"}, ["--order", "ew"], "config 'orders' must be a list"),
        ({"orders": ["ttt"], "outputs": {"verdict_json": 2}}, ["--out-json", "-"],
         "config 'outputs.verdict_json' must be a string; got 2"),
    ], ids=["orders", "verdict_json"])
    def test_config_value_is_checked_where_a_flag_overrides_it(
            self, extra, flags, named, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"x": "exp:1", "y": "exp:0.5", **extra}))
        assert cli.main(["check-order", "--config", str(config), *flags]) == 2
        assert named in capsys.readouterr().err

    def test_csv_to_stdout_names_the_config_key(self, tmp_path, capsys):
        # the key the "-" came from, not a --out-csv flag that was not given
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
                                      "outputs": {"curve_csv": "-"}}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: config 'outputs.curve_csv' needs a file path; '-' (stdout) "
            "is only for --out-json\n")


class TestNumericFailure:
    # a jump in q at p = 1/2, inside a grid segment: adaptive Simpson
    # refines the panel holding the jump to the depth cap and gives up
    JUMP = "q: piece(p <= 0.5 : p ; else : p + 1)"

    def test_quadrature_failure_exits_five(self, capsys):
        assert cli.main(["check-order", "--x", self.JUMP, "--y", "exp:1",
                         "--order", "ttt"]) == cli.EXIT_NUMERIC == 5
        assert capsys.readouterr().err == (
            "numeric failure: adaptive Simpson did not converge on "
            "[0.5, 0.5000000000000018]\n")

    def test_bracket_error_exits_five(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise BracketError("bracket endpoints evaluate to non-finite values")

        monkeypatch.setattr(cli.orders_mod, "check_orders", fail)
        assert cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                         "--order", "ttt"]) == 5
        assert capsys.readouterr().err.startswith("numeric failure: bracket")

    def test_bounded_hazard_fails_only_past_its_reach(self, tmp_path, capsys):
        # 33 (1 - e^-x) builds and checks on the default grid; a level whose
        # target -ln(1 - p) ~ 34.5 it never reaches is a numeric failure
        bounded = "hazard: 33*(1 - exp(-x))"
        assert cli.main(["check-order", "--x", bounded, "--y", "exp:1",
                         "--order", "ttt", "--out-json", str(tmp_path / "v.json")]) == 0
        assert cli.main(["distort", "--x", bounded, "--h", "identity",
                         "--grid-count", "16", "--grid-margin", "1e-15",
                         "--out-csv", str(tmp_path / "t.csv")]) == 5
        assert capsys.readouterr().err == (
            "numeric failure: target 34.53957599234088 outside [0.0, 33.0]\n")

    def test_far_hazard_tail_row(self, tmp_path):
        # p = 1 - 1e-15 lies past psi(hi = 32768) = 32.768
        out = tmp_path / "t.csv"
        assert cli.main(["distort", "--x", "hazard: 0.001*x", "--h", "identity",
                         "--grid-count", "16", "--grid-margin", "1e-15",
                         "--out-csv", str(out)]) == 0
        assert read_lines(str(out))[-1] == "0.999999999999999,34539.575992340877"

    def test_spec_errors_keep_exit_two(self, capsys):
        assert cli.main(["check-order", "--x", "hazard: -x", "--y", "exp:1",
                         "--order", "ttt"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestWriteCsv:
    VALUES = (-0.0, 5e-324, 1e300, float("inf"), 7, np.float64(0.1),
              Fraction(1, 3))

    @pytest.mark.parametrize("width", [2, 4])
    def test_bytes_match_per_field_format(self, width, tmp_path):
        values = self.VALUES
        rows = [tuple(values[(i + j) % len(values)] for j in range(width))
                for i in range(len(values))]
        header = tuple(f"c{j}" for j in range(width))
        out = tmp_path / "table.csv"
        cli._write_csv(str(out), header, list(zip(*rows)), comment="values")
        expected = reference_csv_text(header, rows, comment="values")
        assert expected == "# values\n" + ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n"
            for row in rows)
        assert out.read_bytes() == expected.encode("utf-8")


class TestClassify:
    def test_distortion_expression(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--h", "p^2",
                         "--out-json", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "starshaped"
        assert doc["flags"]["convex"] is True
        assert set(doc["advice"]) \
            == {"ttt", "ew", "dmrl", "qmit", "convex_transform", "star"}
        assert doc["advice"]["star"]["verdict"] == "preserved"

    def test_generator_form_system(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["classify", "--signature", "0,1,1,-1",
                         "--copula", "durante: f=p^0.5, n=4",
                         "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "starshaped"
        assert doc["closed_form"] == "p*f(p) + p*f(p)^2 - p*f(p)^3"
        assert doc["corollary"]["verdict"] == "starshaped_any_f"

    def test_generator_form_threshold(self, tmp_path):
        # n = 3: S(f) = 3 - 4 f, so h_T is antistarshaped when f(0) >= 3/4
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--signature", "0,3,-2",
                         "--copula", "durante:f=p^0.5,n=3",
                         "--out-json", str(out)]) == 0
        assert read_json(str(out))["corollary"] == {
            "description": "antistarshaped if f(0) >= 3/4",
            "parameters": {"omega": "3/4"}, "threshold": "3/4",
            "verdict": "antistarshaped_if"}

    def test_diagonal_form_system(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["classify", "--signature", "0,0,2,-1",
                         "--copula",
                         "diagonal: d=1 - 7/4*(1-p) + 3/2*(1-p)^2"
                         " - 3/4*(1-p)^3, n=4",
                         "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "dual-antistarshaped"
        assert doc["diag_classification"]["verdict"] == "inconclusive"

    def test_signature_without_copula_exits_two(self):
        assert cli.main(["classify", "--signature", "0,1,1,-1"]) == 2

    def test_both_h_and_signature_exit_two(self):
        assert cli.main(["classify", "--h", "p^2",
                         "--signature", "0,1,1,-1",
                         "--copula", "product:4"]) == 2

    def test_invalid_signature_sum_exits_two(self):
        assert cli.main(["classify", "--signature", "1,1",
                         "--copula", "product:2"]) == 2

    def test_h_with_copula_alone_exits_two(self, tmp_path, capsys):
        # --copula is part of the system form, never silently dropped
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--h", "p^2", "--copula", "product:2",
                         "--out-json", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: give either --h or --signature/--copula, not both\n")
        assert not out.exists()


class TestInputMessages:
    """The one stderr line of an input error (exit 2), per fault."""

    @pytest.mark.parametrize("argv, message", [
        # expression syntax
        (["check-order", "--x", "q: p $ 2", "--y", "exp:1", "--order", "ttt"],
         "bad quantile expression: unexpected character (at 2..3 '$')"),
        (["check-order", "--x", "q: p p", "--y", "exp:1", "--order", "ttt"],
         "bad quantile expression: trailing input (at 2..3 'p')"),
        (["check-order", "--x", "q: else", "--y", "exp:1", "--order", "ttt"],
         "bad quantile expression: 'else' outside piece(...) (at 0..4 'else')"),
        (["check-order", "--x", "q: piece(p <= 0.5 : p ; x <= 0.7 : p ; else : p)",
          "--y", "exp:1", "--order", "ttt"],
         "bad quantile expression: expression must use a single variable, "
         "saw 'p' and 'x' (at 21..22 'x')"),
        (["check-order", "--x", "q: exp(p, 2)", "--y", "exp:1", "--order", "ttt"],
         "bad quantile expression: exp takes one argument (at 0..9 'exp(p, 2)')"),
        (["check-order", "--x", "q: piece(p <= p : 1 ; else : 2)", "--y", "exp:1",
          "--order", "ttt"],
         "bad quantile expression: piece guard bound must be constant "
         "(at 11..12 'p')"),
        (["check-order", "--x", "q: piece(else : p)", "--y", "exp:1",
          "--order", "ttt"],
         "bad quantile expression: piece(...) needs at least one guarded branch "
         "(at 0..5 'piece')"),
        (["check-order", "--x", "q: piece(p <= 0.5 : p ; p <= 0.2 : p ; else : p)",
          "--y", "exp:1", "--order", "ttt"],
         "bad quantile expression: piece guard bounds must be strictly increasing, "
         "got 0.5 then 0.2 (at 26..29 '0.2')"),
        # copula specs
        (["classify", "--signature", "0,1", "--copula", "frechet:0.5"],
         "expected frechet:gamma=<v>, got 'frechet:0.5'"),
        (["classify", "--signature", "0,1", "--copula", "durante:f=p,g=2"],
         "unexpected field 'g=2' in 'durante:f=p,g=2'"),
        (["classify", "--signature", "0,1", "--copula", "durante:f=p,n=x"],
         "bad copula spec 'durante:f=p,n=x': invalid literal for int() with "
         "base 10: 'x'"),
        (["classify", "--signature", "0,1", "--copula", "durante:f=p,n=1"],
         "dimension must be an integer >= 2, got 1"),
        (["classify", "--signature", "0,1", "--copula", "product:13"],
         "dimension must be an integer in [2, 12], got 13"),
        # signatures
        (["classify", "--signature", "1", "--copula", "product:2"],
         "need at least 2 entries, got 1"),
        (["classify", "--signature", "a,b", "--copula", "product:2"],
         "bad signature 'a,b': Invalid literal for Fraction: 'a'"),
        (["classify", "--signature", "1/0,1", "--copula", "product:2"],
         "bad signature '1/0,1': Fraction(1, 0)"),
        # argument combinations
        (["check-order", "--y", "exp:1", "--order", "ttt"],
         "check-order needs --x and --y distribution specs"),
        (["check-order", "--x", "exp:1", "--y", "exp:1"],
         "check-order needs at least one --order"),
        (["classify"], "classify needs --h or --signature/--copula"),
        (["classify", "--h", "power:2", "--signature", "0,1", "--copula", "product:2"],
         "give either --h or --signature/--copula, not both"),
        (["classify", "--signature", "0,1"], "--signature needs --copula"),
        # domain rules of a quantile expression, each named with its span:
        # where it is broken, where the root value hides it, and three
        # quarters into the validation sample
        (["check-order", "--x", "q: ln(p - 1/2)", "--y", "exp:1", "--order", "ttt"],
         "ln of a non-positive number (at 0..11 'ln(p - 1/2)')"),
        (["check-order", "--x", "q: p + 1/(1 + exp(800*p))", "--y", "exp:1",
          "--order", "ttt"],
         "overflow in exp (at 11..21 'exp(800*p)')"),
        (["check-order", "--x", "q: p + ln(0.75 - p)", "--y", "exp:1", "--order", "ttt"],
         "ln of a non-positive number (at 4..16 'ln(0.75 - p)')"),
        # spec text that would be misread: an empty entry would change n, a
        # repeated field would let the last one win
        (["classify", "--signature", "0,,0,1", "--copula", "product:3"],
         "bad signature '0,,0,1': entry 2 is empty"),
        (["classify", "--signature", "0,1", "--copula", "durante:f=p^0.5,n=2,f=p"],
         "field 'f' given more than once in 'durante:f=p^0.5,n=2,f=p'"),
        # distortion specs name the spec: a bad constant, and a mistyped form
        # that the bare-expression fallback would read as an identifier
        (["check-order", "--x", "exp:1", "--y", "exp:2", "--order", "ttt",
          "--distort", "power:x"],
         "bad power exponent in 'power:x': unknown identifier 'x' (at 0..1 'x')"),
        (["check-order", "--x", "exp:1", "--y", "exp:2", "--order", "ttt",
          "--distort", "dualpower:2*"],
         "bad dualpower exponent in 'dualpower:2*': expected a value (at 2..2 '')"),
        (["classify", "--h", "pow:2"], "unrecognized distortion spec 'pow:2'"),
    ], ids=["unexpected-character", "trailing-input", "else-outside-piece",
            "second-variable", "exp-arity", "guard-not-constant", "piece-no-branch",
            "guards-not-increasing", "frechet-positional", "unknown-field",
            "dimension-not-integer", "dimension-one", "dimension-above-12",
            "signature-one-entry", "signature-not-a-number", "signature-zero-division",
            "no-x", "no-order", "classify-no-input", "classify-both-inputs",
            "signature-no-copula", "ln-domain", "domain-under-finite-root",
            "domain-deep-in-sample", "signature-empty-entry", "copula-field-twice",
            "power-constant", "dualpower-constant", "distortion-unknown-form"])
    def test_input_error(self, argv, message, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDistortAndSystem:
    def test_distort_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert cli.main(["distort", "--x", "exp:1", "--h", "power:2",
                         "--grid-count", "32", "--out-csv", str(out)]) == 0
        lines = read_lines(str(out))
        assert lines[0].startswith("# ")
        assert lines[1] == "p,value"
        assert len(lines) == 2 + 32

    def test_system_outputs(self, tmp_path):
        csv_out = tmp_path / "h.csv"
        json_out = tmp_path / "h.json"
        code = cli.main(["system", "--signature", "0,1,1,-1",
                         "--copula", "durante: f=p^0.5, n=4",
                         "--out-csv", str(csv_out),
                         "--out-json", str(json_out)])
        assert code == 0
        lines = read_lines(str(csv_out))
        assert len(lines) == 2 + 257  # comment + header + default grid
        doc = read_json(str(json_out))
        assert doc["closed_form"] == "p*f(p) + p*f(p)^2 - p*f(p)^3"

    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_system_grid_count_below_two_is_an_input_error(self, count,
                                                           tmp_path, capsys):
        csv_out = tmp_path / "h.csv"
        assert cli.main(["system", "--signature", "0,1", "--copula", "product:2",
                         "--grid-count", count, "--out-csv", str(csv_out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --grid-count must be at least 2, got {count}\n")
        assert not csv_out.exists()

    def test_system_grid_count_above_the_bound_is_an_input_error(self, tmp_path, capsys):
        csv_out = tmp_path / "h.csv"
        count = MAX_GRID_COUNT + 1
        assert cli.main(["system", "--signature", "0,1", "--copula", "product:2",
                         "--grid-count", str(count), "--out-csv", str(csv_out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --grid-count must be at most {MAX_GRID_COUNT}, got {count}\n")
        assert not csv_out.exists()

    @pytest.mark.parametrize("argv, points", [
        # the validation sample serves classify and a table whose
        # count - 1 divides 512; any other count is evaluated on its own
        (["system", "--grid-count", "257"], 513),
        (["system", "--grid-count", "100"], 513 + 100),
        (["system", "--grid-count", "2"], 513),
        (["classify"], 513),
    ])
    def test_system_distortion_is_sampled_once(self, argv, points, tmp_path,
                                               monkeypatch, capsys):
        seen = []
        cop_eval = cop_mod.cop_eval

        def counting(handle, point):
            seen.append(np.size(point[0]))
            return cop_eval(handle, point)

        monkeypatch.setattr(cop_mod, "cop_eval", counting)
        extra = ["--out-csv", str(tmp_path / "h.csv")] if argv[0] == "system" else []
        assert cli.main(argv + ["--signature", "0,0,2,-1", "--copula", "product:4",
                                "--out-json", str(tmp_path / "h.json")] + extra) == 0
        # h_T under product:4 makes one cop_eval call per non-zero entry
        # (a_3 and a_4), each on every point h_T is evaluated at
        assert sum(seen) == 2 * points

    @pytest.mark.parametrize("count", [257, 100, 65])
    def test_system_table_is_the_closed_form(self, count, tmp_path):
        # h_T = 2 p^3 - p^4 for a = (0, 0, 2, -1) under independence
        csv_out = tmp_path / "h.csv"
        assert cli.main(["system", "--signature", "0,0,2,-1", "--copula",
                         "product:4", "--grid-count", str(count),
                         "--out-csv", str(csv_out),
                         "--out-json", str(tmp_path / "h.json")]) == 0
        p, value = np.loadtxt(str(csv_out), delimiter=",", skiprows=2).T
        assert np.array_equal(p, np.arange(count) / (count - 1))
        assert np.max(np.abs(value - (2 * p ** 3 - p ** 4))) <= 1e-12

    def test_copula_label_keeps_every_digit(self, tmp_path):
        # the label written is the spec that builds the copula again: a theta
        # rounded to six digits would name another copula
        out = tmp_path / "j.json"
        assert cli.main(["system", "--signature", "0,1", "--copula",
                         "cuadras-auge:theta=0.123456789", "--out-json", str(out)]) == 0
        assert read_json(str(out))["copula"] == "cuadras-auge:theta=0.123456789"

    def test_system_rejects_invalid_generator(self):
        assert cli.main(["system", "--signature", "0,1,1,-1",
                         "--copula", "durante: f=p^2, n=4"]) == 2


class TestReproduce:
    def test_unknown_target_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "nope"])
        assert exc.value.code == 2

    def test_diagonal_target_is_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        for out in (first, second):
            assert cli.main(["reproduce", "ex_diag_5comp",
                             "--out-dir", str(out)]) == 0
        names = sorted(os.listdir(first))
        assert "distortion.csv" in names and "classification.json" in names
        match, mismatch, errors = filecmp.cmpfiles(
            str(first), str(second), names, shallow=False)
        assert match == names and not mismatch and not errors

    @pytest.mark.parametrize("target, system", [
        ("ex_durante_1", "two_parallel_pairs"), ("ex_durante_2", "one_of_two_pairs"),
        ("ex_diag_5comp", "five_comp_bridge"), ("ex_3of4", "three_of_four"),
        ("ex_qmit", "series_with_parallel_pair"),
    ])
    def test_system_target_classifies_as_the_system_command(self, target, system,
                                                           tmp_path):
        # each worked system is its catalog row, run as `stochorder system` runs it
        signature, copula = catalog.SYSTEMS[system]
        bundle, out, table = (tmp_path / "bundle", tmp_path / "system.json",
                              tmp_path / "system.csv")
        assert cli.main(["reproduce", target, "--out-dir", str(bundle)]) == 0
        assert cli.main(["system", "--signature", signature, "--copula", copula,
                         "--out-csv", str(table), "--out-json", str(out)]) == 0
        assert (bundle / "classification.json").read_bytes() == out.read_bytes()
        assert (bundle / "distortion.csv").read_bytes() == table.read_bytes()

    def test_file_list_is_printed(self, tmp_path, capsys):
        cli.main(["reproduce", "ex_durante_1", "--out-dir",
                  str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert "distortion.csv" in printed
        assert "shape_condition.csv" in printed


class TestSweepCommand:
    def test_small_clean_sweep_exits_zero(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"trials": 2, "suites": ["convex_star_invariance"]}))
        out = tmp_path / "summary.json"
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["ok"] is True

    def test_zero_trials_allowed(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"trials": 0}))
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(tmp_path / "s.json")]) == 0

    def test_unreadable_config_is_an_input_error(self, tmp_path, capsys):
        assert cli.main(["sweep", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {str(tmp_path)!r}: ")

    def test_unknown_key_exits_two_and_names_it(self, tmp_path, capsys):
        # a misspelt "trials" must not run the default 200 trials
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"trails": 5}))
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert "unknown key(s) trails" in capsys.readouterr().err

    def test_bool_tolerance_is_not_a_number(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"rel_tol": True}))
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: config 'rel_tol' must be a number; got True\n")

    def test_unknown_suite_exits_two(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"suites": ["bogus"]}))
        assert cli.main(["sweep", "--config", str(config)]) == 2

    @pytest.mark.parametrize("value, key", [
        ({"suites": "ttt_starshaped"}, "suites"),
        ({"suites": ["ttt_starshaped", 3]}, "suites"),
        ({"suites": {"ttt_starshaped": 1}}, "suites"),
        ({"trials": 2.7}, "trials"),
        ({"trials": "2"}, "trials"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"grid_count": "48"}, "grid_count"),
        ({"grid_count": None}, "grid_count"),
        ({"rel_tol": True}, "rel_tol"),
        ({"abs_tol": "x"}, "abs_tol"),
        ({"edge_margin": "0.01"}, "edge_margin"),
        ({"edge_margin": [0.01]}, "edge_margin"),
    ])
    def test_malformed_value_exits_two_and_names_the_key(self, value, key,
                                                         tmp_path, capsys,
                                                         monkeypatch):
        # a string of suite names is not split into letters, and a
        # fractional trial count is not truncated: nothing runs
        def run_all(config):
            raise AssertionError(f"sweep ran with {config!r}")

        monkeypatch.setattr(cli.sweeps_mod, "run_all", run_all)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"trials": 1, "suites": ["convex_star_invariance"], **value}))
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(tmp_path / "s.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config '{key}' must be ")

    @pytest.mark.parametrize("key", ["edge_margin", "abs_tol", "rel_tol"])
    def test_integer_too_large_for_a_float_is_refused_by_name(self, key, tmp_path,
                                                              capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"trials": 1, "suites": [], key: 10 ** 400}))
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: config '{key}' must be a number; got an integer too large "
            "for a float\n")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("value, message", [
        # a repeated suite would run twice and be listed twice
        ({"trials": 1, "suites": ["ttt_starshaped", "ttt_starshaped"]},
         "config 'suites' names 'ttt_starshaped' more than once"),
        # the grid is refused even where no suite would build it
        ({"suites": [], "edge_margin": 5},
         "grid lo + edge_margin (5.0) must be below hi - edge_margin (-4.0)"),
    ])
    def test_refused_before_any_suite_runs(self, value, message, tmp_path,
                                           capsys, monkeypatch):
        def run_all(config):
            raise AssertionError(f"sweep ran with {config!r}")

        monkeypatch.setattr(cli.sweeps_mod, "run_all", run_all)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(value))
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.json").exists()

    def test_empty_config_path_is_opened(self, tmp_path, capsys, monkeypatch):
        # not the full default sweep run as if no config were given
        def run_all(config):
            raise AssertionError(f"sweep ran with {config!r}")

        monkeypatch.setattr(cli.sweeps_mod, "run_all", run_all)
        assert cli.main(["sweep", "--config", "",
                         "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read config '': No such file or directory\n")
        assert not (tmp_path / "s.json").exists()

    def test_failing_summary_exits_three(self, tmp_path, monkeypatch):
        config = SweepConfig(trials=1, suites=("ttt_starshaped",))
        failing = SweepSummary(config=config, suites=(
            SuiteResult(name="ttt_starshaped", trials=1, passes=0,
                        failures=({"trial": 0, "note": "synthetic"},)),
        ))
        monkeypatch.setattr(cli.sweeps_mod, "run_all",
                            lambda cfg: failing)
        assert cli.main(["sweep", "--out",
                         str(tmp_path / "s.json")]) == 3


class TestDeterminism:
    def test_json_outputs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            cli.main(["classify", "--h", "power:2", "--out-json", str(out)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")


class TestParserReuse:
    def test_second_call_sees_only_its_own_flags_and_config(self, tmp_path):
        # one parser serves every main call in the process: the first call's
        # --order flags, grid flag and config must not reach the second
        first_cfg, second_cfg = tmp_path / "first.json", tmp_path / "second.json"
        first_cfg.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ew"],
             "grid": {"count": 32}}))
        second_cfg.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "grid": {"count": 48}}))
        first_out, second_out = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["check-order", "--config", str(first_cfg),
                         "--order", "ttt", "--order", "ew",
                         "--grid-count", "64", "--out-json", str(first_out)]) == 0
        assert cli.main(["check-order", "--config", str(second_cfg),
                         "--order", "star", "--out-json", str(second_out)]) == 0
        first = read_json(str(first_out))["results"]
        second = read_json(str(second_out))["results"]
        assert [rec["order"] for rec in first] == ["ttt", "ew"]
        assert first[0]["grid"].startswith("64:")
        assert [rec["order"] for rec in second] == ["star"]
        assert second[0]["grid"].startswith("48:")
        assert cli._parser() is cli._parser()
